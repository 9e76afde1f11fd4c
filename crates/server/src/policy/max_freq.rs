//! The "no power management" baseline: always run at `f_max`.

use crate::freq::FreqLadder;
use crate::vp::Decision;

use super::DvfsPolicy;

/// Runs every request at the maximum frequency.
#[derive(Debug, Clone, Default)]
pub struct MaxFreqPolicy;

impl DvfsPolicy for MaxFreqPolicy {
    fn name(&self) -> &'static str {
        "no-power-management"
    }

    fn needs_model(&self) -> bool {
        false
    }

    fn choose_frequency(&mut self, _now: f64, _decision: &Decision, ladder: &FreqLadder) -> f64 {
        ladder.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceModel;
    use crate::vp::VpEngine;
    use eprons_num::Pmf;

    #[test]
    fn always_max() {
        let mut p = MaxFreqPolicy;
        let ladder = FreqLadder::paper_default();
        let mut e = VpEngine::new(ServiceModel::new(Pmf::delta(1.0, 0.1), 0.0, 2.7));
        let d = e.decision(0.0, None, &[1.0]);
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 2.7);
        let empty = e.decision(0.0, None, &[]);
        assert_eq!(p.choose_frequency(5.0, &empty, &ladder), 2.7);
    }
}
