//! EPRONS-Server: bound the **average** violation probability (§III-A).
//!
//! "The goal of EPRONS-Server is to select a frequency where the violation
//! probability of all … requests combined is 5 %. In order to achieve this,
//! we simply need the average VP of all queued requests to be 5 %." A
//! request may individually exceed the miss budget; another with surplus
//! slack compensates, so the *overall* tail meets the SLA while the core
//! runs slower (`f_new < f2` in Fig. 4). The waiting queue is EDF-ordered
//! ("EPRONS-Server reorders requests based on their deadlines", §V-B2).

use crate::freq::FreqLadder;
use crate::vp::Decision;

use super::DvfsPolicy;

/// Lowest frequency whose queue-average VP meets the target.
#[derive(Debug, Clone)]
pub struct AvgVpPolicy {
    /// SLA miss budget (0.05 for a 95th-percentile SLA).
    pub target: f64,
    /// Earliest-deadline-first queue ordering (the paper's EPRONS-Server
    /// enables it; disable for the ablation of §V-B2's "reorders requests
    /// based on their deadlines").
    pub edf: bool,
}

impl AvgVpPolicy {
    /// EPRONS-Server at the paper's 5 % miss budget (EDF on).
    pub fn eprons() -> Self {
        AvgVpPolicy {
            target: 0.05,
            edf: true,
        }
    }

    /// Ablation variant: average-VP selection but FIFO service order.
    pub fn eprons_fifo() -> Self {
        AvgVpPolicy {
            target: 0.05,
            edf: false,
        }
    }
}

impl DvfsPolicy for AvgVpPolicy {
    fn name(&self) -> &'static str {
        "eprons-server"
    }

    fn reorders_edf(&self) -> bool {
        self.edf
    }

    fn choose_frequency(&mut self, _now: f64, decision: &Decision, ladder: &FreqLadder) -> f64 {
        if decision.is_empty() {
            return ladder.min();
        }
        // Binary search over the ladder: avg VP is monotone non-increasing
        // in frequency (paper §III-C applies the same binary search).
        ladder.lowest_satisfying(|f| decision.avg_vp(f) <= self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::max_vp::MaxVpPolicy;
    use crate::service::ServiceModel;
    use crate::vp::VpEngine;
    use eprons_num::Pmf;

    fn bimodal_engine() -> VpEngine {
        let pmf = Pmf::from_masses(2.7e-3, 2.7e-3, vec![0.5, 0.5]);
        VpEngine::new(ServiceModel::new(pmf, 0.0, 2.7))
    }

    #[test]
    fn never_above_max_vp_frequency() {
        // For any queue, the average criterion can only choose a frequency
        // ≤ the max criterion's (avg ≤ max pointwise).
        let ladder = FreqLadder::paper_default();
        let mut eprons = AvgVpPolicy {
            target: 0.3,
            edf: true,
        };
        let mut rubik = MaxVpPolicy {
            target: 0.3,
            label: "rubik",
        };
        let mut e = bimodal_engine();
        for deadlines in [
            vec![3.0e-3],
            vec![6.0e-3, 5.6e-3],
            vec![4.0e-3, 6.0e-3, 8.0e-3],
            vec![2.0e-3, 9.0e-3, 9.5e-3, 12.0e-3],
        ] {
            let d = e.decision(0.0, None, &deadlines);
            let fa = eprons.choose_frequency(0.0, &d, &ladder);
            let fm = rubik.choose_frequency(0.0, &d, &ladder);
            assert!(fa <= fm + 1e-12, "avg {fa} > max {fm} for {deadlines:?}");
        }
    }

    #[test]
    fn fig4_scenario_picks_intermediate_frequency() {
        // One roomy and one tight request (see vp.rs::fig4 test): the
        // average criterion admits a strictly lower frequency.
        let ladder = FreqLadder::paper_default();
        let mut eprons = AvgVpPolicy {
            target: 0.3,
            edf: true,
        };
        let mut rubik = MaxVpPolicy {
            target: 0.3,
            label: "rubik",
        };
        let mut e = bimodal_engine();
        let d = e.decision(0.0, None, &[6.0e-3, 5.625e-3]);
        let fa = eprons.choose_frequency(0.0, &d, &ladder);
        let fm = rubik.choose_frequency(0.0, &d, &ladder);
        assert!(fa < fm, "EPRONS {fa} should undercut Rubik {fm}");
    }

    #[test]
    fn edf_flag_set() {
        assert!(AvgVpPolicy::eprons().reorders_edf());
        assert!(!AvgVpPolicy::eprons_fifo().reorders_edf());
        assert!(!MaxVpPolicy::rubik().reorders_edf());
    }

    #[test]
    fn empty_queue_idles_at_min() {
        let ladder = FreqLadder::paper_default();
        let mut p = AvgVpPolicy::eprons();
        let mut e = bimodal_engine();
        let d = e.decision(0.0, None, &[]);
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 1.2);
    }

    #[test]
    fn single_request_equals_max_criterion() {
        // With one queued request avg == max, so the two policies agree.
        let ladder = FreqLadder::paper_default();
        let mut eprons = AvgVpPolicy::eprons();
        let mut rubik = MaxVpPolicy::rubik();
        let mut e = bimodal_engine();
        for budget in [2.0e-3, 3.0e-3, 5.0e-3, 9.0e-3] {
            let d = e.decision(0.0, None, &[budget]);
            assert_eq!(
                eprons.choose_frequency(0.0, &d, &ladder),
                rubik.choose_frequency(0.0, &d, &ladder)
            );
        }
    }
}
