//! Rubik-style frequency selection: bound the **maximum** violation
//! probability of the queued requests.
//!
//! "The frequency setting is then determined by the request with the least
//! latency slack. While satisfying latency constraint, this conservative
//! frequency selection does not fully exploit the energy saving
//! opportunities" (§III). Run with slack-free deadlines it is *Rubik*;
//! with network-slack deadlines it is *Rubik+*.

use crate::freq::FreqLadder;
use crate::vp::Decision;

use super::DvfsPolicy;

/// Lowest frequency whose worst-case per-request VP meets the target.
#[derive(Debug, Clone)]
pub struct MaxVpPolicy {
    /// SLA miss budget (0.05 for a 95th-percentile SLA).
    pub target: f64,
    /// Reported name ("rubik" or "rubik+"; the deadline feed decides which
    /// it actually is).
    pub label: &'static str,
}

impl MaxVpPolicy {
    /// Rubik at the paper's 5 % miss budget.
    pub fn rubik() -> Self {
        MaxVpPolicy {
            target: 0.05,
            label: "rubik",
        }
    }

    /// Rubik+ at the paper's 5 % miss budget (pair with slack-aware
    /// deadlines in the simulator).
    pub fn rubik_plus() -> Self {
        MaxVpPolicy {
            target: 0.05,
            label: "rubik+",
        }
    }
}

impl DvfsPolicy for MaxVpPolicy {
    fn name(&self) -> &'static str {
        self.label
    }

    fn choose_frequency(&mut self, _now: f64, decision: &Decision, ladder: &FreqLadder) -> f64 {
        if decision.is_empty() {
            return ladder.min();
        }
        ladder.lowest_satisfying(|f| decision.max_vp(f) <= self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceModel;
    use crate::vp::VpEngine;
    use eprons_num::Pmf;

    fn engine() -> VpEngine {
        // Deterministic 2.7e-3 Gc per request (1 ms at 2.7 GHz).
        VpEngine::new(ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 0.0, 2.7))
    }

    #[test]
    fn tight_deadline_forces_high_frequency() {
        let mut p = MaxVpPolicy::rubik();
        let ladder = FreqLadder::paper_default();
        let mut e = engine();
        // 2.7e-3 Gc due in 1.01 ms → needs ≈ 2.67 GHz → 2.7.
        let d = e.decision(0.0, None, &[1.01e-3]);
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 2.7);
    }

    #[test]
    fn loose_deadline_allows_low_frequency() {
        let mut p = MaxVpPolicy::rubik();
        let ladder = FreqLadder::paper_default();
        let mut e = engine();
        // 2.7e-3 Gc due in 10 ms → 0.27 GHz would do; ladder floor is 1.2.
        let d = e.decision(0.0, None, &[10.0e-3]);
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 1.2);
    }

    #[test]
    fn limiting_request_dictates() {
        let mut p = MaxVpPolicy::rubik();
        let ladder = FreqLadder::paper_default();
        let mut e = engine();
        // First request roomy, second tight: 5.4e-3 Gc total due in
        // 2.2 ms → needs ≥ 2.46 GHz → 2.5.
        let d = e.decision(0.0, None, &[10.0e-3, 2.2e-3]);
        let f = p.choose_frequency(0.0, &d, &ladder);
        assert!((f - 2.5).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn empty_queue_idles_at_min() {
        let mut p = MaxVpPolicy::rubik();
        let ladder = FreqLadder::paper_default();
        let mut e = engine();
        let d = e.decision(0.0, None, &[]);
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 1.2);
    }

    #[test]
    fn impossible_deadline_runs_flat_out() {
        let mut p = MaxVpPolicy::rubik();
        let ladder = FreqLadder::paper_default();
        let mut e = engine();
        let d = e.decision(0.0, None, &[0.1e-3]); // needs 27 GHz
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 2.7);
    }
}
