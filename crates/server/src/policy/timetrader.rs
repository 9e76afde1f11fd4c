//! TimeTrader-style feedback DVFS (the paper's cross-layer baseline \[7\]).
//!
//! TimeTrader monitors the measured service tail and periodically adjusts
//! the frequency: "the simple control algorithm in TimeTrader changes the
//! CPU frequency every 5 seconds" (§V-B2). It borrows the *whole* network
//! budget when the network shows no congestion signal (ECN/RTO) — which is
//! how the simulator feeds it deadlines — but its coarse control period
//! makes it slow to track bursty arrivals, which is exactly the weakness
//! the paper demonstrates (responsiveness, §III).

use eprons_num::quantile::percentile;

use crate::freq::FreqLadder;
use crate::vp::Decision;

use super::DvfsPolicy;

/// Windowed-tail feedback controller.
#[derive(Debug, Clone)]
pub struct TimeTraderPolicy {
    /// Control period (5 s in the paper).
    pub period_s: f64,
    /// Tail percentile monitored (0.95).
    pub percentile: f64,
    /// The latency the controller steers toward, in seconds (the server
    /// budget, plus the network budget when uncongested).
    pub target_latency_s: f64,
    /// Dead-band: step down only when the tail is below
    /// `down_threshold × target`.
    pub down_threshold: f64,
    freq_idx: usize,
    next_update_s: f64,
    window: Vec<f64>,
}

impl TimeTraderPolicy {
    /// Creates a controller with the paper's 5 s period and 95th-percentile
    /// monitoring, starting at the top frequency.
    pub fn new(target_latency_s: f64, ladder_len: usize) -> Self {
        TimeTraderPolicy {
            period_s: 5.0,
            percentile: 0.95,
            target_latency_s,
            down_threshold: 0.95,
            freq_idx: ladder_len.saturating_sub(1),
            next_update_s: 0.0,
            window: Vec::new(),
        }
    }
}

impl DvfsPolicy for TimeTraderPolicy {
    fn name(&self) -> &'static str {
        "timetrader"
    }

    fn needs_model(&self) -> bool {
        false
    }

    fn on_completion(&mut self, _now: f64, latency_s: f64, _budget_s: f64) {
        self.window.push(latency_s);
    }

    fn choose_frequency(&mut self, now: f64, _decision: &Decision, ladder: &FreqLadder) -> f64 {
        if now >= self.next_update_s {
            if !self.window.is_empty() {
                let tail = percentile(&self.window, self.percentile);
                if tail > self.target_latency_s {
                    self.freq_idx = (self.freq_idx + 1).min(ladder.len() - 1);
                } else if tail < self.down_threshold * self.target_latency_s && self.freq_idx > 0 {
                    self.freq_idx -= 1;
                }
                self.window.clear();
            }
            self.next_update_s = now + self.period_s;
        }
        ladder.at(self.freq_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceModel;
    use crate::vp::VpEngine;
    use eprons_num::Pmf;

    fn dummy_decision() -> crate::vp::Decision {
        let mut e = VpEngine::new(ServiceModel::new(Pmf::delta(1.0, 0.1), 0.0, 2.7));
        e.decision(0.0, None, &[1.0])
    }

    #[test]
    fn starts_at_max() {
        let ladder = FreqLadder::paper_default();
        let mut p = TimeTraderPolicy::new(30.0e-3, ladder.len());
        let d = dummy_decision();
        assert_eq!(p.choose_frequency(0.0, &d, &ladder), 2.7);
    }

    #[test]
    fn steps_down_when_tail_is_comfortable() {
        let ladder = FreqLadder::paper_default();
        let mut p = TimeTraderPolicy::new(30.0e-3, ladder.len());
        let d = dummy_decision();
        let _ = p.choose_frequency(0.0, &d, &ladder);
        // Feed a comfortable window and cross the period boundary.
        for _ in 0..100 {
            p.on_completion(1.0, 5.0e-3, 30.0e-3);
        }
        let f = p.choose_frequency(6.0, &d, &ladder);
        assert!(f < 2.7, "should have stepped down, got {f}");
    }

    #[test]
    fn steps_up_on_violation() {
        let ladder = FreqLadder::paper_default();
        let mut p = TimeTraderPolicy::new(30.0e-3, ladder.len());
        let d = dummy_decision();
        // Walk it down a few periods first.
        let mut t = 0.0;
        let _ = p.choose_frequency(t, &d, &ladder);
        for _ in 0..5 {
            for _ in 0..50 {
                p.on_completion(t, 4.0e-3, 30.0e-3);
            }
            t += 6.0;
            let _ = p.choose_frequency(t, &d, &ladder);
        }
        let before = p.choose_frequency(t, &d, &ladder);
        // Now a violating window.
        for _ in 0..50 {
            p.on_completion(t, 60.0e-3, 30.0e-3);
        }
        t += 6.0;
        let after = p.choose_frequency(t, &d, &ladder);
        assert!(after > before, "violation must raise frequency");
    }

    #[test]
    fn holds_between_updates() {
        let ladder = FreqLadder::paper_default();
        let mut p = TimeTraderPolicy::new(30.0e-3, ladder.len());
        let d = dummy_decision();
        let f0 = p.choose_frequency(0.0, &d, &ladder);
        for _ in 0..100 {
            p.on_completion(1.0, 1.0e-3, 30.0e-3);
        }
        // Still inside the 5 s period: no change despite the easy window.
        let f1 = p.choose_frequency(3.0, &d, &ladder);
        assert_eq!(f0, f1);
    }

    #[test]
    fn dead_band_prevents_oscillation() {
        let ladder = FreqLadder::paper_default();
        let mut p = TimeTraderPolicy::new(30.0e-3, ladder.len());
        let d = dummy_decision();
        let _ = p.choose_frequency(0.0, &d, &ladder);
        // Tail right below target but above the down threshold: hold.
        for _ in 0..100 {
            p.on_completion(1.0, 29.0e-3, 30.0e-3);
        }
        let f = p.choose_frequency(6.0, &d, &ladder);
        assert_eq!(f, 2.7, "inside dead-band: no movement");
    }
}
