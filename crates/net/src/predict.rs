//! Bandwidth demand prediction (paper §II, step i).
//!
//! "The 90th %tile traffic data rate of the last epoch is used to predict
//! the flow's bandwidth demand in the next epoch \[3\], so as to be able to
//! support the bandwidth demand for all but the outlier cases. To minimize
//! the effect of prediction errors, we incorporate a safety margin for the
//! required link capacity."

use eprons_num::quantile::percentile;

use crate::flow::FlowId;

/// Sliding per-flow rate history with 90th-percentile prediction.
#[derive(Debug, Clone)]
pub struct DemandPredictor {
    /// Quantile used for prediction (0.9 per the paper).
    quantile: f64,
    /// Rate samples observed during the current epoch, per flow.
    epoch_samples: Vec<Vec<f64>>,
    /// Prediction carried over from the last completed epoch, per flow.
    predictions: Vec<Option<f64>>,
}

impl DemandPredictor {
    /// Creates a predictor for `num_flows` flows using the given quantile.
    ///
    /// # Panics
    /// Panics if `quantile` is outside `(0, 1]`.
    pub fn new(num_flows: usize, quantile: f64) -> Self {
        assert!(quantile > 0.0 && quantile <= 1.0, "quantile in (0,1]");
        DemandPredictor {
            quantile,
            epoch_samples: vec![Vec::new(); num_flows],
            predictions: vec![None; num_flows],
        }
    }

    /// A predictor with the paper's 90th percentile.
    pub fn paper_default(num_flows: usize) -> Self {
        Self::new(num_flows, 0.9)
    }

    /// Records one measured rate sample (Mbps) for a flow. The POX
    /// controller polls flow statistics every 2 s (§V-A); each poll feeds
    /// one sample. Non-finite or negative rates — a glitched poll from a
    /// failing switch — are rejected (returns `false`) and counted under
    /// `net.predict.rejected_samples` instead of aborting the day loop.
    pub fn observe(&mut self, flow: FlowId, rate_mbps: f64) -> bool {
        if !rate_mbps.is_finite() || rate_mbps < 0.0 {
            if eprons_obs::enabled() {
                eprons_obs::registry()
                    .counter("net.predict.rejected_samples")
                    .inc();
            }
            return false;
        }
        self.epoch_samples[flow.0].push(rate_mbps);
        true
    }

    /// Closes the epoch: predictions become the configured percentile of
    /// each flow's samples; sample buffers reset. Flows with no samples
    /// keep their previous prediction.
    pub fn roll_epoch(&mut self) {
        for (samples, pred) in self.epoch_samples.iter_mut().zip(&mut self.predictions) {
            if !samples.is_empty() {
                *pred = Some(percentile(samples, self.quantile));
                samples.clear();
            }
        }
    }

    /// Predicted demand for a flow (Mbps), if any epoch has completed with
    /// samples for it.
    pub fn predict(&self, flow: FlowId) -> Option<f64> {
        self.predictions[flow.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_90th_percentile() {
        let mut p = DemandPredictor::paper_default(1);
        for i in 1..=100 {
            p.observe(FlowId(0), i as f64);
        }
        p.roll_epoch();
        let pred = p.predict(FlowId(0)).unwrap();
        assert!(
            (pred - 90.1).abs() < 0.2,
            "90th pct of 1..=100 ≈ 90.1, got {pred}"
        );
    }

    #[test]
    fn no_prediction_before_first_epoch() {
        let p = DemandPredictor::paper_default(2);
        assert!(p.predict(FlowId(0)).is_none());
    }

    #[test]
    fn prediction_carries_over_when_idle() {
        let mut p = DemandPredictor::paper_default(1);
        p.observe(FlowId(0), 10.0);
        p.roll_epoch();
        assert_eq!(p.predict(FlowId(0)), Some(10.0));
        // Next epoch: no samples → prediction survives.
        p.roll_epoch();
        assert_eq!(p.predict(FlowId(0)), Some(10.0));
    }

    #[test]
    fn epoch_resets_samples() {
        let mut p = DemandPredictor::paper_default(1);
        p.observe(FlowId(0), 100.0);
        p.roll_epoch();
        p.observe(FlowId(0), 10.0);
        p.observe(FlowId(0), 10.0);
        p.roll_epoch();
        // New epoch only sees the 10s.
        assert_eq!(p.predict(FlowId(0)), Some(10.0));
    }

    #[test]
    fn glitched_samples_are_rejected_not_fatal() {
        let mut p = DemandPredictor::paper_default(1);
        assert!(!p.observe(FlowId(0), -3.0));
        assert!(!p.observe(FlowId(0), f64::NAN));
        assert!(!p.observe(FlowId(0), f64::INFINITY));
        assert!(p.observe(FlowId(0), 25.0));
        p.roll_epoch();
        // Only the valid sample counted.
        assert_eq!(p.predict(FlowId(0)), Some(25.0));
    }

    #[test]
    fn outliers_are_shaved_by_quantile() {
        let mut p = DemandPredictor::paper_default(1);
        for _ in 0..99 {
            p.observe(FlowId(0), 50.0);
        }
        p.observe(FlowId(0), 100_000.0); // one outlier burst
        p.roll_epoch();
        let pred = p.predict(FlowId(0)).unwrap();
        assert!(
            pred < 100.0,
            "90th percentile should ignore the outlier, got {pred}"
        );
    }
}
