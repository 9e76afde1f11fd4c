//! The utilization→latency model with the queueing knee (paper Fig. 1).
//!
//! The paper measures average search-query latency against link utilization
//! and finds an M/M/1-shaped curve: flat (≈139 µs) at low utilization, then
//! exploding past a knee (to ≈11.981 ms). We model mean per-hop latency as
//!
//! ```text
//! mean(u) = base + coeff · u / (1 − u)        (u clamped below u_max)
//! ```
//!
//! and draw per-hop latencies as the deterministic `base` (transmission +
//! propagation, which does not fluctuate) plus an exponential *queueing*
//! term with mean `coeff · u/(1−u)` — the M/M/1 waiting-time shape. Path
//! latency is a sum of independent per-hop draws, so *tail* latencies
//! emerge naturally and explode past the knee (the partition–aggregate
//! maximum over 15 ISN replies amplifies them further, exactly the effect
//! the paper's Figs. 10–11 show).

use eprons_sim::SimRng;

/// Calibrated utilization→latency model.
///
/// ```
/// use eprons_net::LatencyModel;
/// let m = LatencyModel::default(); // Fig. 1 calibration
/// assert!((m.per_hop_mean_us(0.0) - 139.0).abs() < 1e-9);
/// assert!(m.per_hop_mean_us(0.98) > 11_000.0); // past the knee
/// ```
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Per-hop latency at zero utilization, in microseconds.
    pub base_us: f64,
    /// Queueing coefficient in microseconds (multiplies `u/(1-u)`).
    pub queue_coeff_us: f64,
    /// Utilization clamp; queueing delay is evaluated at
    /// `min(u, max_utilization)`.
    pub max_utilization: f64,
}

impl Default for LatencyModel {
    /// Calibration matching Fig. 1: ≈139 µs in the flat region and
    /// ≈11.98 ms at 98 % utilization (139 + 241.5 · 0.98/0.02 ≈ 11 973 µs).
    fn default() -> Self {
        LatencyModel {
            base_us: 139.0,
            queue_coeff_us: 241.5,
            max_utilization: 0.98,
        }
    }
}

impl LatencyModel {
    /// Mean per-hop latency in microseconds at utilization `u`.
    pub fn per_hop_mean_us(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, self.max_utilization);
        self.base_us + self.queue_coeff_us * u / (1.0 - u)
    }

    /// Samples a one-way path latency in microseconds: per hop, the
    /// deterministic base plus an exponential queueing delay whose mean is
    /// the utilization-dependent `coeff · u/(1−u)`.
    pub fn sample_path_latency_us(&self, rng: &mut SimRng, utilizations: &[f64]) -> f64 {
        utilizations
            .iter()
            .map(|&u| {
                let queue_mean = self.per_hop_mean_us(u) - self.base_us;
                if queue_mean <= 0.0 {
                    self.base_us
                } else {
                    self.base_us + rng.exponential(1.0 / queue_mean)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_region_matches_fig1() {
        let m = LatencyModel::default();
        assert!((m.per_hop_mean_us(0.0) - 139.0).abs() < 1e-9);
        // At 20% the paper calls latency "well behaved".
        assert!(m.per_hop_mean_us(0.2) < 200.0);
    }

    #[test]
    fn knee_explodes_like_fig1() {
        let m = LatencyModel::default();
        let high = m.per_hop_mean_us(0.98);
        assert!(
            (high - 11_972.5).abs() < 60.0,
            "98% utilization should be ≈11.97 ms, got {high} µs"
        );
        // Past the clamp it stays put.
        assert_eq!(m.per_hop_mean_us(1.5), high);
    }

    #[test]
    fn monotone_in_utilization() {
        let m = LatencyModel::default();
        let mut prev = 0.0;
        for k in 0..=98 {
            let u = k as f64 / 100.0;
            let lat = m.per_hop_mean_us(u);
            assert!(lat >= prev);
            prev = lat;
        }
    }

    #[test]
    fn sampled_latency_matches_mean() {
        let m = LatencyModel::default();
        let mut rng = SimRng::seed_from_u64(7);
        let utils = [0.2, 0.2, 0.2, 0.2];
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_path_latency_us(&mut rng, &utils))
            .sum::<f64>()
            / n as f64;
        let expect: f64 = utils.iter().map(|&u| m.per_hop_mean_us(u)).sum();
        assert!(
            (mean - expect).abs() / expect < 0.03,
            "sampled mean {mean} vs expected {expect}"
        );
    }

    #[test]
    fn sampled_latency_has_heavier_tail_at_high_util() {
        let m = LatencyModel::default();
        let mut rng = SimRng::seed_from_u64(8);
        let n = 20_000;
        let p99 = |rng: &mut SimRng, u: f64| {
            let mut v: Vec<f64> = (0..n)
                .map(|_| m.sample_path_latency_us(rng, &[u; 6]))
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[(0.99 * n as f64) as usize]
        };
        let low = p99(&mut rng, 0.1);
        let high = p99(&mut rng, 0.9);
        assert!(
            high > 5.0 * low,
            "tail must explode past knee: {low} vs {high}"
        );
    }
}
