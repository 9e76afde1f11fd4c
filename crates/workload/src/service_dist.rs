//! Synthetic Xapian-like service-time logs.
//!
//! The paper builds each ISN's service-time distribution by running 100 K
//! random queries against Xapian over the English Wikipedia index and
//! logging processing times (§V-A). The synthetic stand-in is a two-mode
//! log-normal mixture — a fast mode (index hits resolved from memory) and
//! a slower heavy-tailed mode (multi-term queries walking long posting
//! lists) — which preserves what the evaluation actually consumes: a
//! millisecond-scale, heavy-tailed PDF (see DESIGN.md's substitution
//! table).

use eprons_sim::SimRng;

/// Parameters of the two-mode log-normal mixture.
#[derive(Debug, Clone)]
struct XapianLikeParams {
    /// Probability of the fast mode.
    pub fast_weight: f64,
    /// Fast-mode median, seconds.
    pub fast_median_s: f64,
    /// Fast-mode log-σ.
    pub fast_sigma: f64,
    /// Slow-mode median, seconds.
    pub slow_median_s: f64,
    /// Slow-mode log-σ.
    pub slow_sigma: f64,
    /// Hard cap on a single service time, seconds.
    pub cap_s: f64,
}

impl Default for XapianLikeParams {
    fn default() -> Self {
        XapianLikeParams {
            fast_weight: 0.7,
            fast_median_s: 3.0e-3,
            fast_sigma: 0.35,
            slow_median_s: 7.0e-3,
            slow_sigma: 0.45,
            cap_s: 60.0e-3,
        }
    }
}

/// Draws `n` service-time samples (seconds, at maximum frequency) from the
/// mixture — the synthetic "100 K query log".
pub fn xapian_like_samples(rng: &mut SimRng, n: usize) -> Vec<f64> {
    xapian_like_samples_with(rng, n, &XapianLikeParams::default())
}

/// As [`xapian_like_samples`] with explicit parameters.
fn xapian_like_samples_with(rng: &mut SimRng, n: usize, p: &XapianLikeParams) -> Vec<f64> {
    let fast = (p.fast_median_s.ln(), p.fast_sigma);
    let slow = (p.slow_median_s.ln(), p.slow_sigma);
    (0..n)
        .map(|_| {
            let (mu, sigma) = if rng.bernoulli(p.fast_weight) {
                fast
            } else {
                slow
            };
            rng.lognormal(mu, sigma).min(p.cap_s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eprons_num::quantile::percentile;

    #[test]
    fn samples_are_millisecond_scale() {
        let mut rng = SimRng::seed_from_u64(41);
        let s = xapian_like_samples(&mut rng, 50_000);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!(
            (2.0e-3..10.0e-3).contains(&mean),
            "mean service time {mean}"
        );
        assert!(s.iter().all(|&x| x > 0.0 && x <= 60.0e-3));
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let mut rng = SimRng::seed_from_u64(42);
        let s = xapian_like_samples(&mut rng, 50_000);
        let p50 = percentile(&s, 0.5);
        let p95 = percentile(&s, 0.95);
        let p99 = percentile(&s, 0.99);
        assert!(p95 > 2.0 * p50, "p95 {p95} vs p50 {p50}");
        assert!(p99 > p95, "p99 {p99} vs p95 {p95}");
    }

    #[test]
    fn mixture_is_bimodal_in_the_right_places() {
        let mut rng = SimRng::seed_from_u64(43);
        let s = xapian_like_samples(&mut rng, 50_000);
        // Roughly 70% of mass near the fast mode.
        let fast = s.iter().filter(|&&x| x < 5.0e-3).count() as f64 / s.len() as f64;
        assert!((0.5..0.8).contains(&fast), "fast fraction {fast}");
    }

    #[test]
    fn deterministic_in_seed() {
        let mut r1 = SimRng::seed_from_u64(44);
        let mut r2 = SimRng::seed_from_u64(44);
        assert_eq!(
            xapian_like_samples(&mut r1, 100),
            xapian_like_samples(&mut r2, 100)
        );
    }

    #[test]
    fn cap_is_enforced() {
        let mut rng = SimRng::seed_from_u64(45);
        let p = XapianLikeParams {
            cap_s: 5.0e-3,
            ..Default::default()
        };
        let s = xapian_like_samples_with(&mut rng, 10_000, &p);
        assert!(s.iter().all(|&x| x <= 5.0e-3));
    }
}
