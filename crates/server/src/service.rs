//! The frequency-dependent service model.
//!
//! Following Rubik (which the paper adopts in footnote 1), a request's
//! service time at core frequency `f` decomposes into a
//! frequency-independent part (memory stalls, I/O) and a scalable part:
//!
//! ```text
//! t(f) = t_fixed + work / f       (work in giga-cycles, f in GHz)
//! ```
//!
//! The *work* is random with a measured distribution; the paper measures
//! Xapian over a Wikipedia index (100 K queries, §V-A). Our synthetic
//! equivalent is log-normal (see DESIGN.md), converted to a work PMF here.

use eprons_num::Pmf;
use eprons_sim::SimRng;

/// Service model: fixed time plus PMF-distributed scalable work.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Distribution of scalable work in giga-cycles.
    work_pmf: Pmf,
    /// Frequency-independent seconds per request.
    fixed_s: f64,
}

impl ServiceModel {
    /// Builds a model from a work PMF (giga-cycles) and fixed time.
    ///
    /// # Panics
    /// Panics if `fixed_s` is negative.
    pub fn new(work_pmf: Pmf, fixed_s: f64) -> Self {
        assert!(fixed_s >= 0.0, "fixed service time cannot be negative");
        ServiceModel { work_pmf, fixed_s }
    }

    /// Builds a model from service-*time* samples measured at `f_max`,
    /// treating a fraction `fixed_fraction` of the *mean* service time as
    /// frequency-independent. `bins` controls PMF resolution.
    ///
    /// # Panics
    /// Panics on empty samples, `fixed_fraction ∉ [0,1)`, or `bins == 0`.
    pub fn from_time_samples(
        samples_at_fmax_s: &[f64],
        fixed_fraction: f64,
        f_max_ghz: f64,
        bins: usize,
    ) -> Self {
        assert!(!samples_at_fmax_s.is_empty(), "need samples");
        assert!(
            (0.0..1.0).contains(&fixed_fraction),
            "fixed fraction must be in [0,1)"
        );
        assert!(bins > 0, "need at least one PMF bin");
        let mean: f64 = samples_at_fmax_s.iter().sum::<f64>() / samples_at_fmax_s.len() as f64;
        let fixed_s = fixed_fraction * mean;
        // Scalable work of each sample, in giga-cycles.
        let works: Vec<f64> = samples_at_fmax_s
            .iter()
            .map(|&t| ((t - fixed_s).max(0.0)) * f_max_ghz)
            .collect();
        let max_w = works.iter().cloned().fold(0.0, f64::max).max(1e-9);
        let step = (max_w / bins as f64).max(1e-9);
        ServiceModel {
            work_pmf: Pmf::from_samples(&works, step),
            fixed_s,
        }
    }

    /// A synthetic Xapian-like model (see DESIGN.md): log-normal service
    /// time with ≈4 ms median and σ = 0.5 at 2.7 GHz, 20 % fixed.
    /// `n_samples` controls the fidelity of the derived PMF.
    pub fn synthetic_xapian(rng: &mut SimRng, n_samples: usize, bins: usize) -> Self {
        let samples: Vec<f64> = (0..n_samples.max(2))
            .map(|_| rng.lognormal((4.0e-3f64).ln(), 0.5).min(60.0e-3))
            .collect();
        Self::from_time_samples(&samples, 0.2, 2.7, bins)
    }

    /// The scalable-work distribution (giga-cycles).
    #[inline]
    pub fn work_pmf(&self) -> &Pmf {
        &self.work_pmf
    }

    /// Frequency-independent seconds.
    #[inline]
    pub fn fixed_s(&self) -> f64 {
        self.fixed_s
    }

    /// Service time of a request with `work` giga-cycles at `f_ghz`.
    ///
    /// # Panics
    /// Panics if `f_ghz <= 0`.
    fn service_time(&self, work: f64, f_ghz: f64) -> f64 {
        assert!(f_ghz > 0.0, "frequency must be positive");
        self.fixed_s + work / f_ghz
    }

    /// Mean service time at `f_ghz`.
    pub fn mean_service_time(&self, f_ghz: f64) -> f64 {
        self.service_time(self.work_pmf.mean(), f_ghz)
    }

    /// Samples one request's scalable work (giga-cycles).
    pub fn sample_work(&self, rng: &mut SimRng) -> f64 {
        self.work_pmf.sample_with(rng.uniform()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_formula() {
        let m = ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-4), 1.0e-3);
        // 2.7e-3 Gcycles at 2.7 GHz = 1 ms; plus 1 ms fixed.
        assert!((m.service_time(2.7e-3, 2.7) - 2.0e-3).abs() < 1e-12);
        // At 1.35 GHz the scalable part doubles.
        assert!((m.service_time(2.7e-3, 1.35) - 3.0e-3).abs() < 1e-12);
    }

    #[test]
    fn slowdown_only_affects_scalable_part() {
        let m = ServiceModel::new(Pmf::delta(5.4e-3, 1.0e-4), 2.0e-3);
        let t_fast = m.service_time(5.4e-3, 2.7);
        let t_slow = m.service_time(5.4e-3, 1.2);
        // Fixed part is unchanged; scalable part scales by 2.7/1.2.
        assert!((t_fast - (2.0e-3 + 2.0e-3)).abs() < 1e-12);
        assert!((t_slow - (2.0e-3 + 4.5e-3)).abs() < 1e-12);
    }

    #[test]
    fn from_time_samples_round_trip() {
        // All requests take exactly 10 ms at 2.7 GHz, 20% fixed.
        let samples = vec![10.0e-3; 100];
        let m = ServiceModel::from_time_samples(&samples, 0.2, 2.7, 64);
        assert!((m.fixed_s() - 2.0e-3).abs() < 1e-9);
        // Work = 8 ms × 2.7 GHz = 21.6 Gcycles; service at fmax ≈ 10 ms.
        assert!((m.mean_service_time(2.7) - 10.0e-3).abs() < 1e-4);
        // At half frequency the scalable part doubles: 2 + 16 = 18 ms.
        assert!((m.mean_service_time(1.35) - 18.0e-3).abs() < 2e-4);
    }

    #[test]
    fn synthetic_xapian_statistics() {
        let mut rng = SimRng::seed_from_u64(11);
        let m = ServiceModel::synthetic_xapian(&mut rng, 20_000, 256);
        let mean = m.mean_service_time(2.7);
        // Log-normal(ln 4ms, 0.5) has mean 4ms·e^{0.125} ≈ 4.53 ms.
        assert!(
            (3.5e-3..6.0e-3).contains(&mean),
            "unexpected mean service time {mean}"
        );
        assert!(m.fixed_s() > 0.0);
        // The tail must be heavy: p95 of work well above the mean.
        let p95 = m.work_pmf().quantile(0.95);
        assert!(p95 > 1.5 * m.work_pmf().mean());
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = SimRng::seed_from_u64(12);
        let m = ServiceModel::synthetic_xapian(&mut rng, 10_000, 128);
        let n = 20_000;
        let mean_sampled: f64 = (0..n).map(|_| m.sample_work(&mut rng)).sum::<f64>() / n as f64;
        let mean_pmf = m.work_pmf().mean();
        assert!(
            (mean_sampled - mean_pmf).abs() / mean_pmf < 0.05,
            "sampled {mean_sampled} vs pmf {mean_pmf}"
        );
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        let m = ServiceModel::new(Pmf::delta(1.0, 0.1), 0.0);
        m.service_time(1.0, 0.0);
    }
}
