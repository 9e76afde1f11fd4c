//! Gridded discrete probability mass functions.
//!
//! EPRONS-Server models each request's **work** (in giga-cycles) as a PMF on
//! a uniform grid. The violation probability of a request under frequency
//! `f` and deadline `D` is the CCDF of its *equivalent* work distribution at
//! `ω(D) = f · (D − T_start)` (paper eq. 1); equivalent distributions are
//! formed by [`Pmf::convolve`].

use crate::conv;

/// Relative tolerance when checking that two PMFs share a grid step.
const STEP_TOL: f64 = 1e-9;

/// A probability mass function on the uniform grid
/// `value(i) = origin + i · step`.
///
/// ```
/// use eprons_num::Pmf;
/// // A fair die, and the sum of two dice by convolution.
/// let die = Pmf::from_masses(1.0, 1.0, vec![1.0; 6]);
/// let two = die.convolve(&die);
/// assert!((two.mean() - 7.0).abs() < 1e-12);
/// // Violation probability at a "deadline" of 10 pips:
/// assert!((two.ccdf(10.0) - 3.0 / 36.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    origin: f64,
    step: f64,
    mass: Vec<f64>,
}

impl Pmf {
    /// Builds a PMF from raw (non-negative) masses, normalizing them to sum
    /// to one.
    ///
    /// # Panics
    /// Panics if `step <= 0`, `mass` is empty, any mass is negative/NaN, or
    /// the total mass is zero.
    pub fn from_masses(origin: f64, step: f64, mass: Vec<f64>) -> Self {
        assert!(step > 0.0, "PMF step must be positive");
        assert!(!mass.is_empty(), "PMF must have at least one bin");
        assert!(
            mass.iter().all(|&m| m >= 0.0 && m.is_finite()),
            "PMF masses must be non-negative and finite"
        );
        let total: f64 = mass.iter().sum();
        assert!(total > 0.0, "PMF must have positive total mass");
        let mass = mass.into_iter().map(|m| m / total).collect();
        Pmf { origin, step, mass }
    }

    /// A degenerate PMF: all mass at `value` (represented on a grid of the
    /// given `step`).
    pub fn delta(value: f64, step: f64) -> Self {
        Pmf::from_masses(value, step, vec![1.0])
    }

    /// Histograms `samples` into bins of width `step` and returns the
    /// resulting PMF. Bin centers are aligned so the minimum sample falls at
    /// the center of bin 0.
    ///
    /// # Panics
    /// Panics if `samples` is empty or `step <= 0`.
    pub fn from_samples(samples: &[f64], step: f64) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(step > 0.0, "PMF step must be positive");
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let nbins = (((max - min) / step).floor() as usize) + 1;
        let mut mass = vec![0.0; nbins];
        for &s in samples {
            let idx = (((s - min) / step).round() as usize).min(nbins - 1);
            mass[idx] += 1.0;
        }
        Pmf::from_masses(min, step, mass)
    }

    /// The grid step.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Value of the first bin center.
    #[inline]
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// Number of bins.
    #[inline]
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// `true` iff the PMF has no bins (never true for a constructed PMF).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// The masses, indexed by bin.
    #[inline]
    pub fn masses(&self) -> &[f64] {
        &self.mass
    }

    /// Value at bin `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> f64 {
        self.origin + i as f64 * self.step
    }

    /// Largest grid value carrying mass.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.value_at(self.mass.len() - 1)
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &m)| m * self.value_at(i))
            .sum()
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let d = self.value_at(i) - mu;
                m * d * d
            })
            .sum()
    }

    /// `P(X <= x)`, piecewise-linear between bin centers (so that the CCDF —
    /// and therefore the violation probability as a function of frequency —
    /// is continuous, which the paper's Fig. 5 depicts and which makes the
    /// binary search over frequencies well behaved).
    pub fn cdf(&self, x: f64) -> f64 {
        self.prefix().cdf(x)
    }

    /// `P(X > x)` — the violation probability when `x = ω(D)`.
    #[inline]
    pub fn ccdf(&self, x: f64) -> f64 {
        self.prefix().ccdf(x)
    }

    /// The whole PMF as a [`PmfPrefix`].
    fn prefix(&self) -> PmfPrefix<'_> {
        PmfPrefix {
            origin: self.origin,
            step: self.step,
            len: self.mass.len(),
            mass: &self.mass,
        }
    }

    /// Smallest grid value `v` with `P(X <= v) >= p` (a staircase quantile).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile level must be in [0,1]");
        let mut cum = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            cum += m;
            if cum >= p - 1e-12 {
                return self.value_at(i);
            }
        }
        self.max_value()
    }

    /// Convolution: the distribution of the sum of two independent
    /// variables. Both PMFs must share the same grid step.
    ///
    /// # Panics
    /// Panics if the steps differ by more than a relative `1e-9`.
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        self.prepare().convolve(other)
    }

    /// This PMF as the left operand of many convolutions: its spectrum is
    /// computed once per FFT size (see [`conv::Prepared`]), and each
    /// result equals [`Pmf::convolve`]'s to the bit.
    pub fn prepare(&self) -> PreparedPmf<'_> {
        PreparedPmf {
            pmf: self,
            op: conv::Prepared::new(&self.mass),
        }
    }

    /// Shifts every value by `dx` (e.g. adding a deterministic overhead to a
    /// work distribution).
    pub fn shift(&self, dx: f64) -> Pmf {
        Pmf {
            origin: self.origin + dx,
            step: self.step,
            mass: self.mass.clone(),
        }
    }

    /// Drops leading/trailing bins whose cumulative mass is below `eps` and
    /// renormalizes. Keeps equivalent-request distributions from growing
    /// unboundedly as convolutions accumulate.
    pub fn truncated(&self, eps: f64) -> Pmf {
        self.truncated_with_lo(eps).0
    }

    /// [`Pmf::truncated`] and the number `lo` of leading bins it dropped:
    /// the result's masses depend only on `self`'s, and its origin is
    /// `self.value_at(lo)`.
    pub fn truncated_with_lo(&self, eps: f64) -> (Pmf, usize) {
        let mut lo = 0usize;
        let mut cum = 0.0;
        while lo + 1 < self.mass.len() && cum + self.mass[lo] < eps / 2.0 {
            cum += self.mass[lo];
            lo += 1;
        }
        let mut hi = self.mass.len();
        cum = 0.0;
        while hi > lo + 1 && cum + self.mass[hi - 1] < eps / 2.0 {
            cum += self.mass[hi - 1];
            hi -= 1;
        }
        let pmf = Pmf::from_masses(self.value_at(lo), self.step, self.mass[lo..hi].to_vec());
        (pmf, lo)
    }

    /// Samples a value using the provided uniform(0,1) draw, with linear
    /// jitter inside the chosen bin. Deterministic in `u`.
    pub fn sample_with(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        let mut cum = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            if u < cum + m {
                let frac = if m > 0.0 { (u - cum) / m } else { 0.5 };
                return self.value_at(i) + (frac - 0.5) * self.step;
            }
            cum += m;
        }
        self.max_value()
    }

    /// Conditional distribution of the *remaining* value given that at least
    /// `done` has already been consumed: `P(X - done = v | X > done)`.
    ///
    /// This is the paper's request-arrival-instance model (§III-B): when a
    /// request arrives while `R0` is mid-service, the in-flight request is
    /// replaced by `R0e`, whose distribution is the work left of `R0`.
    ///
    /// Returns the result with the first bin of `self` it keeps, `start`:
    /// `0` when `done <= origin` (the whole PMF, shifted), else the first
    /// bin above `done`. The result's masses depend on `done` only through
    /// `start`, so `start` classifies conditioned distributions by their
    /// masses.
    ///
    /// Returns `None` if `P(X > done)` is (numerically) zero.
    pub fn remaining_given_done(&self, done: f64) -> Option<(usize, Pmf)> {
        if done <= self.origin {
            // All mass already lies above `done`: no conditioning needed.
            return Some((0, self.shift(-done)));
        }
        // First bin index with value strictly greater than `done`.
        let start = (((done - self.origin) / self.step).floor() as usize) + 1;
        if start >= self.mass.len() {
            return None;
        }
        let tail: Vec<f64> = self.mass[start..].to_vec();
        if tail.iter().sum::<f64>() <= 0.0 {
            return None;
        }
        let rem = Pmf::from_masses(self.value_at(start) - done, self.step, tail);
        Some((start, rem))
    }
}

/// The grid of a PMF and a prefix of its masses: enough to evaluate
/// [`Pmf::cdf`] at every `x` whose reads stay inside the prefix
/// ([`PmfPrefix::bins_read`]), with the same bits, since `Pmf::cdf` is
/// this code on the whole PMF.
#[derive(Debug, Clone, Copy)]
pub struct PmfPrefix<'a> {
    /// Value of the first bin center.
    pub origin: f64,
    /// The grid step.
    pub step: f64,
    /// Number of bins of the whole PMF.
    pub len: usize,
    /// Its first masses, at most `len` of them.
    pub mass: &'a [f64],
}

impl PmfPrefix<'_> {
    /// [`Pmf::cdf`].
    ///
    /// # Panics
    /// Panics if it reads past the kept masses: `mass.len() <
    /// bins_read(x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.cdf_by(x, |i| {
            let mut cum = 0.0;
            for &m in &self.mass[..=i] {
                cum += m;
            }
            cum
        })
    }

    /// [`Pmf::ccdf`]; panics where [`PmfPrefix::cdf`] does.
    #[inline]
    pub fn ccdf(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// [`PmfPrefix::cdf`] to the bit, reading the cumulative mass up to a
    /// bin from `cum`, the prefix's [`running_sums`], instead of adding
    /// it up: O(1) per query.
    ///
    /// # Panics
    /// Panics where [`PmfPrefix::cdf`] does, or if `cum` is shorter than
    /// the masses it reads.
    #[inline]
    pub fn cdf_summed(&self, cum: &[f64], x: f64) -> f64 {
        self.cdf_by(x, |i| cum[i])
    }

    /// [`PmfPrefix::ccdf`] by [`PmfPrefix::cdf_summed`].
    #[inline]
    pub fn ccdf_summed(&self, cum: &[f64], x: f64) -> f64 {
        (1.0 - self.cdf_summed(cum, x)).clamp(0.0, 1.0)
    }

    /// The CDF at `x`, given the cumulative mass `sum_to(i)` of bins
    /// `..= i`.
    #[inline]
    fn cdf_by(&self, x: f64, sum_to: impl FnOnce(usize) -> f64) -> f64 {
        if x < self.origin {
            return 0.0;
        }
        if x >= self.max_value() {
            return 1.0;
        }
        let pos = (x - self.origin) / self.step;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        // cumulative mass up to and including bin i, plus a linear share of
        // bin i+1's mass.
        let next = if i + 1 < self.len {
            self.mass[i + 1]
        } else {
            0.0
        };
        sum_to(i) + frac * next
    }

    /// How many leading masses `cdf(y)` reads, at most, over all `y ≤ x`:
    /// `cdf` reads bins `..= i + 1` at `i = ⌊(y − origin)/step⌋`, and `i`
    /// cannot fall as `y` falls, since every operation on the way rounds
    /// monotonically.
    pub fn bins_read(&self, x: f64) -> usize {
        if x < self.origin {
            0
        } else if x >= self.max_value() {
            // Below the top, `y` may reach the last bin.
            self.len
        } else {
            let i = ((x - self.origin) / self.step).floor() as usize;
            (i + 2).min(self.len)
        }
    }

    fn max_value(&self) -> f64 {
        self.origin + (self.len - 1) as f64 * self.step
    }
}

/// The running sums `cum[i] = mass[0] + … + mass[i]`, added left to right
/// from `0.0` exactly as [`PmfPrefix::cdf`] adds them, so
/// [`PmfPrefix::cdf_summed`] reads the bits `cdf` computes.
pub fn running_sums(mass: &[f64]) -> Box<[f64]> {
    let mut cum = 0.0;
    mass.iter()
        .map(|&m| {
            cum += m;
            cum
        })
        .collect()
}

/// A [`Pmf`] prepared as the left operand of repeated convolutions; made
/// by [`Pmf::prepare`].
#[derive(Debug)]
pub struct PreparedPmf<'a> {
    pmf: &'a Pmf,
    op: conv::Prepared<'a>,
}

impl PreparedPmf<'_> {
    /// The prepared PMF.
    pub fn pmf(&self) -> &Pmf {
        self.pmf
    }

    /// The distribution of the sum of the prepared PMF and `other`.
    ///
    /// # Panics
    /// Panics if the steps differ by more than a relative `1e-9`.
    pub fn convolve(&mut self, other: &Pmf) -> Pmf {
        self.check_step(other);
        let mass = self.op.convolve(&other.mass);
        self.sum_with(other, mass)
    }

    /// [`PreparedPmf::convolve`] to the bit, with `other`'s spectra cached
    /// in `other_spectra` (see [`conv::Prepared::convolve_cached`]); every
    /// call with the same `other_spectra` must pass the same `other`.
    ///
    /// # Panics
    /// Panics if the steps differ by more than a relative `1e-9`.
    pub fn convolve_cached(
        &mut self,
        other: &Pmf,
        other_spectra: &conv::Spectra,
    ) -> (Pmf, conv::SpectrumUse) {
        self.check_step(other);
        let (mass, used) = self.op.convolve_cached(&other.mass, other_spectra);
        (self.sum_with(other, mass), used)
    }

    fn check_step(&self, other: &Pmf) {
        let step = self.pmf.step;
        assert!(
            (step - other.step).abs() <= STEP_TOL * step.max(other.step),
            "convolving PMFs requires identical grid steps ({} vs {})",
            step,
            other.step
        );
    }

    /// The PMF of the sum given the convolved masses.
    fn sum_with(&self, other: &Pmf, mass: Vec<f64>) -> Pmf {
        Pmf::from_masses(self.pmf.origin + other.origin, self.pmf.step, mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Pmf {
        // Fair six-sided die on values 1..=6 with step 1.
        Pmf::from_masses(1.0, 1.0, vec![1.0; 6])
    }

    #[test]
    fn normalizes_on_construction() {
        let p = Pmf::from_masses(0.0, 0.5, vec![2.0, 6.0]);
        assert!((p.masses()[0] - 0.25).abs() < 1e-12);
        assert!((p.masses()[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn die_moments() {
        let d = die();
        assert!((d.mean() - 3.5).abs() < 1e-12);
        assert!((d.variance() - 35.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn two_dice_convolution() {
        let two = die().convolve(&die());
        assert_eq!(two.len(), 11);
        assert!((two.origin() - 2.0).abs() < 1e-12);
        assert!((two.mean() - 7.0).abs() < 1e-12);
        // P(sum = 7) = 6/36
        assert!((two.masses()[5] - 6.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_ccdf_are_complementary_and_monotone() {
        let d = die();
        let mut prev = -1.0;
        for k in 0..=70 {
            let x = k as f64 * 0.1;
            let c = d.cdf(x);
            assert!((c + d.ccdf(x) - 1.0).abs() < 1e-12);
            assert!(c + 1e-12 >= prev, "CDF must be monotone");
            prev = c;
        }
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(6.0), 1.0);
    }

    #[test]
    fn quantiles_of_die() {
        let d = die();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0 / 6.0), 1.0);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.quantile(1.0), 6.0);
    }

    #[test]
    fn delta_behaviour() {
        let p = Pmf::delta(2.5, 0.1);
        assert_eq!(p.mean(), 2.5);
        assert_eq!(p.ccdf(2.4), 1.0);
        assert_eq!(p.ccdf(2.5), 0.0);
    }

    #[test]
    fn from_samples_centers_on_min() {
        let p = Pmf::from_samples(&[1.0, 1.0, 2.0, 3.0], 1.0);
        assert_eq!(p.origin(), 1.0);
        assert_eq!(p.len(), 3);
        assert!((p.masses()[0] - 0.5).abs() < 1e-12);
        assert!((p.mean() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn shift_moves_support() {
        let d = die().shift(10.0);
        assert!((d.mean() - 13.5).abs() < 1e-12);
        assert_eq!(d.quantile(0.0), 11.0);
    }

    #[test]
    fn truncation_drops_negligible_tails() {
        let mut mass = vec![1e-15; 100];
        mass[50] = 1.0;
        let p = Pmf::from_masses(0.0, 1.0, mass).truncated(1e-9);
        assert_eq!(p.len(), 1);
        assert_eq!(p.origin(), 50.0);
    }

    #[test]
    fn truncation_preserves_bulk_statistics() {
        let d = die().convolve(&die()).convolve(&die());
        let t = d.truncated(1e-12);
        assert!((d.mean() - t.mean()).abs() < 1e-9);
    }

    #[test]
    fn sample_with_hits_support() {
        let d = die();
        for k in 0..100 {
            let u = k as f64 / 100.0;
            let v = d.sample_with(u);
            assert!((0.5..=6.5).contains(&v), "sample {v} outside support");
        }
        // CDF inversion sanity: low u → low values, high u → high values.
        assert!(d.sample_with(0.01) < d.sample_with(0.99));
    }

    #[test]
    fn remaining_given_done_conditional() {
        let d = die();
        // Given X > 3, remaining X-3 is uniform on {1,2,3}.
        let (start, r) = d.remaining_given_done(3.0).unwrap();
        assert_eq!(start, 3);
        assert_eq!(r.origin(), 1.0);
        assert_eq!(r.len(), 3);
        for m in r.masses() {
            assert!((m - 1.0 / 3.0).abs() < 1e-12);
        }
        // Nothing remains past the maximum.
        assert!(d.remaining_given_done(6.0).is_none());
        // Zero work done returns the original distribution.
        let (start, full) = d.remaining_given_done(0.0).unwrap();
        assert_eq!(start, 0);
        assert!((full.mean() - d.mean()).abs() < 1e-12);
        // Two `done` values in one bin keep the same bins, so the same
        // masses, at different origins.
        let (a, ra) = d.remaining_given_done(3.2).unwrap();
        let (b, rb) = d.remaining_given_done(3.9).unwrap();
        assert_eq!(a, b);
        assert_eq!(bits(&ra).2, bits(&rb).2);
        assert_ne!(ra.origin(), rb.origin());
    }

    #[test]
    fn truncated_with_lo_locates_the_kept_bins() {
        let mut mass = vec![1e-15; 10];
        mass[4] = 1.0;
        mass[6] = 1.0;
        let p = Pmf::from_masses(2.0, 0.5, mass);
        let (t, lo) = p.truncated_with_lo(1e-9);
        assert_eq!(lo, 4);
        assert_eq!(t.origin().to_bits(), p.value_at(lo).to_bits());
        assert_eq!(bits(&t), bits(&p.truncated(1e-9)));
    }

    #[test]
    #[should_panic(expected = "identical grid steps")]
    fn convolve_rejects_mismatched_steps() {
        let a = Pmf::from_masses(0.0, 1.0, vec![1.0]);
        let b = Pmf::from_masses(0.0, 0.5, vec![1.0]);
        let _ = a.convolve(&b);
    }

    fn bits(p: &Pmf) -> (u64, u64, Vec<u64>) {
        (
            p.origin().to_bits(),
            p.step().to_bits(),
            p.masses().iter().map(|m| m.to_bits()).collect(),
        )
    }

    #[test]
    fn convolve_is_symmetric_to_the_bit() {
        // The VP engine serves `work ∗ equivalent(i)` from the cached
        // level `equivalent(i) ∗ work`; that is exact only because swapping
        // the operands moves no bit, on either side of the FFT threshold.
        eprons_proplite::cases(64, |g, case| {
            let step = g.f64_in(1.0e-5, 1.0e-3);
            let random = |g: &mut eprons_proplite::Gen, len| {
                Pmf::from_masses(g.f64_in(0.0, 0.05), step, g.vec_f64(len, 0.0, 1.0))
            };
            let la = g.usize_in(1, 160);
            let lb = if g.bool() { la } else { g.usize_in(1, 160) };
            let a = random(g, la);
            let b = random(g, lb);
            assert_eq!(bits(&a.convolve(&b)), bits(&b.convolve(&a)), "case {case}");
            let mut prepared = a.prepare();
            assert_eq!(
                bits(&prepared.convolve(&b)),
                bits(&b.convolve(&a)),
                "case {case}"
            );
        });
    }

    #[test]
    fn a_prefix_reads_what_bins_read_says_with_the_same_bits() {
        eprons_proplite::cases(32, |g, case| {
            let len = g.usize_in(1, 40);
            let p = Pmf::from_masses(g.f64_in(0.0, 0.05), 1.0e-3, g.vec_f64(len, 0.0, 1.0));
            let whole = p.prefix();
            for k in 0..=4 * len + 8 {
                // From below the origin to past the top, off the bin centers.
                let x = p.origin() + (k as f64 - 4.3) * 0.25e-3;
                let need = whole.bins_read(x);
                let prefix = PmfPrefix {
                    mass: &p.masses()[..need],
                    ..whole
                };
                // Every y ≤ x reads inside the prefix, to the same bits.
                for y in [x, x - 0.4e-3, x - 2.0e-3] {
                    let what = format!("case {case}: x {x}, y {y}");
                    assert_eq!(prefix.cdf(y).to_bits(), p.cdf(y).to_bits(), "{what}");
                    assert_eq!(prefix.ccdf(y).to_bits(), p.ccdf(y).to_bits(), "{what}");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_prefix_one_bin_short_panics() {
        let p = die();
        let x = 3.5;
        let need = p.prefix().bins_read(x);
        assert_eq!(need, 4, "cdf(3.5) reads bins 0..=3");
        let short = PmfPrefix {
            mass: &p.masses()[..need - 1],
            ..p.prefix()
        };
        let _ = short.cdf(x);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let _ = Pmf::from_masses(0.0, 0.0, vec![1.0]);
    }
}
