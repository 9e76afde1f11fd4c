//! Convolution of non-negative real sequences.
//!
//! Convolution is how EPRONS-Server forms *equivalent requests* (§III-A of
//! the paper): the work distribution of the n-th queued request is the
//! convolution of its own work PMF with the PMFs of all requests ahead of
//! it. Small sequences use the direct O(n·m) algorithm; longer ones switch
//! to FFT convolution (the paper's implementation choice, ≈20 µs per
//! convolution).

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::complex::Complex;
use crate::fft::{next_pow2, FftPlan};

/// Combined length at which [`convolve`] switches from the direct
/// algorithm to FFT, pinned by the `crossover_boundary_*` tests. It is not
/// the speed break-even: `bench/benches/numerics.rs` shows the direct loop
/// still ahead at 160×160 taps. It stays where it is because the two
/// algorithms round differently, so moving it would change result bits
/// that every golden pins.
pub const FFT_THRESHOLD: usize = 96;

thread_local! {
    /// Per-thread [`FftPlan`] cache indexed by `log2(n)`. Every equivalent-
    /// request convolution for a given service model hits the same handful
    /// of power-of-two sizes thousands of times per simulated second, so
    /// twiddle tables are built once per thread instead of per call.
    /// Thread-local (not global) to keep the hot path lock-free under the
    /// sharded cluster simulation.
    static PLAN_CACHE: RefCell<Vec<Option<FftPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the cached plan for power-of-two size `n`, building (and
/// retaining) the plan on first use. `f` must not call back into this
/// function (single `RefCell` borrow).
fn with_cached_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    debug_assert!(n.is_power_of_two());
    let idx = n.trailing_zeros() as usize;
    PLAN_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() <= idx {
            cache.resize_with(idx + 1, || None);
        }
        let plan = cache[idx].get_or_insert_with(|| FftPlan::new(n));
        f(plan)
    })
}

/// The distinct plan sizes currently cached on this thread (ascending).
#[cfg(test)]
fn cached_plan_sizes() -> Vec<usize> {
    PLAN_CACHE.with(|c| {
        c.borrow()
            .iter()
            .filter_map(|p| p.as_ref().map(FftPlan::len))
            .collect()
    })
}

/// Drops this thread's cached FFT plans (so tests can observe cold-start
/// behaviour).
#[cfg(test)]
fn clear_plan_cache() {
    PLAN_CACHE.with(|c| c.borrow_mut().clear());
}

/// Direct (schoolbook) linear convolution: `out[k] = Σ_i a[i]·b[k-i]`.
///
/// Returns a vector of length `a.len() + b.len() - 1` (empty if either
/// input is empty). The result does not depend on the operand order, to
/// the bit: see [`Prepared`].
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    // Iterate the shorter sequence on the outside for better locality. At
    // equal lengths the operand with the smaller bit pattern goes outside,
    // so swapping the operands cannot reorder the sums.
    let a_bits_le = || {
        a.iter()
            .map(|x| x.to_bits())
            .le(b.iter().map(|x| x.to_bits()))
    };
    let a_outer = a.len() < b.len() || (a.len() == b.len() && a_bits_le());
    let (outer, inner) = if a_outer { (a, b) } else { (b, a) };
    for (i, &x) in outer.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in inner.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// FFT-based linear convolution with the same contract as
/// [`convolve_direct`].
///
/// Negative floating-point dust (tiny values produced by round-off where the
/// true result is zero or positive) is clamped to `0.0` so probability mass
/// functions stay valid.
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    Prepared::new(a).convolve_fft(b)
}

/// Convolution that picks the direct or FFT algorithm based on input size.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    Prepared::new(a).convolve(b)
}

/// A left operand prepared for convolution with many right operands: its
/// forward spectrum is computed at most once per power-of-two FFT size and
/// reused for every later right operand that needs that size.
///
/// [`convolve`] and [`convolve_fft`] are this type used once, so there is
/// a single convolution code path and a prepared operand gives the same
/// bits as the free functions. Both algorithms are symmetric to the bit:
/// the direct one fixes its summation order independently of the operand
/// order, and the FFT one multiplies spectra pointwise, where each
/// product's real and imaginary parts are commuted products and sums.
#[derive(Debug)]
pub struct Prepared<'a> {
    a: &'a [f64],
    /// Zero-padded forward spectra of `a`, indexed by `log2(n)`.
    spectra: Vec<Option<Vec<Complex>>>,
}

impl<'a> Prepared<'a> {
    /// Prepares `a`; nothing is transformed until a convolution needs it.
    pub fn new(a: &'a [f64]) -> Self {
        Prepared {
            a,
            spectra: Vec::new(),
        }
    }

    /// `true` iff [`convolve`]`(a, b)` takes the direct algorithm: below
    /// [`FFT_THRESHOLD`] combined taps, or when either operand is a single
    /// tap (or empty).
    fn is_direct(&self, b: &[f64]) -> bool {
        self.a.len().min(b.len()) < 2 || self.a.len() + b.len() < FFT_THRESHOLD
    }

    /// [`convolve`]`(a, b)`: the direct algorithm below [`FFT_THRESHOLD`]
    /// combined taps (or when either operand is a single tap), FFT above.
    pub fn convolve(&mut self, b: &[f64]) -> Vec<f64> {
        if self.is_direct(b) {
            convolve_direct(self.a, b)
        } else {
            self.convolve_fft(b)
        }
    }

    /// [`convolve`]`(a, b)` to the bit, with `b`'s spectrum taken from
    /// `b_spectra` (built there on its first use at each FFT size). On the
    /// FFT path a call with a cached `b` spectrum pays one pointwise
    /// product and one inverse transform. Every call with the same
    /// `b_spectra` must pass the same `b`.
    pub fn convolve_cached(&mut self, b: &[f64], b_spectra: &Spectra) -> (Vec<f64>, SpectrumUse) {
        if self.is_direct(b) {
            return (convolve_direct(self.a, b), SpectrumUse::Direct);
        }
        let out_len = self.a.len() + b.len() - 1;
        let n = next_pow2(out_len);
        let mut used = SpectrumUse::Reused;
        let out = with_cached_plan(n, |plan| {
            let fb = b_spectra.slots[n.trailing_zeros() as usize].get_or_init(|| {
                used = SpectrumUse::Built;
                transformed(b, plan).into_boxed_slice()
            });
            let fa = self.spectrum(plan);
            let mut out: Vec<Complex> = fa.iter().zip(fb.iter()).map(|(x, y)| *x * *y).collect();
            plan.inverse(&mut out);
            out
        });
        (real_part(out, out_len), used)
    }

    /// [`convolve_fft`]`(a, b)`, transforming `a` only on the first call
    /// at each FFT size.
    fn convolve_fft(&mut self, b: &[f64]) -> Vec<f64> {
        if self.a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let out_len = self.a.len() + b.len() - 1;
        let n = next_pow2(out_len);
        let out = with_cached_plan(n, |plan| {
            let mut fb = transformed(b, plan);
            for (y, x) in fb.iter_mut().zip(self.spectrum(plan)) {
                *y = *x * *y;
            }
            plan.inverse(&mut fb);
            fb
        });
        real_part(out, out_len)
    }

    /// The forward spectrum of `a` at the plan's size, transformed on
    /// first use.
    fn spectrum(&mut self, plan: &FftPlan) -> &[Complex] {
        let idx = plan.len().trailing_zeros() as usize;
        if self.spectra.len() <= idx {
            self.spectra.resize_with(idx + 1, || None);
        }
        self.spectra[idx].get_or_insert_with(|| transformed(self.a, plan))
    }
}

/// The zero-padded forward spectra of one right operand, built lazily at
/// most once per power-of-two FFT size and shareable across threads; see
/// [`Prepared::convolve_cached`]. Each spectrum is a pure function of the
/// operand and the size, so where it was built never shows in a result.
#[derive(Debug, Default)]
pub struct Spectra {
    /// `slots[log2(n)]`: the spectrum at FFT size `n` (up to 2^31).
    slots: [OnceLock<Box<[Complex]>>; 32],
}

impl Spectra {
    /// Bytes held by the spectra built so far.
    pub fn bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| std::mem::size_of_val(&**s))
            .sum()
    }
}

/// How [`Prepared::convolve_cached`] served its right operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpectrumUse {
    /// The direct algorithm ran; no spectrum was needed.
    Direct,
    /// The FFT ran on a spectrum this call built and cached.
    Built,
    /// The FFT ran on a spectrum an earlier call had cached.
    Reused,
}

/// The forward spectrum of `x` zero-padded to the plan's size.
fn transformed(x: &[f64], plan: &FftPlan) -> Vec<Complex> {
    let mut out = padded(x, plan.len());
    plan.forward(&mut out);
    out
}

/// The first `len` real parts of an inverse transform, with negative
/// round-off dust clamped to zero.
fn real_part(mut z: Vec<Complex>, len: usize) -> Vec<f64> {
    z.truncate(len);
    z.into_iter().map(|z| z.re.max(0.0)).collect()
}

/// `x` as complex values, zero-padded to length `n`.
fn padded(x: &[f64], n: usize) -> Vec<Complex> {
    let mut out = Vec::with_capacity(n);
    out.extend(x.iter().map(|&v| Complex::from_real(v)));
    out.resize(n, Complex::ZERO);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn direct_matches_by_hand() {
        // (1 + 2x)(3 + 4x) = 3 + 10x + 8x²
        assert_close(
            &convolve_direct(&[1.0, 2.0], &[3.0, 4.0]),
            &[3.0, 10.0, 8.0],
            1e-12,
        );
    }

    #[test]
    fn identity_element() {
        let a = [0.25, 0.5, 0.25];
        assert_close(&convolve_direct(&a, &[1.0]), &a, 1e-12);
        assert_close(&convolve_fft(&a, &[1.0]), &a, 1e-9);
    }

    #[test]
    fn empty_inputs_yield_empty() {
        assert!(convolve_direct(&[], &[1.0]).is_empty());
        assert!(convolve_fft(&[1.0], &[]).is_empty());
        assert!(convolve(&[], &[]).is_empty());
    }

    #[test]
    fn fft_matches_direct_on_random_sequences() {
        // Deterministic pseudo-random input (LCG) — no rand dep needed here.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (la, lb) in [(5, 7), (64, 64), (100, 3), (130, 257)] {
            let a: Vec<f64> = (0..la).map(|_| next()).collect();
            let b: Vec<f64> = (0..lb).map(|_| next()).collect();
            let d = convolve_direct(&a, &b);
            let f = convolve_fft(&a, &b);
            assert_close(&d, &f, 1e-8);
        }
    }

    #[test]
    fn convolution_preserves_total_mass() {
        // For PMFs: sum of convolution = product of sums = 1.
        let a = [0.2, 0.3, 0.5];
        let b = [0.1, 0.4, 0.4, 0.1];
        let c = convolve(&a, &b);
        let total: f64 = c.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, 0.25];
        assert_close(&convolve(&a, &b), &convolve(&b, &a), 1e-12);
    }

    #[test]
    fn fft_clamps_negative_dust() {
        let a = vec![1e-30; 200];
        let b = vec![1e-30; 200];
        for v in convolve_fft(&a, &b) {
            assert!(v >= 0.0);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn convolution_is_symmetric_to_the_bit() {
        eprons_proplite::cases(64, |g, case| {
            let la = g.usize_in(1, 200);
            // Equal lengths half the time: the direct algorithm's tie.
            let lb = if g.bool() { la } else { g.usize_in(1, 200) };
            let a = g.vec_f64(la, 0.0, 1.0);
            let b = g.vec_f64(lb, 0.0, 1.0);
            for f in [convolve, convolve_direct, convolve_fft] {
                assert_eq!(bits(&f(&a, &b)), bits(&f(&b, &a)), "case {case}");
            }
        });
    }

    /// FFT convolution that transforms both operands on every call, as
    /// `convolve_fft` did before operands could be prepared: the bit-level
    /// reference for spectrum reuse.
    fn convolve_fft_unprepared(a: &[f64], b: &[f64]) -> Vec<f64> {
        let out_len = a.len() + b.len() - 1;
        let n = next_pow2(out_len);
        let mut fa = padded(a, n);
        let mut fb = padded(b, n);
        let plan = FftPlan::new(n);
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x *= *y;
        }
        plan.inverse(&mut fa);
        fa.truncate(out_len);
        fa.into_iter().map(|z| z.re.max(0.0)).collect()
    }

    #[test]
    fn prepared_operand_matches_fresh_transforms_to_the_bit() {
        eprons_proplite::cases(32, |g, case| {
            let la = g.usize_in(1, 150);
            let a = g.vec_f64(la, 0.0, 1.0);
            let mut prepared = Prepared::new(&a);
            // Several right operands per preparation, so cached spectra
            // are reused across calls and sizes.
            for _ in 0..6 {
                let lb = g.usize_in(1, 300);
                let b = g.vec_f64(lb, 0.0, 1.0);
                let reference = bits(&convolve_fft_unprepared(&a, &b));
                assert_eq!(bits(&prepared.convolve_fft(&b)), reference, "case {case}");
                assert_eq!(bits(&convolve_fft(&a, &b)), reference, "case {case}");
                assert_eq!(
                    bits(&prepared.convolve(&b)),
                    bits(&convolve(&a, &b)),
                    "case {case}"
                );
            }
        });
    }

    #[test]
    fn cached_right_operand_matches_convolve_to_the_bit() {
        eprons_proplite::cases(24, |g, case| {
            // One right operand per case, 1-tap some of the time, whose
            // spectra are cached across every left operand below.
            let lb = *g.choose(&[1, 2, 17, 47, 95, 150]);
            let b = g.vec_f64(lb, 0.0, 1.0);
            let spectra = Spectra::default();
            let mut fft_sizes = Vec::new();
            // Left operands from 1 tap to both sides of the threshold and
            // on to FFT sizes up to 2048; the second pass reuses them all.
            let lens = [
                1,
                2,
                5,
                FFT_THRESHOLD.saturating_sub(lb + 1).max(1),
                FFT_THRESHOLD,
                300,
                700,
                1500,
            ];
            let lefts: Vec<Vec<f64>> = lens.iter().map(|&la| g.vec_f64(la, 0.0, 1.0)).collect();
            for pass in 0..2 {
                for a in &lefts {
                    let (got, used) = Prepared::new(a).convolve_cached(&b, &spectra);
                    assert_eq!(
                        bits(&got),
                        bits(&convolve(a, &b)),
                        "case {case}, {}x{lb}",
                        a.len()
                    );
                    let n = next_pow2(a.len() + lb - 1);
                    let direct = a.len().min(lb) < 2 || a.len() + lb < FFT_THRESHOLD;
                    if !direct {
                        let reference = convolve_fft_unprepared(a, &b);
                        assert_eq!(
                            bits(&got),
                            bits(&reference),
                            "case {case}, {}x{lb}",
                            a.len()
                        );
                    }
                    let expected = if direct {
                        SpectrumUse::Direct
                    } else if pass == 0 && !fft_sizes.contains(&n) {
                        fft_sizes.push(n);
                        SpectrumUse::Built
                    } else {
                        SpectrumUse::Reused
                    };
                    assert_eq!(used, expected, "case {case}, pass {pass}, {}x{lb}", a.len());
                }
            }
            if lb > 1 {
                assert!(fft_sizes.len() >= 3, "case {case}: sizes {fft_sizes:?}");
            }
            let bytes: usize = fft_sizes
                .iter()
                .map(|n| n * std::mem::size_of::<Complex>())
                .sum();
            assert_eq!(spectra.bytes(), bytes);
        });
    }

    #[test]
    fn crossover_boundary_agrees_both_sides() {
        // One tap either side of FFT_THRESHOLD: the dispatcher switches
        // algorithms here, and the results must agree to FFT round-off.
        let half = FFT_THRESHOLD / 2;
        for total in [FFT_THRESHOLD - 1, FFT_THRESHOLD, FFT_THRESHOLD + 1] {
            let a: Vec<f64> = (0..half).map(|i| 1.0 / (i + 1) as f64).collect();
            let b: Vec<f64> = (0..total - half).map(|i| 0.5 / (i + 2) as f64).collect();
            let picked = convolve(&a, &b);
            let direct = convolve_direct(&a, &b);
            assert_close(&picked, &direct, 1e-9);
        }
    }

    #[test]
    fn crossover_boundary_picks_the_right_algorithm() {
        // Observable through the output bits: one tap below the threshold
        // the dispatcher's result is the direct sum's, at it the FFT's.
        let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (total, direct) in [(FFT_THRESHOLD - 2, true), (FFT_THRESHOLD, false)] {
            let x: Vec<f64> = (0..total / 2).map(|i| 1.0 / (i + 3) as f64).collect();
            let by_direct = bits(convolve_direct(&x, &x));
            let by_fft = bits(convolve_fft(&x, &x));
            assert_ne!(by_direct, by_fft, "the operands must tell the paths apart");
            let expected = if direct { by_direct } else { by_fft };
            assert_eq!(bits(convolve(&x, &x)), expected, "total {total}");
        }
    }

    #[test]
    fn plan_cache_is_reused_per_size() {
        clear_plan_cache();
        let a = vec![0.5; 120];
        for _ in 0..10 {
            let _ = convolve_fft(&a, &a);
        }
        // 10 convolutions at one size → one cached plan, not ten.
        assert_eq!(cached_plan_sizes().len(), 1);
        let b = vec![0.5; 600];
        let _ = convolve_fft(&b, &b);
        assert_eq!(cached_plan_sizes().len(), 2);
        clear_plan_cache();
        assert!(cached_plan_sizes().is_empty());
    }
}
