//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! The EPRONS-Server violation-probability engine convolves per-request
//! work distributions (§III-B of the paper); the paper notes that one
//! FFT-based convolution costs ≈20 µs on their machine (§III-C). This module
//! supplies that FFT, written from scratch: in-place, power-of-two length,
//! with precomputed twiddle tables available through [`FftPlan`] for the hot
//! path.

use crate::complex::Complex;

/// Returns the smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Bit-reversal permutation applied in place. `data.len()` must be a power
/// of two.
fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let shift = n.leading_zeros() + 1;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if j > i {
            data.swap(i, j);
        }
    }
}

/// In-place forward FFT. `data.len()` must be a power of two.
///
/// Computes `X[k] = Σ_j x[j] e^{-2πi jk/N}` (the engineering sign
/// convention).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    fft_dir(data, false);
}

/// In-place inverse FFT including the `1/N` normalization, so that
/// `ifft(fft(x)) == x`.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    fft_dir(data, true);
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(1.0 / n);
    }
}

fn fft_dir(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    bit_reverse_permute(data);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Precomputes the twiddle factors for every butterfly stage so repeated
/// transforms of the same size (the common case when convolving many work
/// PMFs binned on the same grid) avoid recomputing sines and cosines.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Twiddles for the forward transform, concatenated per stage:
    /// stage with half-length `h` contributes `h` entries.
    twiddles: Vec<Complex>,
    /// The bit-reversal permutation as its swaps `(i, j)`, `i < j`, in
    /// the order [`bit_reverse_permute`] makes them.
    swaps: Vec<(u32, u32)>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n` (must be a power of two).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let mut twiddles = Vec::new();
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex::cis(ang * k as f64));
            }
            len <<= 1;
        }
        assert!(
            u32::try_from(n - 1).is_ok(),
            "FFT length must fit u32 indices"
        );
        let shift = n.leading_zeros() + 1;
        let swaps = (0..n)
            .map(|i| (i, i.reverse_bits() >> shift))
            .filter(|&(i, j)| j > i)
            .map(|(i, j)| (i as u32, j as u32))
            .collect();
        FftPlan { n, twiddles, swaps }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` iff the plan length is zero (never; kept for clippy's
    /// `len_without_is_empty`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward transform using the precomputed twiddles.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.run(data, false);
    }

    /// Inverse transform (normalized by `1/N`).
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.run(data, true);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }

    fn run(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length must match plan length");
        if self.n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        // The inverse branch is hoisted out of the butterflies: each arm
        // monomorphizes its own loop nest. Twiddles and operation order are
        // those of the textbook indexed loop, so the bits are too.
        if inverse {
            self.stages(data, Complex::conj);
        } else {
            self.stages(data, |tw| tw);
        }
    }

    /// Every butterfly stage over bit-reversed `data`, with `twiddle`
    /// mapping each stored (forward) twiddle to the one applied.
    #[inline(always)]
    fn stages(&self, data: &mut [Complex], twiddle: impl Fn(Complex) -> Complex) {
        let mut half = 1;
        let mut toff = 0;
        while half < self.n {
            let tws = &self.twiddles[toff..toff + half];
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(tws) {
                    let u = *a;
                    let v = *b * twiddle(tw);
                    *a = u + v;
                    *b = u - v;
                }
            }
            toff += half;
            half <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn as_complex(v: &[f64]) -> Vec<Complex> {
        v.iter().map(|&x| Complex::from_real(x)).collect()
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// Naive O(n²) DFT used as a reference.
    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    acc += xj * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let x = as_complex(&[1.0, 2.0, -1.0, 0.5, 3.0, -2.5, 0.0, 1.5]);
        let mut fast = x.clone();
        fft_in_place(&mut fast);
        let slow = dft_naive(&x);
        assert!(max_err(&fast, &slow) < 1e-9);
    }

    #[test]
    fn round_trip_identity() {
        for log2n in 0..=10 {
            let n = 1usize << log2n;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
                .collect();
            let mut y = x.clone();
            fft_in_place(&mut y);
            ifft_in_place(&mut y);
            assert!(max_err(&x, &y) < 1e-9, "round-trip failed at n={n}");
        }
    }

    #[test]
    fn plan_matches_free_functions() {
        let n = 256;
        let plan = FftPlan::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut a = x.clone();
        let mut b = x.clone();
        fft_in_place(&mut a);
        plan.forward(&mut b);
        assert!(max_err(&a, &b) < 1e-10);
        ifft_in_place(&mut a);
        plan.inverse(&mut b);
        assert!(max_err(&a, &b) < 1e-10);
        assert!(max_err(&a, &x) < 1e-9);
    }

    /// The indexed butterfly loop `FftPlan::run` replaced, kept as the
    /// bit-level reference for the slice-based rewrite.
    fn run_indexed(plan: &FftPlan, data: &mut [Complex], inverse: bool) {
        let n = plan.n;
        if n <= 1 {
            return;
        }
        bit_reverse_permute(data);
        let mut len = 2;
        let mut toff = 0;
        while len <= n {
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = plan.twiddles[toff + k];
                    let w = if inverse { tw.conj() } else { tw };
                    let u = data[start + k];
                    let v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                }
            }
            toff += half;
            len <<= 1;
        }
        if inverse {
            let inv = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }

    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    #[test]
    fn plan_is_bit_identical_to_the_indexed_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for log2n in 1..=14 {
            let n = 1usize << log2n;
            let plan = FftPlan::new(n);
            let x: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
            for inverse in [false, true] {
                let mut fast = x.clone();
                if inverse {
                    plan.inverse(&mut fast);
                } else {
                    plan.forward(&mut fast);
                }
                let mut reference = x.clone();
                run_indexed(&plan, &mut reference, inverse);
                assert_eq!(bits(&fast), bits(&reference), "n={n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut x = vec![Complex::ZERO; n];
        x[0] = Complex::ONE;
        fft_in_place(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parsevals_theorem_holds() {
        let x = as_complex(&[0.3, -1.2, 2.5, 0.0, 1.1, -0.4, 0.9, 2.2]);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut f = x.clone();
        fft_in_place(&mut f);
        let freq_energy: f64 = f.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn next_pow2_behaviour() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_panics() {
        let mut x = vec![Complex::ZERO; 12];
        fft_in_place(&mut x);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (i % 5) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        fft_in_place(&mut fa);
        fft_in_place(&mut fb);
        fft_in_place(&mut fsum);
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&combined, &fsum) < 1e-9);
    }
}
