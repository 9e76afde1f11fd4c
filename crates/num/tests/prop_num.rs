//! Property-based tests for the numerics substrate (deterministic seeded
//! cases via `eprons-proplite`).

use eprons_num::complex::Complex;
use eprons_num::conv::{convolve, convolve_direct, convolve_fft};
use eprons_num::fft::{fft_in_place, ifft_in_place, next_pow2};
use eprons_num::quantile::percentile;
use eprons_num::Pmf;
use eprons_proplite::{cases, Gen};

fn finite_vec(g: &mut Gen, max_len: usize) -> Vec<f64> {
    let len = g.usize_in(1, max_len - 1);
    g.vec_f64(len, -1.0e3, 1.0e3)
}

fn mass_vec(g: &mut Gen, max_len: usize) -> Vec<f64> {
    loop {
        let len = g.usize_in(1, max_len - 1);
        let v = g.vec_f64(len, 0.0, 10.0);
        if v.iter().sum::<f64>() > 1e-6 {
            return v;
        }
    }
}

#[test]
fn fft_round_trip_recovers_input() {
    cases(256, |g, case| {
        let v = finite_vec(g, 64);
        let n = next_pow2(v.len());
        let mut data: Vec<Complex> = v.iter().map(|&x| Complex::from_real(x)).collect();
        data.resize(n, Complex::ZERO);
        let original = data.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!((a.re - b.re).abs() < 1e-6, "case {case}");
            assert!(a.im.abs() < 1e-6, "case {case}");
        }
    });
}

#[test]
fn fft_and_direct_convolution_agree() {
    cases(256, |g, case| {
        let a = mass_vec(g, 48);
        let b = mass_vec(g, 48);
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_eq!(d.len(), f.len(), "case {case}");
        let scale = a.iter().sum::<f64>() * b.iter().sum::<f64>();
        for (x, y) in d.iter().zip(&f) {
            assert!(
                (x - y).abs() < 1e-6 * scale.max(1.0),
                "case {case}: {x} vs {y}"
            );
        }
    });
}

#[test]
fn convolution_total_is_product_of_totals() {
    cases(256, |g, case| {
        let a = mass_vec(g, 32);
        let b = mass_vec(g, 32);
        let c = convolve(&a, &b);
        let expect = a.iter().sum::<f64>() * b.iter().sum::<f64>();
        let got: f64 = c.iter().sum();
        assert!((got - expect).abs() < 1e-6 * expect.max(1.0), "case {case}");
    });
}

#[test]
fn pmf_mean_of_convolution_adds() {
    cases(256, |g, case| {
        let ma = mass_vec(g, 24);
        let mb = mass_vec(g, 24);
        let oa = g.f64_in(-5.0, 5.0);
        let ob = g.f64_in(-5.0, 5.0);
        let a = Pmf::from_masses(oa, 0.25, ma);
        let b = Pmf::from_masses(ob, 0.25, mb);
        let c = a.convolve(&b);
        assert!(
            (c.mean() - (a.mean() + b.mean())).abs() < 1e-6,
            "case {case}"
        );
        // Variances add for independent sums.
        assert!(
            (c.variance() - (a.variance() + b.variance())).abs() < 1e-5,
            "case {case}"
        );
    });
}

#[test]
fn pmf_cdf_is_monotone_and_bounded() {
    cases(256, |g, case| {
        let m = mass_vec(g, 32);
        let origin = g.f64_in(-5.0, 5.0);
        let p = Pmf::from_masses(origin, 0.5, m);
        let lo = p.origin() - 1.0;
        let hi = p.max_value() + 1.0;
        let mut prev = -1e-12;
        for i in 0..=100 {
            let x = lo + (hi - lo) * i as f64 / 100.0;
            let c = p.cdf(x);
            assert!((0.0..=1.0 + 1e-12).contains(&c), "case {case}");
            assert!(c >= prev - 1e-9, "case {case}: CDF decreased at {x}");
            prev = c;
        }
        assert!(p.cdf(hi) > 1.0 - 1e-9, "case {case}");
        assert_eq!(p.cdf(lo), 0.0, "case {case}");
    });
}

#[test]
fn pmf_quantile_inverts_cdf() {
    cases(256, |g, case| {
        let m = mass_vec(g, 24);
        let q = g.f64();
        let p = Pmf::from_masses(0.0, 1.0, m);
        let v = p.quantile(q);
        // CDF at the quantile covers q.
        assert!(p.cdf(v) >= q - 1e-9, "case {case}");
    });
}

#[test]
fn pmf_sampling_stays_in_support() {
    cases(256, |g, case| {
        let m = mass_vec(g, 16);
        let u = g.f64();
        let p = Pmf::from_masses(2.0, 0.5, m);
        let v = p.sample_with(u);
        assert!(v >= p.origin() - 0.5 * p.step() - 1e-12, "case {case}");
        assert!(v <= p.max_value() + 0.5 * p.step() + 1e-12, "case {case}");
    });
}

#[test]
fn truncation_keeps_mass_one() {
    cases(256, |g, case| {
        let m = mass_vec(g, 32);
        let p = Pmf::from_masses(0.0, 1.0, m).truncated(1e-9);
        let total: f64 = p.masses().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn percentile_within_range() {
    cases(256, |g, case| {
        let v = finite_vec(g, 128);
        let q = g.f64();
        let p = percentile(&v, q);
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(p >= min - 1e-9 && p <= max + 1e-9, "case {case}");
    });
}

#[test]
fn percentile_is_monotone_in_q() {
    cases(256, |g, case| {
        let v = finite_vec(g, 64);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let p = percentile(&v, i as f64 / 10.0);
            assert!(p >= prev - 1e-12, "case {case}");
            prev = p;
        }
    });
}
