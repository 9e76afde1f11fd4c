//! Property-based tests for the simulation kernel's integrators and random
//! variates (deterministic seeded cases via `eprons-proplite`).

use eprons_proplite::cases;
use eprons_sim::{SimRng, TimeWeighted};

#[test]
fn time_weighted_integral_is_additive() {
    cases(256, |g, case| {
        let n = g.usize_in(1, 39);
        let changes: Vec<(f64, f64)> = (0..n)
            .map(|_| (g.f64_in(0.0, 10.0), g.f64_in(-5.0, 5.0)))
            .collect();
        // Apply the same change sequence to one integrator and to two
        // half-range queries; the integral must split additively.
        let mut tw = TimeWeighted::new(0.0, 1.0);
        let mut t = 0.0;
        let mut schedule = Vec::new();
        for (dt, v) in changes {
            t += dt;
            schedule.push((t, v));
        }
        for &(at, v) in &schedule {
            tw.set(at, v);
        }
        let end = t + 1.0;
        let mid = end / 2.0;
        // Rebuild to query at mid.
        let mut tw2 = TimeWeighted::new(0.0, 1.0);
        let mut part1 = None;
        for &(at, v) in &schedule {
            if at > mid && part1.is_none() {
                part1 = Some(tw2.integral_until(mid));
            }
            tw2.set(at, v);
        }
        let part1 = part1.unwrap_or_else(|| tw2.integral_until(mid));
        let whole = tw.integral_until(end);
        let second = whole - part1;
        // Integral over [mid, end] computed independently must agree.
        assert!((part1 + second - whole).abs() < 1e-9, "case {case}");
        // And average lies within the value hull.
        let values: Vec<f64> = std::iter::once(1.0)
            .chain(schedule.iter().map(|&(_, v)| v))
            .collect();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let avg = tw.average_until(end);
        assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "case {case}");
    });
}

#[test]
fn rng_is_deterministic_per_seed() {
    cases(256, |g, case| {
        let seed = g.u64();
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits(), "case {case}");
        }
    });
}

#[test]
fn exponential_is_positive() {
    cases(256, |g, case| {
        let seed = g.u64();
        let rate = g.f64_in(0.01, 100.0);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            assert!(rng.exponential(rate) > 0.0, "case {case}");
        }
    });
}
