//! Seeded random-variate generation.
//!
//! Every stochastic component of the reproduction (arrivals, service times,
//! per-hop queueing draws) pulls from a [`SimRng`] seeded from a single
//! `u64`, so every figure regenerates bit-identically. Both the generator
//! (xoshiro256++ seeded through SplitMix64) and the variate
//! transformations (exponential, log-normal, …) are implemented in-repo so
//! the whole workspace builds without any external crates — the build
//! environment has no registry access, and the dependency policy
//! (DESIGN.md) keeps everything from-scratch anyway.

/// SplitMix64 step: used to expand a 64-bit seed into generator state and
/// nothing else (its weak low bits never reach consumers directly).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic simulation RNG with the variate transformations the
/// workloads need. The core generator is xoshiro256++ (Blackman & Vigna),
/// a 256-bit-state, 2^256−1-period generator that passes BigCrush; the
/// seed is stretched into the four state words with SplitMix64, per the
/// reference seeding recipe.
///
/// ```
/// use eprons_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.uniform(), b.uniform()); // same seed, same stream
/// assert!(a.exponential(10.0) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro's one forbidden state is all-zeros; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        debug_assert!(s.iter().any(|&w| w != 0));
        SimRng { s }
    }

    /// The next raw 64-bit output (xoshiro256++ scrambler + state step).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child RNG; used to give each server / link
    /// its own stream so adding a component never perturbs the draws of
    /// the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s: u64 = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of mantissa entropy.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift reduction; the
    /// ≤ 2⁻⁵³-scale modulo bias is far below anything a simulation with
    /// fewer than 2⁵⁰ draws can observe).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential variate with the given `rate` (mean `1/rate`): the
    /// inter-arrival time of a Poisson process.
    ///
    /// # Panics
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform(); // in (0, 1]
        -u.ln() / rate
    }

    /// Standard normal variate (Box–Muller transform).
    fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal variate with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics if `sigma < 0`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        mu + sigma * self.standard_normal()
    }

    /// Log-normal variate: `exp(N(mu, sigma))`. The synthetic Xapian-like
    /// service-time distribution is log-normal (DESIGN.md substitution
    /// table).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::seed_from_u64(99);
        let mut parent2 = SimRng::seed_from_u64(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        for _ in 0..50 {
            assert_eq!(c1.uniform(), c2.uniform());
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(43);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.15, "variance was {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut rng = SimRng::seed_from_u64(44);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal(1.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        // median of lognormal(mu, sigma) = e^mu
        assert!(
            (median - 1.0f64.exp()).abs() / 1.0f64.exp() < 0.03,
            "median was {median}"
        );
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::seed_from_u64(45);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq was {freq}");
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(47);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn index_in_range() {
        let mut rng = SimRng::seed_from_u64(48);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&b| b), "all indices should be hit");
    }
}
