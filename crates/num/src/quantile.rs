//! Quantile computation: exact (sort-based) and streaming (P² estimator).
//!
//! Tail latency is the paper's SLA currency (95th/99th percentile, §III).
//! Simulators collect latency samples and query [`percentile`];
//! [`P2Quantile`] tracks a running tail in O(1) memory, without storing
//! every observation.

/// Exact percentile of a sorted slice with linear interpolation between
/// order statistics ("type 7", the default in R/NumPy).
///
/// `p` is a probability in `[0, 1]` (e.g. `0.95` for the 95th percentile).
///
/// # Panics
/// Panics if the slice is empty or `p` is outside `[0, 1]`.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=1.0).contains(&p),
        "percentile level must be in [0,1]"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Exact percentile of an unsorted slice (copies and sorts internally).
///
/// # Panics
/// Panics if the slice is empty or `p` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    percentile_of_sorted(&v, p)
}

/// The P² (piecewise-parabolic) streaming quantile estimator of
/// Jain & Chlamtac (1985). Tracks a single quantile with O(1) memory.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimated quantile values).
    q: [f64; 5],
    /// Marker positions (1-based observation ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    /// Number of observations so far.
    count: usize,
    /// Initial observations before the estimator activates.
    init: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` in `(0, 1)`.
    ///
    /// # Panics
    /// Panics if `p` is not strictly inside `(0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "P2 quantile must be in (0,1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// Number of observations seen.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                self.init
                    .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
                for i in 0..5 {
                    self.q[i] = self.init[i];
                }
            }
            return;
        }

        // Find the cell containing x and bump marker positions.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.q[i] && x < self.q[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers with the parabolic formula, falling back
        // to linear when the parabolic step would violate ordering.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let ds = d.signum();
                let qp = self.parabolic(i, ds);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, ds)
                };
                self.n[i] += ds;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current quantile estimate. Before five observations have arrived the
    /// estimate is the exact quantile of what has been seen; returns `None`
    /// if nothing has been observed.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.init.len() < 5 {
            let mut v = self.init.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            return Some(percentile_of_sorted(&v, self.p));
        }
        Some(self.q[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_small() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        // interpolation
        assert!((percentile(&v, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn exact_percentile_unsorted_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_slice_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn extreme_levels_hit_min_and_max_exactly() {
        // p = 0.0 and p = 1.0 must return the extremes with no
        // interpolation residue or NaN, including on unsorted input and
        // on duplicated extremes.
        let v = [3.0, -2.0, 7.5, 7.5, 0.0];
        assert_eq!(percentile(&v, 0.0), -2.0);
        assert_eq!(percentile(&v, 1.0), 7.5);
        assert_eq!(percentile_of_sorted(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile_of_sorted(&[1.0, 2.0], 1.0), 2.0);
        assert!(percentile(&v, 0.0).is_finite() && percentile(&v, 1.0).is_finite());
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn negative_level_panics() {
        percentile(&[1.0, 2.0], -0.01);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn level_above_one_panics() {
        percentile(&[1.0, 2.0], 1.01);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn nan_level_panics() {
        // A NaN level fails the [0,1] range check rather than silently
        // producing a NaN rank.
        percentile_of_sorted(&[1.0, 2.0], f64::NAN);
    }

    #[test]
    fn p2_matches_exact_on_uniform_stream() {
        // Deterministic LCG uniform stream.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut est = P2Quantile::new(0.95);
        let mut all = Vec::new();
        for _ in 0..20_000 {
            let x = next();
            est.observe(x);
            all.push(x);
        }
        let exact = percentile(&all, 0.95);
        let approx = est.estimate().unwrap();
        assert!(
            (exact - approx).abs() < 0.02,
            "P2 estimate {approx} too far from exact {exact}"
        );
    }

    #[test]
    fn p2_small_counts_are_exact() {
        let mut est = P2Quantile::new(0.5);
        est.observe(10.0);
        assert_eq!(est.estimate(), Some(10.0));
        est.observe(20.0);
        assert_eq!(est.estimate(), Some(15.0));
    }

    #[test]
    fn p2_handles_skewed_stream() {
        // Exponential-ish data via inverse transform of the LCG stream.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            -u.ln()
        };
        let mut est = P2Quantile::new(0.99);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = next();
            est.observe(x);
            all.push(x);
        }
        let exact = percentile(&all, 0.99); // ~4.6 for Exp(1)
        let approx = est.estimate().unwrap();
        assert!(
            (exact - approx).abs() / exact < 0.1,
            "P2 estimate {approx} vs exact {exact}"
        );
    }

    #[test]
    fn p2_none_before_observations() {
        let est = P2Quantile::new(0.9);
        assert!(est.estimate().is_none());
    }
}
