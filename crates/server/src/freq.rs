//! The DVFS frequency ladder.
//!
//! The paper's platform exposes 1.2–2.7 GHz in 100 MHz steps (§V-A). The
//! ladder is ordered ascending; policies binary-search it because every VP
//! criterion used here is monotone in frequency (more cycles by the
//! deadline can only lower the violation probability).

/// An ascending list of available core frequencies in GHz.
///
/// ```
/// use eprons_server::FreqLadder;
/// let ladder = FreqLadder::paper_default(); // 1.2..=2.7 GHz, 100 MHz steps
/// assert_eq!(ladder.len(), 16);
/// // Binary-search the lowest frequency satisfying a monotone predicate:
/// let f = ladder.lowest_satisfying(|f| f * 0.010 >= 0.019); // ≥1.9 GHz
/// assert!((f - 1.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FreqLadder {
    freqs: Vec<f64>,
}

impl FreqLadder {
    /// Builds a ladder from arbitrary ascending frequencies.
    ///
    /// # Panics
    /// Panics if empty, non-ascending, or non-positive.
    pub fn new(freqs: Vec<f64>) -> Self {
        assert!(!freqs.is_empty(), "ladder must have at least one step");
        assert!(freqs[0] > 0.0, "frequencies must be positive");
        assert!(
            freqs.windows(2).all(|w| w[0] < w[1]),
            "ladder must be strictly ascending"
        );
        FreqLadder { freqs }
    }

    /// The paper's ladder: 1.2, 1.3, …, 2.7 GHz (16 steps).
    pub fn paper_default() -> Self {
        let freqs = (0..16).map(|i| 1.2 + 0.1 * i as f64).collect();
        FreqLadder::new(freqs)
    }

    /// All steps, ascending.
    #[inline]
    pub fn steps(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` iff the ladder has no steps (never, post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Lowest frequency.
    #[inline]
    pub fn min(&self) -> f64 {
        self.freqs[0]
    }

    /// Highest frequency.
    #[inline]
    pub fn max(&self) -> f64 {
        *self.freqs.last().expect("non-empty")
    }

    /// Frequency at step `i`.
    #[inline]
    pub fn at(&self, i: usize) -> f64 {
        self.freqs[i]
    }

    /// The lowest frequency for which `ok` holds, assuming `ok` is monotone
    /// (false…false true…true as frequency rises). Returns the maximum
    /// frequency if no step satisfies it (policies then run flat out — the
    /// paper's behavior when even f_max cannot meet the deadline).
    pub fn lowest_satisfying(&self, mut ok: impl FnMut(f64) -> bool) -> f64 {
        // Binary search for the first true.
        let (mut lo, mut hi) = (0usize, self.freqs.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if ok(self.freqs[mid]) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo == self.freqs.len() {
            self.max()
        } else {
            self.freqs[lo]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_shape() {
        let l = FreqLadder::paper_default();
        assert_eq!(l.len(), 16);
        assert!((l.min() - 1.2).abs() < 1e-12);
        assert!((l.max() - 2.7).abs() < 1e-9);
        // 100 MHz steps.
        for w in l.steps().windows(2) {
            assert!((w[1] - w[0] - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn lowest_satisfying_binary_search() {
        let l = FreqLadder::paper_default();
        // Threshold predicate: f >= 1.85 → first true step is 1.9.
        let f = l.lowest_satisfying(|f| f >= 1.85);
        assert!((f - 1.9).abs() < 1e-9);
        // Everything satisfies → min.
        assert_eq!(l.lowest_satisfying(|_| true), l.min());
        // Nothing satisfies → max (run flat out).
        assert_eq!(l.lowest_satisfying(|_| false), l.max());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted() {
        FreqLadder::new(vec![2.0, 1.0]);
    }

    #[test]
    fn lowest_satisfying_counts_calls_logarithmically() {
        let l = FreqLadder::paper_default();
        let mut calls = 0;
        let _ = l.lowest_satisfying(|f| {
            calls += 1;
            f >= 2.0
        });
        assert!(
            calls <= 5,
            "binary search should need ≤ ⌈log2(16)⌉+1 calls, used {calls}"
        );
    }
}
