//! Exact (sort-based) quantiles.
//!
//! Tail latency is the paper's SLA currency (95th/99th percentile, §III).
//! Simulators collect latency samples and query [`percentile`].

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
}
