//! Small descriptive-statistics helpers.

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Population variance. Returns `None` for an empty slice.
pub fn variance(v: &[f64]) -> Option<f64> {
    let mu = mean(v)?;
    Some(v.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / v.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn stddev(v: &[f64]) -> Option<f64> {
    variance(v).map(f64::sqrt)
}

/// Weighted mean `Σ wᵢ·xᵢ / Σ wᵢ`. Returns `None` when the weights sum
/// to zero or the slices differ in length.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> Option<f64> {
    if values.len() != weights.len() {
        return None;
    }
    let wsum: f64 = weights.iter().sum();
    if wsum == 0.0 {
        return None;
    }
    Some(values.iter().zip(weights).map(|(x, w)| x * w).sum::<f64>() / wsum)
}

/// Running summary of a scalar series: count, mean, min, max and variance
/// via Welford's algorithm (numerically stable single pass).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let d = x - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance, or `None` before any observation.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Minimum, or `None` before any observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, or `None` before any observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one (parallel reduction step).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(variance(&v), Some(1.25));
        assert!((stddev(&v).unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn weighted_mean_basics() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), Some(2.0));
        assert_eq!(weighted_mean(&[1.0, 3.0], &[3.0, 1.0]), Some(1.5));
        assert_eq!(weighted_mean(&[1.0], &[0.0]), None);
        assert_eq!(weighted_mean(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn summary_matches_batch() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = Summary::new();
        for &x in &v {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - mean(&v).unwrap()).abs() < 1e-12);
        assert!((s.variance().unwrap() - variance(&v).unwrap()).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_equals_combined() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut sa = Summary::new();
        let mut sb = Summary::new();
        for &x in &a {
            sa.add(x);
        }
        for &x in &b {
            sb.add(x);
        }
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(sa.count(), 7);
        assert!((sa.mean().unwrap() - mean(&all).unwrap()).abs() < 1e-12);
        assert!((sa.variance().unwrap() - variance(&all).unwrap()).abs() < 1e-9);
        assert_eq!(sa.min(), Some(1.0));
        assert_eq!(sa.max(), Some(40.0));
    }

    #[test]
    fn summary_merge_with_empty() {
        let mut s = Summary::new();
        s.add(5.0);
        let empty = Summary::new();
        s.merge(&empty);
        assert_eq!(s.count(), 1);
        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), Some(5.0));
    }
}
