//! Counter / gauge / histogram registry.
//!
//! Handles are `Arc`-backed: fetch them once per run (a registry lookup
//! takes a read lock) and update them lock-free from hot paths. Metric
//! names follow `crate.subsystem.name` (see README "Observability").

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::RwLock;

/// Monotonic event count. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` value, stored as bits in an atomic.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))
    }
}

impl Gauge {
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Default bucket upper edges for duration histograms, in seconds: a
/// 1–2–5 ladder from 1 µs to 10 s (covers an LP pivot through a whole
/// figure regeneration).
pub const DURATION_EDGES_S: &[f64] = &[
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 10.0,
];

#[derive(Debug)]
struct HistogramState {
    /// `edges.len() + 1` buckets; the last is the overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Fixed-bucket histogram. Observations are lock-free; bucket `i` counts
/// samples with `value <= edges[i]` (first matching edge), and one
/// overflow bucket catches the rest.
#[derive(Clone, Debug)]
pub struct Histogram {
    edges: Arc<[f64]>,
    state: Arc<HistogramState>,
}

impl Histogram {
    /// # Panics
    /// Panics if `edges` is empty or not strictly increasing.
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly increasing"
        );
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            edges: edges.into(),
            state: Arc::new(HistogramState {
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
                min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
                max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            }),
        }
    }

    pub fn observe(&self, value: f64) {
        let idx = self
            .edges
            .partition_point(|&e| e < value)
            .min(self.edges.len());
        self.state.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.state.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.state.sum_bits, |s| s + value);
        atomic_f64_update(&self.state.min_bits, |m| m.min(value));
        atomic_f64_update(&self.state.max_bits, |m| m.max(value));
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.to_vec(),
            counts: self
                .state
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.state.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.state.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.state.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.state.max_bits.load(Ordering::Relaxed)),
        }
    }
}

fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Point-in-time copy of a [`Histogram`], mergeable across shards.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub edges: Vec<f64>,
    /// `edges.len() + 1` entries; last is the overflow bucket.
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    /// `+inf` when empty.
    pub min: f64,
    /// `-inf` when empty.
    pub max: f64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Snapshot of every metric in a [`Registry`], sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Name → metric map. Lookup takes a short `RwLock` section; the returned
/// handles are lock-free, so hot paths should look up once and reuse.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it with
    /// `edges` on first use. Later calls ignore `edges` (first writer
    /// fixes the resolution).
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Histogram {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(edges))
            .clone()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered metric. Outstanding handles keep their cells
    /// alive but detach from future snapshots.
    pub fn reset(&self) {
        self.counters.write().unwrap().clear();
        self.gauges.write().unwrap().clear();
        self.histograms.write().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("a.b.c");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b.c").get(), 5);
        let g = r.gauge("a.b.g");
        g.set(-2.5);
        assert_eq!(r.gauge("a.b.g").get(), -2.5);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Edges [1, 10]: bucket 0 is (-inf, 1], bucket 1 is (1, 10],
        // bucket 2 is the overflow (10, inf).
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 1.0001, 10.0, 11.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 11.0);
        assert!((s.sum - 23.5001).abs() < 1e-9);
    }

    #[test]
    fn histogram_exact_edge_lands_in_lower_bucket() {
        let h = Histogram::new(&[1e-3, 1e-2]);
        h.observe(1e-3);
        assert_eq!(h.snapshot().counts, vec![1, 0, 0]);
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(std::panic::catch_unwind(|| Histogram::new(&[])).is_err());
        assert!(std::panic::catch_unwind(|| Histogram::new(&[2.0, 1.0])).is_err());
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let h = Histogram::new(DURATION_EDGES_S);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        h.observe(1e-6 * (t * 10_000 + i) as f64);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
        assert_eq!(
            h.snapshot().counts.iter().sum::<u64>(),
            40_000,
            "bucket totals must equal the count"
        );
    }
}
