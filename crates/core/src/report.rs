//! Plain-text table output shared by the figure harnesses.
//!
//! Every `fig*` binary prints its series through [`Table`] so the output
//! format (aligned columns, one header row, optional caption) is uniform
//! and easy to diff against EXPERIMENTS.md.

use std::fmt;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a caption and column headers.
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience: formats each cell with `Display`.
    pub fn row_display(&mut self, cells: &[&dyn fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "# {}", self.caption)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "{:>w$}", h, w = widths[i] + 2)?;
        }
        writeln!(f)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            for i in 0..cols {
                write!(f, "{:>w$}", row[i], w = widths[i] + 2)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Tabulates a journal's events by kind (count per event type) — the
/// quick "what happened this run" summary the fig binaries print when
/// `--journal` is active.
pub fn journal_kind_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    journal_kind_table_with_drops(entries, 0)
}

/// [`journal_kind_table`] with the journal's dropped-event count appended
/// as a `(dropped)` row when non-zero, so cap overflow is visible in
/// every `--journal` summary instead of silently truncating the record.
pub fn journal_kind_table_with_drops(entries: &[eprons_obs::JournalEntry], dropped: u64) -> Table {
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for e in entries {
        *counts.entry(e.event.kind()).or_insert(0) += 1;
    }
    let mut t = Table::new("journal events", &["event", "count"]);
    for (kind, n) in counts {
        t.row(&[kind.to_string(), n.to_string()]);
    }
    if dropped > 0 {
        t.row(&["(dropped)".to_string(), dropped.to_string()]);
    }
    t
}

/// Tabulates the per-epoch snapshots of a journal: one row per
/// `EpochSnapshot` event, mirroring the Fig. 15 timeline columns.
pub fn journal_epoch_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    let mut t = Table::new(
        "epoch snapshots",
        &[
            "epoch",
            "minute",
            "choice",
            "server_w",
            "network_w",
            "total_w",
            "boot_j",
            "p95_ms",
            "ok",
        ],
    );
    for e in entries {
        if let eprons_obs::Event::EpochSnapshot(s) = &e.event {
            t.row(&[
                s.epoch.to_string(),
                format!("{:.0}", s.minute),
                s.choice.clone(),
                watts(s.server_w),
                watts(s.network_w),
                watts(s.total_w()),
                format!("{:.1}", s.boot_energy_j),
                format!("{:.2}", s.e2e_p95_us * 1.0e-3),
                s.feasible.to_string(),
            ]);
        }
    }
    t
}

/// Tabulates the pod-decomposition work of a journal as the `net.pods.*`
/// counter view: every `PodConsolidation` event carries the same fields
/// the consolidator adds to the registry counters, so summing them over
/// the journal reproduces the counters a live process would report.
/// Empty (no rows) when the run never took the pod-decomposed path.
pub fn journal_pods_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    let mut t = Table::new("pod consolidation (net.pods.*)", &["counter", "value"]);
    let (mut passes, mut solved, mut cached, mut resolves) = (0u64, 0u64, 0u64, 0u64);
    let (mut rounds, mut balanced, mut fallbacks) = (0u64, 0u64, 0u64);
    for e in entries {
        if let eprons_obs::Event::PodConsolidation {
            solved: s,
            cached: c,
            resolves: r,
            rounds: ro,
            balanced: b,
            fallback,
            ..
        } = &e.event
        {
            passes += 1;
            solved += s;
            cached += c;
            resolves += r;
            rounds += ro;
            balanced += b;
            fallbacks += u64::from(*fallback);
        }
    }
    if passes == 0 {
        return t;
    }
    for (name, v) in [
        ("passes", passes),
        ("net.pods.solved", solved),
        ("net.pods.cache_hits", cached),
        ("net.pods.resolves", resolves),
        ("net.pods.balanced_stitches", balanced),
        ("net.pods.fallbacks", fallbacks),
        ("stitch rounds", rounds),
    ] {
        t.row(&[name.to_string(), v.to_string()]);
    }
    t
}

/// Tabulates the VP kernel's work in a cluster evaluation's server
/// shards, summed from the `server_shard` spans' notes
/// (`convolutions=… conditioned_hits=… spectra_built=… spectra_reused=…`,
/// what each shard's `simulate_core` added to the `server.vp.*` counters):
/// arrival-instant convolutions run, the conditioned sums served from a
/// ladder slot instead (each one convolution saved), and how many of the
/// convolutions built or reused a cached level spectrum (each reuse one
/// forward FFT saved). Empty (no rows) when no shard span was journaled.
pub fn journal_vp_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    const FIELDS: [&str; 4] = [
        "convolutions",
        "conditioned_hits",
        "spectra_built",
        "spectra_reused",
    ];
    let mut t = Table::new("VP kernel (server.vp.*)", &["counter", "value"]);
    let (mut shards, mut sums) = (0u64, [0u64; FIELDS.len()]);
    for e in entries {
        if let eprons_obs::Event::SpanEnd { name, detail, .. } = &e.event {
            if name != "server_shard" {
                continue;
            }
            shards += 1;
            for tok in detail.split_whitespace() {
                if let Some((key, v)) = tok.split_once('=') {
                    if let Some(i) = FIELDS.iter().position(|&f| f == key) {
                        sums[i] += v.parse::<u64>().unwrap_or(0);
                    }
                }
            }
        }
    }
    if shards == 0 {
        return t;
    }
    t.row(&["server shards".to_string(), shards.to_string()]);
    for (name, v) in FIELDS.iter().zip(sums) {
        t.row(&[format!("server.vp.{name}"), v.to_string()]);
    }
    t
}

/// Tabulates the day-scoped cache reports of a journal: one row per
/// [`eprons_obs::Event::DayCacheReport`] with the cache's day-long
/// hit/miss/eviction counters, its hit rate, and the approximate bytes
/// it held when the day closed. Empty (no rows) when the run never
/// used day-scoped incremental evaluation.
pub fn journal_daycache_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    let mut t = Table::new(
        "day-scope caches",
        &["cache", "hits", "misses", "evictions", "hit rate", "bytes"],
    );
    for e in entries {
        if let eprons_obs::Event::DayCacheReport {
            cache,
            hits,
            misses,
            evictions,
            bytes,
        } = &e.event
        {
            let total = hits + misses;
            let rate = if total > 0 {
                format!("{:.1}%", *hits as f64 / total as f64 * 100.0)
            } else {
                "-".to_string()
            };
            t.row(&[
                cache.clone(),
                hits.to_string(),
                misses.to_string(),
                evictions.to_string(),
                rate,
                bytes.to_string(),
            ]);
        }
    }
    t
}

/// Tabulates the online-controller activity of a journal: hysteresis
/// holds (with the transition energy they avoided paying) and the
/// deferral queue's megabit-minute ledger (enqueued, drained, dropped).
/// Empty (no rows) when the run never used the online controller.
pub fn journal_online_table(entries: &[eprons_obs::JournalEntry]) -> Table {
    let mut t = Table::new("online controller", &["counter", "value"]);
    let (mut holds, mut avoided_j) = (0u64, 0.0f64);
    let (mut enq_n, mut enq, mut drained, mut dropped) = (0u64, 0.0f64, 0.0f64, 0.0f64);
    for e in entries {
        match &e.event {
            eprons_obs::Event::HysteresisHold { transition_j, .. } => {
                holds += 1;
                avoided_j += transition_j;
            }
            eprons_obs::Event::DeferralEnqueued { mbps_min, .. } => {
                enq_n += 1;
                enq += mbps_min;
            }
            eprons_obs::Event::DeferralDrained {
                drained_mbps_min,
                dropped_mbps_min,
                ..
            } => {
                drained += drained_mbps_min;
                dropped += dropped_mbps_min;
            }
            _ => {}
        }
    }
    if holds == 0 && enq_n == 0 && drained == 0.0 && dropped == 0.0 {
        return t;
    }
    t.row(&["hysteresis holds".to_string(), holds.to_string()]);
    t.row(&[
        "transition energy avoided (J)".to_string(),
        format!("{avoided_j:.1}"),
    ]);
    t.row(&["deferral enqueues".to_string(), enq_n.to_string()]);
    t.row(&["deferred (mbps-min)".to_string(), format!("{enq:.1}")]);
    t.row(&["drained (mbps-min)".to_string(), format!("{drained:.1}")]);
    t.row(&["dropped (mbps-min)".to_string(), format!("{dropped:.1}")]);
    t
}

/// Tabulates a metrics snapshot: counters, gauges, then histograms (with
/// count/mean/max) in one name-sorted table.
pub fn metrics_table(snap: &eprons_obs::MetricsSnapshot) -> Table {
    let mut t = Table::new("metrics", &["name", "kind", "value"]);
    for (name, v) in &snap.counters {
        t.row(&[name.clone(), "counter".into(), v.to_string()]);
    }
    for (name, v) in &snap.gauges {
        t.row(&[name.clone(), "gauge".into(), format!("{v:.3}")]);
    }
    for (name, h) in &snap.histograms {
        t.row(&[
            name.clone(),
            "histogram".into(),
            format!("n={} mean={:.3e} max={:.3e}", h.count, h.mean(), h.max),
        ]);
    }
    t
}

/// Formats a watts value with 1 decimal.
pub fn watts(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a milliseconds value (input seconds) with 2 decimals.
pub fn ms(v_s: f64) -> String {
    format!("{:.2}", v_s * 1.0e3)
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(&["1".into(), "10.0".into()]);
        t.row(&["200".into(), "3.5".into()]);
        let s = t.to_string();
        assert!(s.contains("# demo"));
        assert!(s.contains("value"));
        assert!(s.lines().count() >= 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(watts(12.345), "12.3");
        assert_eq!(ms(0.02574), "25.74");
        assert_eq!(pct(0.3125), "31.2");
    }

    #[test]
    fn journal_tables_render() {
        let journal = eprons_obs::Journal::with_capacity(100);
        journal.record(eprons_obs::Event::DayStart {
            strategy: "eprons".into(),
            epochs: 2,
        });
        journal.record(eprons_obs::Event::EpochSnapshot(eprons_obs::Snapshot {
            epoch: 0,
            minute: 120.0,
            strategy: "eprons".into(),
            choice: "agg2".into(),
            server_w: 700.0,
            network_w: 500.0,
            active_switches: 15,
            e2e_p95_us: 21_500.0,
            feasible: true,
            boot_energy_j: 0.0,
        }));
        journal.record(eprons_obs::Event::EpochSnapshot(eprons_obs::Snapshot {
            epoch: 1,
            minute: 360.0,
            strategy: "eprons".into(),
            choice: "agg3".into(),
            server_w: 650.0,
            network_w: 470.0,
            active_switches: 13,
            e2e_p95_us: 24_000.0,
            feasible: true,
            boot_energy_j: 2610.7,
        }));
        let entries = journal.snapshot();
        let kinds = journal_kind_table(&entries);
        assert_eq!(kinds.len(), 2, "DayStart + EpochSnapshot rows");
        assert!(kinds.to_string().contains("EpochSnapshot"));
        let epochs = journal_epoch_table(&entries);
        assert_eq!(epochs.len(), 2);
        let s = epochs.to_string();
        assert!(s.contains("agg2") && s.contains("1200.0"), "{s}");
    }

    #[test]
    fn metrics_table_renders_all_kinds() {
        let reg = eprons_obs::Registry::new();
        reg.counter("a.count").add(3);
        reg.gauge("b.level").set(1.5);
        reg.histogram("c.dur_s", eprons_obs::DURATION_EDGES_S)
            .observe(0.01);
        let t = metrics_table(&reg.snapshot());
        assert_eq!(t.len(), 3);
        let s = t.to_string();
        assert!(s.contains("a.count") && s.contains("counter"));
        assert!(s.contains("histogram") && s.contains("n=1"));
    }
}
