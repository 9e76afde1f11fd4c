//! # eprons-obs — observability substrate
//!
//! Structured telemetry for the EPRONS reproduction: a metric registry
//! (counters, gauges, fixed-bucket histograms), RAII scoped timers, and a
//! typed **run journal** that records what the control loop decided and
//! why (candidate verdicts, LP solve stats, DVFS/link transitions,
//! per-epoch snapshots), exportable as JSON-lines.
//!
//! Telemetry is **disabled by default**: every instrumentation site first
//! checks [`enabled`] (one relaxed atomic load), so hot paths pay nothing
//! until a caller — typically a fig binary given `--journal <path>` —
//! turns it on.
//!
//! ```
//! use eprons_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::record(obs::Event::DayStart { strategy: "eprons".into(), epochs: 144 });
//! {
//!     let _t = obs::Timer::scoped("lp.solve_s");
//! }
//! assert_eq!(obs::journal().count_kind("DayStart"), 1);
//! obs::reset();
//! obs::set_enabled(false);
//! ```
//!
//! Metric names follow `crate.subsystem.name` (e.g.
//! `net.consolidate.greedy_s`, `server.dvfs.transitions`); units are
//! suffixed (`_s`, `_w`, `_us`). The journal schema is documented on
//! [`Event`] and in README "Observability".

mod journal;
mod json;
mod metrics;
mod span;
mod timer;

pub use journal::{parse_jsonl, Event, Journal, JournalEntry, Snapshot, DEFAULT_JOURNAL_CAP};
pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, DURATION_EDGES_S,
};
pub use span::{current_span_id, record_span, Span, NO_SPAN};
pub use timer::Timer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide telemetry context: one registry + one journal.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub metrics: Registry,
    pub journal: Journal,
}

fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::default)
}

/// Whether telemetry collection is on. Instrumentation sites gate on this
/// so the disabled cost is a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The global metric registry. Usable regardless of [`enabled`] — gating
/// is the instrumentation site's job, which keeps the policy in one
/// place per call site instead of hidden here.
pub fn registry() -> &'static Registry {
    &global().metrics
}

/// The global run journal.
pub fn journal() -> &'static Journal {
    &global().journal
}

/// Appends `event` to the global journal if telemetry is enabled.
#[inline]
pub fn record(event: Event) {
    if enabled() {
        record_unguarded(event);
    }
}

/// Appends `event` without re-checking [`enabled`] and surfaces cap
/// overflow on the `obs.journal.dropped` counter. Used by [`record`] and
/// by span guards, which must emit their `SpanEnd` even if telemetry was
/// flipped off mid-span so starts and ends stay paired.
pub(crate) fn record_unguarded(event: Event) {
    if !journal().record(event) {
        registry().counter("obs.journal.dropped").inc();
    }
}

/// Clears the global journal and registry (the enabled flag is left
/// untouched). Intended for tests and for fig binaries that emit several
/// independent journals.
pub fn reset() {
    registry().reset();
    journal().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enable flag is process-wide; this is the only test in
    // the crate that touches it (others use instance-level structs).
    #[test]
    fn record_is_gated_by_enabled() {
        assert!(!enabled(), "telemetry must start disabled");
        record(Event::DayStart {
            strategy: "off".into(),
            epochs: 1,
        });
        assert_eq!(journal().len(), 0, "disabled record must be dropped");

        set_enabled(true);
        record(Event::DayStart {
            strategy: "on".into(),
            epochs: 1,
        });
        assert_eq!(journal().count_kind("DayStart"), 1);
        let _t = Timer::scoped("obs.test_s");
        drop(_t);
        assert_eq!(
            registry()
                .histogram("obs.test_s", DURATION_EDGES_S)
                .snapshot()
                .count,
            1
        );

        reset();
        set_enabled(false);
        assert_eq!(journal().len(), 0);
    }
}
