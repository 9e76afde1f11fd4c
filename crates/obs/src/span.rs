//! Hierarchical causal spans: RAII guards that journal `SpanStart` /
//! `SpanEnd` pairs tying every event to the pipeline stage that caused it.
//!
//! A span is one node of a causality tree: `(id, parent, thread)` plus a
//! stage name and a wall-clock interval. The day controller opens a `day`
//! span, each epoch opens an `epoch` span under it, and the staged
//! pipeline (`scenario.build` → `stage.network_plan` →
//! `stage.server_eval` → `stage.accounting`), the optimizer's ladder
//! search, and every LP/MILP solve open children in turn — so a
//! `CandidatePruned` event or an LP pivot count can be attributed offline
//! to the exact epoch, degradation rung, and candidate that produced it
//! (`obsctl summarize` / `obsctl flame` consume the tree).
//!
//! **Parenting.** Within a thread, spans nest automatically through a
//! thread-local stack: [`Span::enter`] parents under the innermost open
//! span of the current thread. Fan-out sites (the epoch fan-out, the
//! per-ISN server shards) cross threads, where the stack is empty — they
//! capture [`current_span_id`] before spawning and open children with
//! [`Span::enter_under`], which re-seeds the worker's stack so deeper
//! spans chain correctly.
//!
//! **Cost.** Like every other instrumentation site, span creation is
//! gated on [`crate::enabled`]: when telemetry is off a guard is an
//! `Option::None` and construction/drop touch no clock, no lock, and no
//! journal. A span created while telemetry was on always journals its
//! end, even if the flag flipped mid-flight, so starts and ends stay
//! paired.

use crate::journal::Event;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Parent id of a root span (and [`current_span_id`]'s answer when no
/// span is open on the calling thread).
pub const NO_SPAN: u64 = 0;

/// Span ids are process-wide and never reused (0 is reserved for "no
/// span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense per-thread ids (std's `ThreadId` is opaque); assigned on a
/// thread's first span.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The process start-of-telemetry instant `SpanStart::start_s` offsets
/// are measured from (first span wins; only deltas are meaningful).
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The innermost open span on the calling thread, or [`NO_SPAN`]. Capture
/// this before fanning work out to other threads and hand it to
/// [`Span::enter_under`] inside the worker closure.
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_SPAN))
}

/// Journals a finished leaf span `name` under `parent` that ran from
/// `start` to `end`, without touching the calling thread's span stack —
/// for stretches no single guard can bracket because they begin or end on
/// another thread (a fan-out's thread spawn before the first worker starts,
/// its join after the last one ends). Inert while telemetry is disabled.
pub fn record_span(parent: u64, name: &str, start: Instant, end: Instant) {
    if !crate::enabled() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    crate::record_unguarded(Event::SpanStart {
        id,
        parent,
        thread: THREAD_ID.with(|t| *t),
        name: name.to_string(),
        start_s: start.duration_since(process_epoch()).as_secs_f64(),
    });
    crate::record_unguarded(Event::SpanEnd {
        id,
        name: name.to_string(),
        elapsed_s: end.saturating_duration_since(start).as_secs_f64(),
        detail: String::new(),
    });
}

struct Armed {
    id: u64,
    name: String,
    start: Instant,
    detail: String,
}

/// RAII causal-span guard: journals `SpanStart` on creation and `SpanEnd`
/// (with the measured duration and an optional detail string) on drop.
///
/// ```
/// use eprons_obs as obs;
/// obs::set_enabled(true);
/// {
///     let mut day = obs::Span::enter("day");
///     let _epoch = obs::Span::enter("epoch"); // parented under `day`
///     day.note("strategy=eprons");
/// } // both ends journaled here
/// assert_eq!(obs::journal().count_kind("SpanStart"), 2);
/// obs::reset();
/// obs::set_enabled(false);
/// ```
#[must_use = "a span closes on drop; binding it to `_` closes immediately"]
pub struct Span {
    armed: Option<Armed>,
}

impl Span {
    /// Opens a span under the current thread's innermost open span (a
    /// root span when none is open). Inert while telemetry is disabled.
    pub fn enter(name: &str) -> Span {
        if !crate::enabled() {
            return Span { armed: None };
        }
        Span::open(name, current_span_id())
    }

    /// Opens a span under an explicit parent id — the cross-thread form
    /// for fan-out sites ([`NO_SPAN`] makes a root). Inert while
    /// telemetry is disabled.
    pub fn enter_under(parent: u64, name: &str) -> Span {
        if !crate::enabled() {
            return Span { armed: None };
        }
        Span::open(name, parent)
    }

    fn open(name: &str, parent: u64) -> Span {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = THREAD_ID.with(|t| *t);
        STACK.with(|s| s.borrow_mut().push(id));
        let start = Instant::now();
        crate::record_unguarded(Event::SpanStart {
            id,
            parent,
            thread,
            name: name.to_string(),
            start_s: start.duration_since(process_epoch()).as_secs_f64(),
        });
        Span {
            armed: Some(Armed {
                id,
                name: name.to_string(),
                start,
                detail: String::new(),
            }),
        }
    }

    /// Attaches a detail string reported in the span's `SpanEnd` (e.g.
    /// `"rows=257 cols=334 pivots=327"`). Last call wins; a no-op on an inert
    /// guard.
    pub fn note(&mut self, detail: impl Into<String>) {
        if let Some(a) = &mut self.armed {
            a.detail = detail.into();
        }
    }

    /// This span's id ([`NO_SPAN`] on an inert guard) — hand it to
    /// [`Span::enter_under`] across a thread boundary.
    pub fn id(&self) -> u64 {
        self.armed.as_ref().map_or(NO_SPAN, |a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.armed.take() {
            let elapsed_s = a.start.elapsed().as_secs_f64();
            STACK.with(|s| {
                let mut st = s.borrow_mut();
                // Guards drop LIFO in correct code; `rposition` keeps a
                // mis-ordered drop from corrupting unrelated frames.
                if let Some(pos) = st.iter().rposition(|&x| x == a.id) {
                    st.remove(pos);
                }
            });
            crate::record_unguarded(Event::SpanEnd {
                id: a.id,
                name: a.name,
                elapsed_s,
                detail: a.detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run against the process-global journal, so they
    // serialize through one #[test] (the crate convention — see lib.rs).
    #[test]
    fn spans_nest_cross_thread_and_stay_cheap_when_disabled() {
        // Disabled: no events, no stack growth.
        assert!(!crate::enabled());
        {
            let mut s = Span::enter("off");
            s.note("ignored");
            assert_eq!(s.id(), NO_SPAN);
        }
        assert_eq!(crate::journal().len(), 0);

        crate::set_enabled(true);
        crate::reset();
        let outer_id;
        {
            let mut outer = Span::enter("outer");
            outer_id = outer.id();
            assert_ne!(outer_id, NO_SPAN);
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = Span::enter("inner");
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), outer_id);
            // Cross-thread: enter_under re-seeds the worker stack.
            let parent = current_span_id();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    assert_eq!(current_span_id(), NO_SPAN);
                    let shard = Span::enter_under(parent, "shard");
                    assert_eq!(current_span_id(), shard.id());
                    let _leaf = Span::enter("leaf"); // parents under shard
                });
            });
            outer.note("k=2");
        }
        assert_eq!(current_span_id(), NO_SPAN);

        let entries = crate::journal().snapshot();
        let starts: Vec<_> = entries
            .iter()
            .filter_map(|e| match &e.event {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    thread,
                    ..
                } => Some((*id, *parent, name.clone(), *thread)),
                _ => None,
            })
            .collect();
        let ends: Vec<_> = entries
            .iter()
            .filter_map(|e| match &e.event {
                Event::SpanEnd {
                    id,
                    name,
                    elapsed_s,
                    detail,
                } => Some((*id, name.clone(), *elapsed_s, detail.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(starts.len(), 4, "outer, inner, shard, leaf");
        assert_eq!(ends.len(), 4);
        let find = |n: &str| starts.iter().find(|(_, _, name, _)| name == n).unwrap();
        let (outer_s, outer_parent, _, outer_thread) = find("outer");
        let (_, inner_parent, _, _) = find("inner");
        let (shard_id, shard_parent, _, shard_thread) = find("shard");
        let (_, leaf_parent, _, _) = find("leaf");
        assert_eq!(*outer_s, outer_id);
        assert_eq!(*outer_parent, NO_SPAN);
        assert_eq!(*inner_parent, outer_id);
        assert_eq!(*shard_parent, outer_id, "explicit cross-thread parent");
        assert_eq!(*leaf_parent, *shard_id, "worker stack re-seeded");
        assert_ne!(outer_thread, shard_thread, "distinct thread ids");
        for (_, _, elapsed, _) in &ends {
            assert!(*elapsed >= 0.0);
        }
        let outer_end = ends.iter().find(|(id, ..)| *id == outer_id).unwrap();
        assert_eq!(outer_end.3, "k=2", "note lands in SpanEnd detail");

        crate::reset();
        crate::set_enabled(false);
    }
}
