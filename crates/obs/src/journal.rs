//! Structured run journal: typed events, in-memory sink, JSON-lines
//! export/import.
//!
//! One journal line is one event object: `{"seq":12,"t":"OptimizerChoice",
//! ...fields}`. `seq` is a process-wide append index so interleaved
//! per-epoch threads can be re-ordered offline; `t` is the event kind.
//!
//! The record types are declared once, in the `journal_schema!`
//! invocation below; the kind tags and both halves of the codec come
//! from that declaration, so adding or removing an event is a one-place
//! edit.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A journal field type: how it is written, how it is read back, and
/// what a decode error calls it.
trait Wire: Sized {
    const NAME: &'static str;
    fn to_wire(&self) -> Json;
    fn from_wire(v: &Json) -> Option<Self>;
}

impl Wire for String {
    const NAME: &'static str = "string";
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_wire(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Wire for f64 {
    const NAME: &'static str = "numeric";
    fn to_wire(&self) -> Json {
        Json::Num(*self)
    }
    fn from_wire(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

/// Carried as a JSON number, exact up to 2^53.
impl Wire for u64 {
    const NAME: &'static str = "integer";
    fn to_wire(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_wire(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Wire for bool {
    const NAME: &'static str = "bool";
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_wire(v: &Json) -> Option<Self> {
        v.as_bool()
    }
}

impl Wire for Vec<String> {
    const NAME: &'static str = "string-array";
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_wire).collect())
    }
    fn from_wire(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(String::from_wire).collect()
    }
}

/// Reads field `key` of a `kind` record.
fn take<T: Wire>(v: &Json, kind: &str, key: &str) -> Result<T, String> {
    v.get(key)
        .and_then(T::from_wire)
        .ok_or_else(|| format!("{kind}: missing {} field '{key}'", T::NAME))
}

/// Declares the journal's records. From one struct (written in place by
/// the one tuple variant that wraps it) and one enum it generates the
/// types as written, `kind()` and `KINDS` (each tag is the variant's
/// name), and the field encoder and decoder. Fields go on the wire in
/// declaration order, under their own names.
macro_rules! journal_schema {
    (
        $(#[$sm:meta])*
        pub struct $S:ident {
            $( $(#[$sfm:meta])* pub $sf:ident : $st:ty ),* $(,)?
        }

        $(#[$em:meta])*
        pub enum $E:ident {
            $(
                $(#[$vm:meta])*
                $V:ident
                $( { $( $(#[$fm:meta])* $f:ident : $t:ty ),* $(,)? } )?
                $( ( $inner:ident ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$sm])*
        pub struct $S {
            $( $(#[$sfm])* pub $sf: $st, )*
        }

        impl $S {
            fn write_fields(&self, out: &mut Vec<(String, Json)>) {
                $( out.push((stringify!($sf).to_string(), self.$sf.to_wire())); )*
            }

            fn read_fields(v: &Json, kind: &str) -> Result<Self, String> {
                Ok($S { $( $sf: take(v, kind, stringify!($sf))?, )* })
            }
        }

        $(#[$em])*
        pub enum $E {
            $(
                $(#[$vm])*
                $V $( { $( $(#[$fm])* $f: $t, )* } )? $( ($inner) )?,
            )*
        }

        impl $E {
            /// Every kind tag, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$( stringify!($V) ),*];

            /// Stable kind tag used as the `t` field of a journal line.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $E::$V { .. } => stringify!($V), )*
                }
            }

            fn write_fields(&self, out: &mut Vec<(String, Json)>) {
                match self {
                    $(
                        $( $E::$V { $( $f ),* } => {
                            $( out.push((stringify!($f).to_string(), $f.to_wire())); )*
                        } )?
                        $( $E::$V(inner) => $inner::write_fields(inner, out), )?
                    )*
                }
            }

            /// Rebuilds a `kind` event from a parsed journal-line object.
            ///
            /// # Errors
            /// Reports the first missing/mistyped field or an unknown kind.
            fn read_fields(v: &Json, kind: &str) -> Result<Self, String> {
                $(
                    if kind == stringify!($V) {
                        return Ok(
                            $( $E::$V { $( $f: take(v, kind, stringify!($f))?, )* } )?
                            $( $E::$V($inner::read_fields(v, kind)?) )?
                        );
                    }
                )*
                Err(format!("unknown event kind '{kind}'"))
            }
        }
    };
}

journal_schema! {
    /// Per-epoch roll-up the controller emits once per control period — the
    /// journal's equivalent of one Fig. 15 timeline sample.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Snapshot {
        /// Epoch index within the day run.
        pub epoch: u64,
        /// Minute-of-day at the epoch start.
        pub minute: f64,
        /// Scheme that produced this epoch (e.g. `eprons`, `no-pm`).
        pub strategy: String,
        /// Chosen network configuration (e.g. `k=2`, `agg1`, `all-on`).
        pub choice: String,
        /// Server-side power draw, W.
        pub server_w: f64,
        /// Network-side power draw, W.
        pub network_w: f64,
        /// Switches left powered on.
        pub active_switches: u64,
        /// End-to-end p95 latency, µs.
        pub e2e_p95_us: f64,
        /// Whether the chosen config met the latency SLA.
        pub feasible: bool,
        /// One-shot switch boot/transition energy spent on repairs inside
        /// this epoch, J (0 for clean epochs). Audited against the epoch's
        /// `RepairOutcome` events by `obsctl audit`.
        pub boot_energy_j: f64,
    }

    /// A typed journal event. Field meanings are documented in README
    /// "Observability"; every variant maps onto one arrow of the paper's
    /// Fig. 7 control loop (see DESIGN.md).
    #[derive(Clone, Debug, PartialEq)]
    pub enum Event {
        /// A `simulate_day` sweep started.
        DayStart { strategy: String, epochs: u64 },
        /// One control epoch began (before the optimizer runs).
        EpochStart {
            epoch: u64,
            minute: f64,
            search_load: f64,
            background_util: f64,
        },
        /// Per-epoch roll-up after the optimizer committed a choice.
        EpochSnapshot(Snapshot),
        /// The joint optimizer evaluated one candidate network config.
        OptimizerCandidate {
            k: String,
            total_w: f64,
            p95_us: f64,
            feasible: bool,
        },
        /// A candidate's cluster evaluation failed outright (no result).
        CandidateFailed { k: String, error: String },
        /// The optimizer skipped a candidate without simulating it: its cheap
        /// power lower bound already exceeded the feasible incumbent's
        /// measured total, so it cannot win.
        CandidatePruned {
            k: String,
            bound_w: f64,
            incumbent_w: f64,
        },
        /// The optimizer committed to a candidate.
        OptimizerChoice {
            k: String,
            total_w: f64,
            p95_us: f64,
            feasible: bool,
            /// How many candidates produced a result this round.
            evaluated: u64,
        },
        /// One LP solve completed (two-phase simplex).
        LpSolve {
            rows: u64,
            cols: u64,
            iters: u64,
            binding_constraints: Vec<String>,
        },
        /// DVFS summary for one simulated core run (per-transition events
        /// would flood the journal at millions per day sweep).
        FreqTransition {
            policy: String,
            transitions: u64,
            decisions: u64,
            final_ghz: f64,
        },
        /// Links/switches toggled between two consecutive network configs.
        LinkStateChange {
            links_on: u64,
            links_off: u64,
            switches_on: u64,
            switches_off: u64,
        },
        /// One consolidation pass over a flow set completed.
        ConsolidationPass {
            algo: String,
            flows: u64,
            placed: u64,
            active_switches: u64,
        },
        /// One pod-decomposed consolidation pass completed: `solved` pods
        /// were solved in round 0, `resolves` re-solved under a tightened uplink budget after core-
        /// stitch push-back, over `rounds` stitch rounds of which `balanced`
        /// took the balanced-floor retry. `fallback` is true when the
        /// decomposition gave up and the monolithic path produced the
        /// assignment instead. The fields mirror the `net.pods.*` counters,
        /// so a journal alone reconstructs the counter view.
        PodConsolidation {
            pods: u64,
            solved: u64,
            resolves: u64,
            rounds: u64,
            balanced: u64,
            fallback: bool,
        },
        /// A recorder was driven with a clock that went backwards (recovered,
        /// not fatal — see `TimeWeighted::try_set`).
        ClockSkew { at_s: f64, last_s: f64 },
        /// Identifies one cluster evaluation (scheme × network config × seed).
        RunTag {
            scheme: String,
            consolidation: String,
            seed: u64,
        },
        /// A shared scenario context was built (stage 1 of the staged cluster
        /// pipeline): the per-(config, seed, load) state — topology, service
        /// model, query/background workloads — that every candidate
        /// evaluation against this scenario reuses.
        ScenarioBuilt {
            seed: u64,
            queries: u64,
            flows: u64,
            servers: u64,
        },
        /// Fault injection toggled a switch (kind is `fail` or `recover`).
        FailureInjected {
            switch: u64,
            minute: f64,
            kind: String,
        },
        /// One rung of the degradation ladder ran for a mid-epoch failure:
        /// outcome is `repaired`, `repair-failed`, `reconsolidated`,
        /// `all-on-fallback`, or `unprotected`.
        RepairOutcome {
            switch: u64,
            minute: f64,
            outcome: String,
            rerouted: u64,
            woken: u64,
            boot_energy_j: f64,
        },
        /// An epoch could not be held by in-place repair and fell down the
        /// ladder (or ran unprotected).
        DegradedEpoch {
            epoch: u64,
            reason: String,
            fallback: String,
        },
        /// A causal span opened (see `eprons_obs::Span`). `id` is process-wide
        /// and unique; `parent` is 0 for roots; `thread` is a dense
        /// per-process thread index; `start_s` is seconds since the process
        /// telemetry epoch (only deltas are meaningful).
        SpanStart {
            id: u64,
            parent: u64,
            thread: u64,
            name: String,
            start_s: f64,
        },
        /// The matching span closed after `elapsed_s` wall seconds. `detail`
        /// carries stage-specific stats (e.g. `rows=257 cols=334 pivots=327`), empty
        /// when unset.
        SpanEnd {
            id: u64,
            name: String,
            elapsed_s: f64,
            detail: String,
        },
        /// One time-weighted power segment of an epoch: total draw was
        /// (`server_w` + `network_w`) over minutes `[from_min, to_min)` of the
        /// day. Clean epochs emit one segment spanning the whole epoch;
        /// epochs with mid-epoch failures emit one per inter-event stretch.
        /// Integrating segments must reproduce the epoch snapshot's average
        /// power exactly (`obsctl audit` checks this).
        PowerSegment {
            epoch: u64,
            from_min: f64,
            to_min: f64,
            server_w: f64,
            network_w: f64,
        },
        /// Day-level energy roll-up emitted once at the end of a
        /// `simulate_day_with_failures` sweep: `energy_j` is the reported
        /// total (time-integrated power + boot energy), `boot_energy_j` the
        /// one-shot repair share included in it.
        DayEnergy {
            strategy: String,
            epochs: u64,
            energy_j: f64,
            boot_energy_j: f64,
        },
        /// The online controller deferred latency-tolerant background demand
        /// into the bounded queue: `mbps_min` megabit-minutes enqueued this
        /// epoch with a drain deadline `slack_epochs` epochs out;
        /// `queue_mbps_min` is the queue depth after the enqueue. `obsctl
        /// audit` conserves deferred bytes: per day, Σ enqueued ==
        /// Σ (drained + dropped).
        DeferralEnqueued {
            epoch: u64,
            mbps_min: f64,
            queue_mbps_min: f64,
            slack_epochs: u64,
        },
        /// The online controller drained deferred background demand into a
        /// trough (`drained_mbps_min`) and/or dropped entries whose slack
        /// budget expired (`dropped_mbps_min`); `queue_mbps_min` is the queue
        /// depth after both.
        DeferralDrained {
            epoch: u64,
            drained_mbps_min: f64,
            dropped_mbps_min: f64,
            queue_mbps_min: f64,
        },
        /// End-of-day report from one cross-epoch cache of a day-scoped
        /// incremental run (`cache` names it: `core.daycache` for the
        /// scenario-context cache, `core.evalcache` for the result memo,
        /// `server.serveval` for the stage-3 memos). Counters cover the
        /// day's own lookups; `bytes` is
        /// the approximate heap held when the day closed. `obsctl summarize`
        /// renders one table row per report.
        DayCacheReport {
            cache: String,
            hits: u64,
            misses: u64,
            evictions: u64,
            bytes: u64,
        },
    }
}

impl Snapshot {
    /// Total (server + network) power, W — must reconcile with
    /// `PowerBreakdown::total_w()`.
    pub fn total_w(&self) -> f64 {
        self.server_w + self.network_w
    }
}

/// One journal line: append index + event.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    pub seq: u64,
    pub event: Event,
}

impl JournalEntry {
    /// Serializes to one JSON-lines record (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("t".to_string(), Json::Str(self.event.kind().to_string())),
        ];
        self.event.write_fields(&mut fields);
        Json::Obj(fields).to_string()
    }

    /// Parses one JSON-lines record.
    ///
    /// # Errors
    /// Fails on malformed JSON, a missing `seq`, or an unknown event.
    pub fn from_json_line(line: &str) -> Result<JournalEntry, String> {
        let v = Json::parse(line)?;
        let seq = v
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("missing 'seq' field")?;
        let kind = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or("missing event tag 't'")?;
        Ok(JournalEntry {
            seq,
            event: Event::read_fields(&v, kind)?,
        })
    }
}

/// Events a journal holds before dropping new ones (a day sweep with
/// per-core summaries stays well under this; the cap only guards against
/// a runaway instrumentation loop).
pub const DEFAULT_JOURNAL_CAP: usize = 1 << 20;

/// Thread-safe in-memory event sink.
#[derive(Debug)]
pub struct Journal {
    entries: Mutex<Vec<JournalEntry>>,
    seq: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_JOURNAL_CAP)
    }
}

impl Journal {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            entries: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap,
        }
    }

    /// Appends an event, assigning it the next sequence number. Returns
    /// `true` if the event was stored; events past the capacity are
    /// counted in [`Journal::dropped`] instead and return `false` so the
    /// caller can surface the loss (the global sink bumps the
    /// `obs.journal.dropped` counter).
    pub fn record(&self, event: Event) -> bool {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap();
        if entries.len() < self.cap {
            entries.push(JournalEntry { seq, event });
            true
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }

    /// Events discarded because the cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out all entries in append order.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.entries.lock().unwrap().clone()
    }

    /// Drops all entries and restarts sequence numbering.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// The newest event `f` maps to `Some`, mapped, found without
    /// copying the journal.
    pub fn find_last<T>(&self, f: impl FnMut(&Event) -> Option<T>) -> Option<T> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .rev()
            .map(|e| &e.event)
            .find_map(f)
    }

    /// Counts entries of one kind (`Event::kind` tag).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// Serializes the whole journal as JSON-lines.
    pub fn to_jsonl(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut out = String::with_capacity(entries.len() * 96);
        for e in entries.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the journal as JSON-lines, returning the entry count. If
    /// events were dropped at the cap, warns on stderr — a silently
    /// truncated journal would fail `obsctl audit` in confusing ways.
    ///
    /// # Errors
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let dropped = self.dropped();
        if dropped > 0 {
            eprintln!(
                "warning: journal dropped {dropped} event(s) at cap {}; {} is incomplete",
                self.cap,
                path.display()
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let entries = self.snapshot();
        for e in &entries {
            writeln!(f, "{}", e.to_json_line())?;
        }
        f.flush()?;
        Ok(entries.len())
    }
}

/// Parses a JSON-lines journal dump (blank lines skipped).
///
/// # Errors
/// Reports the first malformed line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEntry>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| JournalEntry::from_json_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_is_dense_and_ordered() {
        let j = Journal::new();
        for epochs in 0..24 {
            j.record(Event::DayStart {
                strategy: "eprons".into(),
                epochs,
            });
        }
        for (i, e) in j.snapshot().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn find_last_returns_the_newest_match() {
        let j = Journal::new();
        for epochs in [3, 7, 5] {
            j.record(Event::DayStart {
                strategy: if epochs == 5 { "b" } else { "a" }.into(),
                epochs,
            });
        }
        let last_a = |e: &Event| match e {
            Event::DayStart { strategy, epochs } if strategy == "a" => Some(*epochs),
            _ => None,
        };
        assert_eq!(j.find_last(last_a), Some(7));
        assert_eq!(Journal::new().find_last(last_a), None);
    }

    #[test]
    fn cap_drops_overflow_and_counts_it() {
        let j = Journal::with_capacity(2);
        for _ in 0..5 {
            j.record(Event::DayStart {
                strategy: "x".into(),
                epochs: 1,
            });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn parse_reports_malformed_line() {
        let err = parse_jsonl(
            "{\"seq\":0,\"t\":\"DayStart\",\"strategy\":\"a\",\"epochs\":1}\nnot json\n",
        )
        .unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = JournalEntry::from_json_line("{\"seq\":0,\"t\":\"Nope\"}").unwrap_err();
        assert!(err.contains("unknown event kind"), "got: {err}");
    }

    #[test]
    fn escaped_error_strings_survive() {
        let j = Journal::new();
        j.record(Event::CandidateFailed {
            k: "k=8".into(),
            error: "path \"a\\b\"\nline2".into(),
        });
        let parsed = parse_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(parsed, j.snapshot());
    }

    #[test]
    fn concurrent_records_all_land() {
        let j = Journal::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..500 {
                        j.record(Event::EpochStart {
                            epoch: i,
                            minute: i as f64,
                            search_load: 0.5,
                            background_util: 0.1,
                        });
                    }
                });
            }
        });
        assert_eq!(j.len(), 4000);
        let mut seqs: Vec<u64> = j.snapshot().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..4000).collect::<Vec<_>>());
    }
}
