//! Structured run journal: typed events, in-memory sink, JSON-lines
//! export/import.
//!
//! One journal line is one event object: `{"seq":12,"t":"OptimizerChoice",
//! ...fields}`. `seq` is a process-wide append index so interleaved
//! per-epoch threads can be re-ordered offline; `t` is the event kind.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

impl Snapshot {
    /// Total (server + network) power, W — must reconcile with
    /// `PowerBreakdown::total_w()`.
    pub fn total_w(&self) -> f64 {
        self.server_w + self.network_w
    }
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
    /// were solved fresh, `cached` served from the pod-solve cache,
    /// `resolves` re-solved under a tightened uplink budget after core-
    /// stitch push-back, over `rounds` stitch rounds of which `balanced`
    /// took the balanced-floor retry. `fallback` is true when the
    /// decomposition gave up and the monolithic path produced the
    /// assignment instead. The fields mirror the `net.pods.*` counters,
    /// so a journal alone reconstructs the counter view.
    PodConsolidation {
        pods: u64,
        solved: u64,
        cached: u64,
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
    /// carries stage-specific stats (e.g. `pivots=131 warm=true`), empty
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
    /// The online controller held the previous epoch's configuration
    /// instead of switching to the optimizer's `desired` pick: either the
    /// priced transition would not pay back its energy within the
    /// configured horizon, or a switch it would toggle is still cooling
    /// down. `saving_w` is what switching would have saved per second,
    /// `transition_j` the priced cost of the toggle.
    HysteresisHold {
        epoch: u64,
        desired: String,
        held: String,
        saving_w: f64,
        transition_j: f64,
        reason: String,
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
    /// `server.serveval` for the stage-3 reuse lists). Counters cover
    /// the whole day; `bytes` is
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

impl Event {
    /// Stable kind tag used as the `t` field of a journal line.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DayStart { .. } => "DayStart",
            Event::EpochStart { .. } => "EpochStart",
            Event::EpochSnapshot(_) => "EpochSnapshot",
            Event::OptimizerCandidate { .. } => "OptimizerCandidate",
            Event::CandidateFailed { .. } => "CandidateFailed",
            Event::CandidatePruned { .. } => "CandidatePruned",
            Event::OptimizerChoice { .. } => "OptimizerChoice",
            Event::LpSolve { .. } => "LpSolve",
            Event::FreqTransition { .. } => "FreqTransition",
            Event::LinkStateChange { .. } => "LinkStateChange",
            Event::ConsolidationPass { .. } => "ConsolidationPass",
            Event::PodConsolidation { .. } => "PodConsolidation",
            Event::ClockSkew { .. } => "ClockSkew",
            Event::RunTag { .. } => "RunTag",
            Event::ScenarioBuilt { .. } => "ScenarioBuilt",
            Event::FailureInjected { .. } => "FailureInjected",
            Event::RepairOutcome { .. } => "RepairOutcome",
            Event::DegradedEpoch { .. } => "DegradedEpoch",
            Event::SpanStart { .. } => "SpanStart",
            Event::SpanEnd { .. } => "SpanEnd",
            Event::PowerSegment { .. } => "PowerSegment",
            Event::DayEnergy { .. } => "DayEnergy",
            Event::HysteresisHold { .. } => "HysteresisHold",
            Event::DeferralEnqueued { .. } => "DeferralEnqueued",
            Event::DeferralDrained { .. } => "DeferralDrained",
            Event::DayCacheReport { .. } => "DayCacheReport",
        }
    }

    fn fields(&self) -> Vec<(String, Json)> {
        fn s(v: &str) -> Json {
            Json::Str(v.to_string())
        }
        fn n(v: f64) -> Json {
            Json::Num(v)
        }
        fn u(v: u64) -> Json {
            Json::Num(v as f64)
        }
        fn b(v: bool) -> Json {
            Json::Bool(v)
        }
        let f =
            |pairs: Vec<(&str, Json)>| pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        match self {
            Event::DayStart { strategy, epochs } => {
                f(vec![("strategy", s(strategy)), ("epochs", u(*epochs))])
            }
            Event::EpochStart {
                epoch,
                minute,
                search_load,
                background_util,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("minute", n(*minute)),
                ("search_load", n(*search_load)),
                ("background_util", n(*background_util)),
            ]),
            Event::EpochSnapshot(snap) => f(vec![
                ("epoch", u(snap.epoch)),
                ("minute", n(snap.minute)),
                ("strategy", s(&snap.strategy)),
                ("choice", s(&snap.choice)),
                ("server_w", n(snap.server_w)),
                ("network_w", n(snap.network_w)),
                ("active_switches", u(snap.active_switches)),
                ("e2e_p95_us", n(snap.e2e_p95_us)),
                ("feasible", b(snap.feasible)),
                ("boot_energy_j", n(snap.boot_energy_j)),
            ]),
            Event::OptimizerCandidate {
                k,
                total_w,
                p95_us,
                feasible,
            } => f(vec![
                ("k", s(k)),
                ("total_w", n(*total_w)),
                ("p95_us", n(*p95_us)),
                ("feasible", b(*feasible)),
            ]),
            Event::CandidateFailed { k, error } => f(vec![("k", s(k)), ("error", s(error))]),
            Event::CandidatePruned {
                k,
                bound_w,
                incumbent_w,
            } => f(vec![
                ("k", s(k)),
                ("bound_w", n(*bound_w)),
                ("incumbent_w", n(*incumbent_w)),
            ]),
            Event::OptimizerChoice {
                k,
                total_w,
                p95_us,
                feasible,
                evaluated,
            } => f(vec![
                ("k", s(k)),
                ("total_w", n(*total_w)),
                ("p95_us", n(*p95_us)),
                ("feasible", b(*feasible)),
                ("evaluated", u(*evaluated)),
            ]),
            Event::LpSolve {
                rows,
                cols,
                iters,
                binding_constraints,
            } => f(vec![
                ("rows", u(*rows)),
                ("cols", u(*cols)),
                ("iters", u(*iters)),
                (
                    "binding_constraints",
                    Json::Arr(binding_constraints.iter().map(|c| s(c)).collect()),
                ),
            ]),
            Event::FreqTransition {
                policy,
                transitions,
                decisions,
                final_ghz,
            } => f(vec![
                ("policy", s(policy)),
                ("transitions", u(*transitions)),
                ("decisions", u(*decisions)),
                ("final_ghz", n(*final_ghz)),
            ]),
            Event::LinkStateChange {
                links_on,
                links_off,
                switches_on,
                switches_off,
            } => f(vec![
                ("links_on", u(*links_on)),
                ("links_off", u(*links_off)),
                ("switches_on", u(*switches_on)),
                ("switches_off", u(*switches_off)),
            ]),
            Event::ConsolidationPass {
                algo,
                flows,
                placed,
                active_switches,
            } => f(vec![
                ("algo", s(algo)),
                ("flows", u(*flows)),
                ("placed", u(*placed)),
                ("active_switches", u(*active_switches)),
            ]),
            Event::PodConsolidation {
                pods,
                solved,
                cached,
                resolves,
                rounds,
                balanced,
                fallback,
            } => f(vec![
                ("pods", u(*pods)),
                ("solved", u(*solved)),
                ("cached", u(*cached)),
                ("resolves", u(*resolves)),
                ("rounds", u(*rounds)),
                ("balanced", u(*balanced)),
                ("fallback", b(*fallback)),
            ]),
            Event::ClockSkew { at_s, last_s } => {
                f(vec![("at_s", n(*at_s)), ("last_s", n(*last_s))])
            }
            Event::RunTag {
                scheme,
                consolidation,
                seed,
            } => f(vec![
                ("scheme", s(scheme)),
                ("consolidation", s(consolidation)),
                ("seed", u(*seed)),
            ]),
            Event::ScenarioBuilt {
                seed,
                queries,
                flows,
                servers,
            } => f(vec![
                ("seed", u(*seed)),
                ("queries", u(*queries)),
                ("flows", u(*flows)),
                ("servers", u(*servers)),
            ]),
            Event::FailureInjected {
                switch,
                minute,
                kind,
            } => f(vec![
                ("switch", u(*switch)),
                ("minute", n(*minute)),
                ("kind", s(kind)),
            ]),
            Event::RepairOutcome {
                switch,
                minute,
                outcome,
                rerouted,
                woken,
                boot_energy_j,
            } => f(vec![
                ("switch", u(*switch)),
                ("minute", n(*minute)),
                ("outcome", s(outcome)),
                ("rerouted", u(*rerouted)),
                ("woken", u(*woken)),
                ("boot_energy_j", n(*boot_energy_j)),
            ]),
            Event::DegradedEpoch {
                epoch,
                reason,
                fallback,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("reason", s(reason)),
                ("fallback", s(fallback)),
            ]),
            Event::SpanStart {
                id,
                parent,
                thread,
                name,
                start_s,
            } => f(vec![
                ("id", u(*id)),
                ("parent", u(*parent)),
                ("thread", u(*thread)),
                ("name", s(name)),
                ("start_s", n(*start_s)),
            ]),
            Event::SpanEnd {
                id,
                name,
                elapsed_s,
                detail,
            } => f(vec![
                ("id", u(*id)),
                ("name", s(name)),
                ("elapsed_s", n(*elapsed_s)),
                ("detail", s(detail)),
            ]),
            Event::PowerSegment {
                epoch,
                from_min,
                to_min,
                server_w,
                network_w,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("from_min", n(*from_min)),
                ("to_min", n(*to_min)),
                ("server_w", n(*server_w)),
                ("network_w", n(*network_w)),
            ]),
            Event::DayEnergy {
                strategy,
                epochs,
                energy_j,
                boot_energy_j,
            } => f(vec![
                ("strategy", s(strategy)),
                ("epochs", u(*epochs)),
                ("energy_j", n(*energy_j)),
                ("boot_energy_j", n(*boot_energy_j)),
            ]),
            Event::HysteresisHold {
                epoch,
                desired,
                held,
                saving_w,
                transition_j,
                reason,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("desired", s(desired)),
                ("held", s(held)),
                ("saving_w", n(*saving_w)),
                ("transition_j", n(*transition_j)),
                ("reason", s(reason)),
            ]),
            Event::DeferralEnqueued {
                epoch,
                mbps_min,
                queue_mbps_min,
                slack_epochs,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("mbps_min", n(*mbps_min)),
                ("queue_mbps_min", n(*queue_mbps_min)),
                ("slack_epochs", u(*slack_epochs)),
            ]),
            Event::DeferralDrained {
                epoch,
                drained_mbps_min,
                dropped_mbps_min,
                queue_mbps_min,
            } => f(vec![
                ("epoch", u(*epoch)),
                ("drained_mbps_min", n(*drained_mbps_min)),
                ("dropped_mbps_min", n(*dropped_mbps_min)),
                ("queue_mbps_min", n(*queue_mbps_min)),
            ]),
            Event::DayCacheReport {
                cache,
                hits,
                misses,
                evictions,
                bytes,
            } => f(vec![
                ("cache", s(cache)),
                ("hits", u(*hits)),
                ("misses", u(*misses)),
                ("evictions", u(*evictions)),
                ("bytes", u(*bytes)),
            ]),
        }
    }

    /// Rebuilds an event from a parsed journal-line object (without the
    /// `seq` field).
    ///
    /// # Errors
    /// Reports the missing/mistyped field or unknown kind.
    pub fn from_json(v: &Json) -> Result<Event, String> {
        let kind = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or("missing event tag 't'")?;
        let fs = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{kind}: missing string field '{key}'"))
        };
        let fn_ = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{kind}: missing numeric field '{key}'"))
        };
        let fu = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("{kind}: missing integer field '{key}'"))
        };
        let fb = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or(format!("{kind}: missing bool field '{key}'"))
        };
        Ok(match kind {
            "DayStart" => Event::DayStart {
                strategy: fs("strategy")?,
                epochs: fu("epochs")?,
            },
            "EpochStart" => Event::EpochStart {
                epoch: fu("epoch")?,
                minute: fn_("minute")?,
                search_load: fn_("search_load")?,
                background_util: fn_("background_util")?,
            },
            "EpochSnapshot" => Event::EpochSnapshot(Snapshot {
                epoch: fu("epoch")?,
                minute: fn_("minute")?,
                strategy: fs("strategy")?,
                choice: fs("choice")?,
                server_w: fn_("server_w")?,
                network_w: fn_("network_w")?,
                active_switches: fu("active_switches")?,
                e2e_p95_us: fn_("e2e_p95_us")?,
                feasible: fb("feasible")?,
                boot_energy_j: fn_("boot_energy_j")?,
            }),
            "OptimizerCandidate" => Event::OptimizerCandidate {
                k: fs("k")?,
                total_w: fn_("total_w")?,
                p95_us: fn_("p95_us")?,
                feasible: fb("feasible")?,
            },
            "CandidateFailed" => Event::CandidateFailed {
                k: fs("k")?,
                error: fs("error")?,
            },
            "CandidatePruned" => Event::CandidatePruned {
                k: fs("k")?,
                bound_w: fn_("bound_w")?,
                incumbent_w: fn_("incumbent_w")?,
            },
            "OptimizerChoice" => Event::OptimizerChoice {
                k: fs("k")?,
                total_w: fn_("total_w")?,
                p95_us: fn_("p95_us")?,
                feasible: fb("feasible")?,
                evaluated: fu("evaluated")?,
            },
            "LpSolve" => Event::LpSolve {
                rows: fu("rows")?,
                cols: fu("cols")?,
                iters: fu("iters")?,
                binding_constraints: v
                    .get("binding_constraints")
                    .and_then(Json::as_arr)
                    .ok_or("LpSolve: missing 'binding_constraints'")?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or("LpSolve: non-string constraint name".to_string())
                    })
                    .collect::<Result<_, _>>()?,
            },
            "FreqTransition" => Event::FreqTransition {
                policy: fs("policy")?,
                transitions: fu("transitions")?,
                decisions: fu("decisions")?,
                final_ghz: fn_("final_ghz")?,
            },
            "LinkStateChange" => Event::LinkStateChange {
                links_on: fu("links_on")?,
                links_off: fu("links_off")?,
                switches_on: fu("switches_on")?,
                switches_off: fu("switches_off")?,
            },
            "ConsolidationPass" => Event::ConsolidationPass {
                algo: fs("algo")?,
                flows: fu("flows")?,
                placed: fu("placed")?,
                active_switches: fu("active_switches")?,
            },
            "PodConsolidation" => Event::PodConsolidation {
                pods: fu("pods")?,
                solved: fu("solved")?,
                cached: fu("cached")?,
                resolves: fu("resolves")?,
                rounds: fu("rounds")?,
                balanced: fu("balanced")?,
                fallback: fb("fallback")?,
            },
            "ClockSkew" => Event::ClockSkew {
                at_s: fn_("at_s")?,
                last_s: fn_("last_s")?,
            },
            "ScenarioBuilt" => Event::ScenarioBuilt {
                seed: fu("seed")?,
                queries: fu("queries")?,
                flows: fu("flows")?,
                servers: fu("servers")?,
            },
            "RunTag" => Event::RunTag {
                scheme: fs("scheme")?,
                consolidation: fs("consolidation")?,
                seed: fu("seed")?,
            },
            "FailureInjected" => Event::FailureInjected {
                switch: fu("switch")?,
                minute: fn_("minute")?,
                kind: fs("kind")?,
            },
            "RepairOutcome" => Event::RepairOutcome {
                switch: fu("switch")?,
                minute: fn_("minute")?,
                outcome: fs("outcome")?,
                rerouted: fu("rerouted")?,
                woken: fu("woken")?,
                boot_energy_j: fn_("boot_energy_j")?,
            },
            "DegradedEpoch" => Event::DegradedEpoch {
                epoch: fu("epoch")?,
                reason: fs("reason")?,
                fallback: fs("fallback")?,
            },
            "SpanStart" => Event::SpanStart {
                id: fu("id")?,
                parent: fu("parent")?,
                thread: fu("thread")?,
                name: fs("name")?,
                start_s: fn_("start_s")?,
            },
            "SpanEnd" => Event::SpanEnd {
                id: fu("id")?,
                name: fs("name")?,
                elapsed_s: fn_("elapsed_s")?,
                detail: fs("detail")?,
            },
            "PowerSegment" => Event::PowerSegment {
                epoch: fu("epoch")?,
                from_min: fn_("from_min")?,
                to_min: fn_("to_min")?,
                server_w: fn_("server_w")?,
                network_w: fn_("network_w")?,
            },
            "DayEnergy" => Event::DayEnergy {
                strategy: fs("strategy")?,
                epochs: fu("epochs")?,
                energy_j: fn_("energy_j")?,
                boot_energy_j: fn_("boot_energy_j")?,
            },
            "HysteresisHold" => Event::HysteresisHold {
                epoch: fu("epoch")?,
                desired: fs("desired")?,
                held: fs("held")?,
                saving_w: fn_("saving_w")?,
                transition_j: fn_("transition_j")?,
                reason: fs("reason")?,
            },
            "DeferralEnqueued" => Event::DeferralEnqueued {
                epoch: fu("epoch")?,
                mbps_min: fn_("mbps_min")?,
                queue_mbps_min: fn_("queue_mbps_min")?,
                slack_epochs: fu("slack_epochs")?,
            },
            "DeferralDrained" => Event::DeferralDrained {
                epoch: fu("epoch")?,
                drained_mbps_min: fn_("drained_mbps_min")?,
                dropped_mbps_min: fn_("dropped_mbps_min")?,
                queue_mbps_min: fn_("queue_mbps_min")?,
            },
            "DayCacheReport" => Event::DayCacheReport {
                cache: fs("cache")?,
                hits: fu("hits")?,
                misses: fu("misses")?,
                evictions: fu("evictions")?,
                bytes: fu("bytes")?,
            },
            other => return Err(format!("unknown event kind '{other}'")),
        })
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
        fields.extend(self.event.fields());
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
        Ok(JournalEntry {
            seq,
            event: Event::from_json(&v)?,
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

    /// Removes and returns all entries (sequence numbering continues).
    pub fn drain(&self) -> Vec<JournalEntry> {
        std::mem::take(&mut *self.entries.lock().unwrap())
    }

    /// Drops all entries and restarts sequence numbering.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
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

    fn sample_events() -> Vec<Event> {
        vec![
            Event::DayStart {
                strategy: "eprons".into(),
                epochs: 144,
            },
            Event::EpochStart {
                epoch: 3,
                minute: 30.0,
                search_load: 0.62,
                background_util: 0.25,
            },
            Event::OptimizerCandidate {
                k: "k=2".into(),
                total_w: 5120.5,
                p95_us: 61_250.0,
                feasible: true,
            },
            Event::CandidateFailed {
                k: "agg3".into(),
                error: "no feasible path for flow 7".into(),
            },
            Event::CandidatePruned {
                k: "agg0".into(),
                bound_w: 1356.8,
                incumbent_w: 1212.4,
            },
            Event::OptimizerChoice {
                k: "k=2".into(),
                total_w: 5120.5,
                p95_us: 61_250.0,
                feasible: true,
                evaluated: 4,
            },
            Event::LpSolve {
                rows: 48,
                cols: 96,
                iters: 131,
                binding_constraints: vec!["cap[e12]".into(), "demand[f3]".into()],
            },
            Event::FreqTransition {
                policy: "eprons".into(),
                transitions: 812,
                decisions: 4096,
                final_ghz: 1.8,
            },
            Event::LinkStateChange {
                links_on: 2,
                links_off: 14,
                switches_on: 0,
                switches_off: 3,
            },
            Event::ConsolidationPass {
                algo: "greedy".into(),
                flows: 272,
                placed: 272,
                active_switches: 12,
            },
            Event::PodConsolidation {
                pods: 16,
                solved: 14,
                cached: 2,
                resolves: 1,
                rounds: 2,
                balanced: 1,
                fallback: false,
            },
            Event::ClockSkew {
                at_s: 1.25,
                last_s: 1.5,
            },
            Event::RunTag {
                scheme: "eprons".into(),
                consolidation: "k=1.5".into(),
                seed: 2018,
            },
            Event::EpochSnapshot(Snapshot {
                epoch: 3,
                minute: 30.0,
                strategy: "eprons".into(),
                choice: "k=2".into(),
                server_w: 4000.0,
                network_w: 1120.5,
                active_switches: 12,
                e2e_p95_us: 61_250.0,
                feasible: true,
                boot_energy_j: 2610.72,
            }),
            Event::FailureInjected {
                switch: 17,
                minute: 730.5,
                kind: "fail".into(),
            },
            Event::RepairOutcome {
                switch: 17,
                minute: 730.5,
                outcome: "repaired".into(),
                rerouted: 6,
                woken: 1,
                boot_energy_j: 2610.72,
            },
            Event::DegradedEpoch {
                epoch: 73,
                reason: "switch 17 failed mid-epoch; repair found no path".into(),
                fallback: "all-on-fallback".into(),
            },
            Event::SpanStart {
                id: 42,
                parent: 7,
                thread: 3,
                name: "stage.server_eval".into(),
                start_s: 0.0051234,
            },
            Event::SpanEnd {
                id: 42,
                name: "stage.server_eval".into(),
                elapsed_s: 0.0132,
                detail: "servers=16".into(),
            },
            Event::PowerSegment {
                epoch: 73,
                from_min: 730.0,
                to_min: 730.5,
                server_w: 4000.0,
                network_w: 1120.5,
            },
            Event::DayEnergy {
                strategy: "eprons".into(),
                epochs: 144,
                energy_j: 4.42e8,
                boot_energy_j: 5221.44,
            },
            Event::HysteresisHold {
                epoch: 74,
                desired: "agg2".into(),
                held: "agg1".into(),
                saving_w: 12.5,
                transition_j: 5221.44,
                reason: "payback".into(),
            },
            Event::DeferralEnqueued {
                epoch: 75,
                mbps_min: 1200.0,
                queue_mbps_min: 1800.0,
                slack_epochs: 6,
            },
            Event::DeferralDrained {
                epoch: 76,
                drained_mbps_min: 900.0,
                dropped_mbps_min: 0.0,
                queue_mbps_min: 900.0,
            },
            Event::DayCacheReport {
                cache: "core.daycache".into(),
                hits: 130,
                misses: 14,
                evictions: 2,
                bytes: 18_874_368,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_preserves_every_event() {
        let j = Journal::new();
        for e in sample_events() {
            j.record(e);
        }
        let text = j.to_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, j.snapshot());
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let j = Journal::new();
        for e in sample_events() {
            j.record(e);
        }
        for (i, e) in j.snapshot().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
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
