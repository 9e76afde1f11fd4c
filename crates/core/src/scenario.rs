//! The staged cluster-evaluation pipeline.
//!
//! The joint optimizer (§IV) and the 10-minute SDN control loop (§IV-B)
//! evaluate the *same* scenario — one (config, seed, load) point — under
//! many candidate network configurations. The monolithic `run_cluster`
//! used to rebuild the fat-tree, the Xapian service model, and the
//! query/background workloads from scratch for every candidate; this
//! module splits one evaluation into four explicit stages so the
//! per-candidate cost is the delta, not the world:
//!
//! 1. [`ScenarioContext::build`] — once per [`ScenarioSpec`]: topology,
//!    service model, query arrivals, background + query flow sets, and
//!    the RNG snapshots every candidate replays. Heavy state lives behind
//!    one `Arc`, so contexts clone cheaply across threads.
//! 2. `NetworkPlan::build_masked` — per [`ConsolidationSpec`]: consolidation
//!    plus per-sub-query network latency sampling along the assigned
//!    paths. It runs once per result-memo miss; the constraint and scheme
//!    sweeps of Figs. 12–13 share one plan per candidate through
//!    [`ScenarioContext::evaluate_grid`]. A day-scoped context takes the
//!    consolidation from its [`DayContext`]'s memo when one at the same
//!    background level already ran it.
//! 3. [`ServerEvaluation::run`] — per (plan, [`ServerScheme`], SLA): the
//!    per-ISN DVFS simulations with the plan's request slack folded into
//!    each request's compute budget.
//! 4. `accounting::assemble` — power and tail-latency accounting
//!    across both layers, producing a [`ClusterRunResult`].
//!
//! **Bit-identity contract.** The staged path produces results identical
//! to the monolithic path bit for bit, at any thread count and whether a
//! context is fresh or shared. The RNG streams make this work: the master
//! RNG's five forks are drawn in the original order during `build`, the
//! unconsumed network-latency stream (fork 4) is *stored* and cloned by
//! every `NetworkPlan`, and the per-server seeds (fork 5) are drawn
//! serially at build time — exactly the streams the monolith consumed per
//! call. `crates/core/tests/determinism.rs` pins this with a golden
//! equality test over every `ServerScheme` × `AggregationLevel` pair.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eprons_net::consolidate::pod::{consolidate_pod_decomposed, PodRunner};
use eprons_net::consolidate::AggregationRouter;
use eprons_net::flow::FlowSet;
use eprons_net::links::direction_from;
use eprons_net::{
    Assignment, ConsolidationConfig, Consolidator, FlowClass, FlowId, GreedyConsolidator, PathArena,
};
use eprons_server::policy::DvfsPolicy;
use eprons_server::request::budget_with_network_slack;
use eprons_server::{
    simulate_core, ArrivalSpec, AvgVpPolicy, CoreSimConfig, DeepSleepPolicy, MaxFreqPolicy,
    MaxVpPolicy, ServiceModel, TimeTraderPolicy, VpEngine, VpLadder,
};
use eprons_sim::SimRng;
use eprons_topo::{AggregationLevel, FatTree, NodeId};
use eprons_workload::background::background_flows;
use eprons_workload::{xapian_like_samples, Query, QueryGenerator};

use crate::cluster::{ClusterError, ClusterRun, ClusterRunResult, ConsolidationSpec, ServerScheme};
use crate::config::{ClusterConfig, ConsolidateStrategy, SlaConfig};
use crate::memo::{Memo, Tally};
use crate::parallel::{parallel_map, parallel_map_range};

/// Index of a scheme for cache keying (fieldless enum — every scheme
/// parameter lives in [`ClusterConfig`], fixed per context).
fn scheme_index(scheme: ServerScheme) -> u8 {
    match scheme {
        ServerScheme::NoPowerManagement => 0,
        ServerScheme::Rubik => 1,
        ServerScheme::RubikPlus => 2,
        ServerScheme::TimeTrader => 3,
        ServerScheme::EpronsServer => 4,
        ServerScheme::DeepSleep => 5,
    }
}

/// The stage-2 half of a result-memo key: the candidate collapsed to raw
/// bits (discriminant + level index / `K` bits), the effective
/// consolidation architecture (only `GreedyK` plans depend on it —
/// normalized to 0 elsewhere), plus the normalized mask.
type PlanKey = (u8, u64, u8, Vec<usize>);

/// `mask` must already be sorted and deduplicated.
fn plan_key(spec: ConsolidationSpec, strategy: ConsolidateStrategy, mask: &[NodeId]) -> PlanKey {
    let (tag, bits, strat) = match spec {
        ConsolidationSpec::AllOn => (0u8, 0u64, 0u8),
        ConsolidationSpec::Level(l) => (1, l as u64, 0),
        ConsolidationSpec::GreedyK(k) => (
            2,
            k.to_bits(),
            match strategy {
                ConsolidateStrategy::Monolithic => 0,
                ConsolidateStrategy::PodDecomposed => 1,
                ConsolidateStrategy::Auto => unreachable!("strategy resolved before keying"),
            },
        ),
    };
    (tag, bits, strat, mask.iter().map(|n| n.0).collect())
}

/// What stages 3–4 read beyond the plan that varies within a context:
/// the scheme index. The SLA is fixed per `data`: every context that
/// shares it carries the `cfg` it was built with, and
/// [`ScenarioContext::evaluate_grid`] runs its other SLAs memo-free, so no
/// memo is ever reached under a second SLA.
type EvalTag = u8;

/// Memo key for one full evaluation result: the evaluation tag over the
/// plan key.
type EvalKey = (EvalTag, PlanKey);

/// Memo key for one stage-3 run: what stage 3 reads that varies within
/// a context — the evaluation tag, and the plan's `congested` flag and
/// sampled `net_lat` — hashed and compared bit for bit through the plan
/// they came from. A masked candidate that routes differently but
/// samples identical latencies has the same key.
#[derive(Debug)]
pub(crate) struct StageThreeKey {
    tag: EvalTag,
    plan: Arc<NetworkPlan>,
    /// A fold of every bit of `net_lat`, taken once: the map hashes a
    /// key on lookup and again on insert, and `net_lat` holds one entry
    /// per sub-query.
    digest: u64,
}

impl StageThreeKey {
    fn new(tag: EvalTag, plan: &Arc<NetworkPlan>) -> StageThreeKey {
        let mut key = StageThreeKey {
            tag,
            plan: Arc::clone(plan),
            digest: 0,
        };
        // One FxHash step per word: cheap, and equality settles collisions.
        key.digest = key.net_lat_bits().fold(0, |h, w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        key
    }

    /// Every `net_lat` entry as raw bits, each query's list prefixed by
    /// its length so equal streams mean equal lists.
    fn net_lat_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.plan.net_lat.iter().flat_map(|q| {
            std::iter::once(q.len() as u64).chain(
                q.iter()
                    .flat_map(|&(s, req, rep)| [s as u64, req.to_bits(), rep.to_bits()]),
            )
        })
    }
}

impl Hash for StageThreeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tag.hash(state);
        self.plan.congested.hash(state);
        self.digest.hash(state);
    }
}

impl PartialEq for StageThreeKey {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag
            && self.plan.congested == other.plan.congested
            && self.plan.net_lat.len() == other.plan.net_lat.len()
            && self.net_lat_bits().eq(other.net_lat_bits())
    }
}

impl Eq for StageThreeKey {}

/// Memo value for one full evaluation: the result, or the error the
/// evaluation deterministically fails with.
type EvalOutcome = Result<ClusterRunResult, ClusterError>;

/// Memo key for one candidate power floor: (scheme, candidate tag,
/// candidate bits, mask). `GreedyK` collapses its `K` bits to 0 — the
/// bound counts mandatory elements only, so every rung of a K ladder
/// shares one floor (mirroring the optimizer's per-ladder sharing).
type FloorKey = (u8, u8, u64, Vec<usize>);

/// The background level a day's consolidation memo holds: the master
/// seed and the background fraction's bits. Given the day's `cfg`, the
/// flow set — everything a consolidation or a power floor reads that
/// varies between a day's contexts — is a pure function of these two;
/// the search load moves only the query arrivals.
type LevelKey = (u64, u64);

/// One consolidation's outcome: the assignment, shared by `Arc` with
/// every plan built on it, or the error it deterministically fails with.
type Consolidated = Result<Arc<Assignment>, ClusterError>;

/// A day's consolidation memo: the consolidations and candidate power
/// floors of one background level, shared by every context a
/// [`DayContext`] builds or rebinds. Contexts at one level differ only in
/// their search load, which neither reads, so a rebind at an unchanged
/// level reuses what its predecessors computed.
///
/// Keys carry their level, so an entry is never served at another one;
/// the memo holds one level at a time — a lookup at a new level empties
/// it first. Failures are cached too, as the result memo caches them.
#[derive(Debug)]
pub(crate) struct DayMemo {
    /// The level the entries belong to.
    level: Mutex<Option<LevelKey>>,
    consolidations: Memo<(LevelKey, PlanKey), Consolidated>,
    floors: Memo<(LevelKey, FloorKey), f64>,
}

impl DayMemo {
    fn new() -> DayMemo {
        DayMemo {
            level: Mutex::new(None),
            consolidations: Memo::new(Tally::named(
                "core.consolidation.hits",
                "core.consolidation.misses",
            )),
            floors: Memo::new(Tally::default()),
        }
    }

    /// Empties the memo when `level` is not the one it holds. A lookup
    /// racing a level change at most leaves one stale entry behind until
    /// the next change; its key's level keeps it from being served.
    fn enter(&self, level: LevelKey) {
        let mut held = self.level.lock().unwrap_or_else(|e| e.into_inner());
        if *held != Some(level) {
            self.consolidations.clear();
            self.floors.clear();
            *held = Some(level);
        }
    }

    /// Approximate bytes held: each assignment's pools and link state,
    /// each floor entry and its mask.
    fn bytes(&self) -> usize {
        self.consolidations.sum(|(_, (.., mask)), c| {
            std::mem::size_of::<Consolidated>()
                + mask.len() * std::mem::size_of::<usize>()
                + c.as_ref().map_or(0, |a| a.heap_bytes())
        }) + self.floors.sum(|(_, (.., mask)), _| {
            std::mem::size_of::<((LevelKey, FloorKey), f64)>()
                + mask.len() * std::mem::size_of::<usize>()
        })
    }
}

/// The axes a [`ScenarioContext`] is keyed by: everything in a
/// [`ClusterRun`] except the per-candidate network configuration and the
/// per-evaluation server scheme (neither feeds the workload build).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Target per-ISN utilization (drives the query rate).
    pub server_utilization: f64,
    /// Background traffic as a fraction of link capacity (0 disables).
    pub background_util: f64,
    /// Simulated seconds of query arrivals *measured*.
    pub duration_s: f64,
    /// Warmup seconds simulated before measurement starts.
    pub warmup_s: f64,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The scenario axes of a [`ClusterRun`] (its scheme and consolidation
    /// are per-evaluation inputs, not scenario state).
    pub fn of_run(run: &ClusterRun) -> ScenarioSpec {
        ScenarioSpec {
            server_utilization: run.server_utilization,
            background_util: run.background_util,
            duration_s: run.duration_s,
            warmup_s: run.warmup_s,
            seed: run.seed,
        }
    }
}

/// The expensive immutable state of one scenario, built once and shared
/// (via `Arc`) by every candidate evaluation against it.
#[derive(Debug)]
pub(crate) struct ScenarioData {
    /// Behind an `Arc` (like `arena`) so [`ScenarioContext::rebind_demand`]
    /// can share the topology across the demand-rebound contexts of one
    /// day instead of rebuilding or deep-copying it per epoch.
    pub(crate) ft: Arc<FatTree>,
    /// Per-pair candidate paths, enumerated once. Every consolidator the
    /// candidate ladder runs asks the same path questions; the arena
    /// answers from the table instead of re-walking the graph per
    /// candidate (it returns exactly what `ft` would, so results are
    /// unchanged).
    pub(crate) arena: Arc<PathArena<FatTree>>,
    /// Memoized stage-2–4 outcomes keyed by (scheme, candidate, mask) —
    /// the whole [`ClusterRunResult`] of one operating-point
    /// evaluation, or the [`ClusterError`] it failed with. Failures are
    /// cached deliberately: an unroutable candidate (e.g. GreedyK(2) at a
    /// peak slot) pays the full consolidation attempt before it is
    /// rejected, and the day loop retries it every epoch otherwise. A
    /// pure function of its key given this context, so hits are
    /// bit-identical to re-runs.
    pub(crate) eval_cache: Memo<EvalKey, Arc<EvalOutcome>>,
    /// Stage-3 runs of this context, consulted on a result-memo miss
    /// and keyed by exactly what stage 3 reads ([`StageThreeKey`]), so a
    /// masked candidate that routes differently but samples identical
    /// latencies skips the per-ISN simulations.
    pub(crate) server_evals: Memo<StageThreeKey, Arc<ServerEvaluation>>,
    /// The consolidation and power-floor memo of the [`DayContext`] that
    /// built or rebound this context; `None` on a plain
    /// [`ScenarioContext::build`].
    pub(crate) day_memo: Option<Arc<DayMemo>>,
    pub(crate) hosts: Vec<NodeId>,
    /// The service model with its VP convolution ladder, shared by every
    /// server shard of every evaluation on this context and by every
    /// context rebound from it, so levels and their spectra are computed
    /// once per model and die with the last context that holds them.
    pub(crate) vp_ladder: Arc<VpLadder>,
    pub(crate) mean_service_s: f64,
    /// `spec.warmup_s` clamped to ≥ 0 (what the stages measure from).
    pub(crate) warmup_s: f64,
    /// Warmup + measured duration: the arrival-generation horizon.
    pub(crate) horizon_s: f64,
    pub(crate) queries: Vec<Query>,
    /// Background elephants plus one latency-sensitive flow per ordered
    /// host pair (any server may aggregate, so query traffic exists
    /// between every pair).
    pub(crate) flows: FlowSet,
    /// Ordered host pair `a·n + b` → query-flow id, flat (`a == b` holds
    /// a sentinel that is never read). A plain table rather than a map:
    /// the latency-sampling hot loop indexes it ~n² times per plan.
    pub(crate) pair_flow: Vec<FlowId>,
    /// Per-server DVFS-simulation seeds, drawn serially in index order.
    pub(crate) server_seeds: Vec<u64>,
    /// The *unconsumed* network-latency RNG (stream 4 of the master).
    /// Every [`NetworkPlan`] clones it, so each candidate replays exactly
    /// the stream the monolithic path drew for its own fresh build.
    pub(crate) net_rng: SimRng,
}

/// Stage 1: everything a scenario's candidate evaluations share.
///
/// Cloning is cheap (the built state sits behind one `Arc`), so a clone
/// can cross threads.
///
/// ```
/// use eprons_core::{ClusterConfig, ConsolidationSpec, ServerScheme};
/// use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
/// let cfg = ClusterConfig::default();
/// let spec = ScenarioSpec {
///     server_utilization: 0.2,
///     background_util: 0.1,
///     duration_s: 1.0,
///     warmup_s: 0.0,
///     seed: 1,
/// };
/// let ctx = ScenarioContext::build(&cfg, &spec);
/// // Candidates reuse the build; only consolidation + DVFS re-run.
/// let a = ctx.evaluate(ServerScheme::EpronsServer, ConsolidationSpec::AllOn).unwrap();
/// let b = ctx.evaluate(ServerScheme::EpronsServer, ConsolidationSpec::GreedyK(2.0)).unwrap();
/// assert!(b.active_switches <= a.active_switches);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioContext {
    pub(crate) cfg: ClusterConfig,
    pub(crate) spec: ScenarioSpec,
    pub(crate) data: Arc<ScenarioData>,
}

/// The demand-invariant half of a scenario: a pure function of
/// `(cfg, seed)`, shared by every context rebound from it.
struct Invariant {
    ft: Arc<FatTree>,
    arena: Arc<PathArena<FatTree>>,
    hosts: Vec<NodeId>,
    vp_ladder: Arc<VpLadder>,
    mean_service_s: f64,
    server_seeds: Vec<u64>,
}

impl ScenarioContext {
    /// Builds the shared scenario state: fat-tree, service model, query
    /// and background workloads, flow set, and the per-candidate RNG
    /// snapshots.
    pub fn build(cfg: &ClusterConfig, spec: &ScenarioSpec) -> ScenarioContext {
        ScenarioContext::build_in(cfg, spec, None)
    }

    /// [`ScenarioContext::build`], consolidating through `day_memo` when
    /// a day holds one.
    fn build_in(
        cfg: &ClusterConfig,
        spec: &ScenarioSpec,
        day_memo: Option<Arc<DayMemo>>,
    ) -> ScenarioContext {
        let _t = eprons_obs::Timer::scoped("core.scenario.build_s");
        let mut sp = eprons_obs::Span::enter("scenario.build");
        let obs_on = eprons_obs::enabled();

        // The master RNG's forks are drawn in the exact order the
        // monolithic `run_cluster` drew them — 1 service model, 2 queries,
        // 3 background, 4 network latency, 5 server seeds — so every
        // downstream stream is bit-identical to the pre-staged path.
        // Forks 2–4 are the demand streams `with_demand` draws.
        let mut master = SimRng::seed_from_u64(spec.seed);
        let mut service_rng = master.fork(1);
        for salt in 2..=4 {
            master.fork(salt);
        }
        let mut server_seed_rng = master.fork(5);

        let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
        let arena = PathArena::build(ft.clone());
        let n = cfg.num_servers();

        // --- Service-time model (the measured Xapian log, §V-A). ---
        let samples = xapian_like_samples(&mut service_rng, cfg.service_log_samples);
        let service =
            ServiceModel::from_time_samples(&samples, 0.2, cfg.ladder.max(), cfg.work_pmf_bins);

        let ctx = ScenarioContext::with_demand(
            cfg,
            spec,
            Invariant {
                hosts: ft.hosts().to_vec(),
                ft: Arc::new(ft),
                arena: Arc::new(arena),
                mean_service_s: service.mean_service_time(cfg.ladder.max()),
                vp_ladder: Arc::new(VpLadder::new(service)),
                // Per-server seeds, drawn serially before any fan-out (the
                // stream is candidate- and scheme-invariant).
                server_seeds: (0..n)
                    .map(|s| server_seed_rng.fork(s as u64).uniform().to_bits())
                    .collect(),
            },
            day_memo,
        );
        if obs_on {
            let d = &*ctx.data;
            eprons_obs::registry().counter("core.scenario.builds").inc();
            eprons_obs::record(eprons_obs::Event::ScenarioBuilt {
                seed: spec.seed,
                queries: d.queries.len() as u64,
                flows: d.flows.len() as u64,
                servers: n as u64,
            });
            sp.note(ctx.size_note());
        }
        ctx
    }

    /// The demand step of [`ScenarioContext::build`] and
    /// [`ScenarioContext::rebind_demand`]: query arrivals, the flow set and
    /// the per-pair flow table for `spec`, over the demand-invariant
    /// `base`. The demand streams are re-forked from a fresh master in
    /// build order — `fork` advances the parent, so the *sequence* of
    /// forks, not the salt alone, reproduces them bit for bit.
    fn with_demand(
        cfg: &ClusterConfig,
        spec: &ScenarioSpec,
        base: Invariant,
        day_memo: Option<Arc<DayMemo>>,
    ) -> ScenarioContext {
        let mut master = SimRng::seed_from_u64(spec.seed);
        master.fork(1);
        let mut query_rng = master.fork(2);
        let mut bg_rng = master.fork(3);
        let net_rng = master.fork(4);

        // --- Query workload (warmup + measured window). ---
        let n = base.hosts.len();
        let warmup_s = spec.warmup_s.max(0.0);
        let horizon_s = warmup_s + spec.duration_s;
        let rate = cfg.query_rate_for_utilization(spec.server_utilization, base.mean_service_s);
        let queries = QueryGenerator::new(n).generate(&mut query_rng, rate, horizon_s);

        // --- Flows (candidate-invariant; consolidation is per-plan). ---
        let mut flows = FlowSet::new();
        if spec.background_util > 0.0 {
            for bf in background_flows(
                &base.ft,
                &mut bg_rng,
                spec.background_util,
                cfg.link_capacity_mbps,
            ) {
                flows.add(bf.src, bf.dst, bf.demand_mbps, FlowClass::LatencyTolerant);
            }
        }
        let mut pair_flow: Vec<FlowId> = vec![FlowId(usize::MAX); n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let id = flows.add(
                        base.hosts[a],
                        base.hosts[b],
                        cfg.query_flow_mbps,
                        FlowClass::LatencySensitive,
                    );
                    pair_flow[a * n + b] = id;
                }
            }
        }

        ScenarioContext {
            cfg: cfg.clone(),
            spec: spec.clone(),
            data: Arc::new(ScenarioData {
                ft: base.ft,
                arena: base.arena,
                eval_cache: Memo::new(Tally::named("core.evalcache.hits", "core.evalcache.misses")),
                server_evals: Memo::new(Tally::named("core.serveval.hits", "core.serveval.misses")),
                day_memo,
                hosts: base.hosts,
                vp_ladder: base.vp_ladder,
                mean_service_s: base.mean_service_s,
                warmup_s,
                horizon_s,
                queries,
                flows,
                pair_flow,
                server_seeds: base.server_seeds,
                net_rng,
            }),
        }
    }

    /// The span note of a build or rebind: the scenario's size.
    fn size_note(&self) -> String {
        let d = &*self.data;
        format!(
            "servers={} queries={} flows={}",
            d.hosts.len(),
            d.queries.len(),
            d.flows.len()
        )
    }

    /// The one shared entry point for deriving a context from a run
    /// template: `build` against [`ScenarioSpec::of_run`]. Every internal
    /// per-epoch or per-bench rebuild (optimizer, day controller, perf
    /// bench) routes through here so call sites cannot silently diverge
    /// on how the spec is derived from the template.
    pub fn for_template(cfg: &ClusterConfig, template: &ClusterRun) -> ScenarioContext {
        ScenarioContext::build(cfg, &ScenarioSpec::of_run(template))
    }

    /// Rebuilds only the demand-dependent state — query arrivals, the
    /// flow set, the per-pair flow table — for `spec`, sharing the
    /// demand-invariant state (topology, path arena, service model,
    /// per-server seeds) with `self`.
    ///
    /// Sound only when the master seed is unchanged: the shared state is
    /// a pure function of `(cfg, seed)`, and the demand step is the one
    /// [`ScenarioContext::build`] runs, so the rebound context is
    /// bit-identical to `build(cfg, spec)` (the day-incremental golden
    /// pins this). A different seed falls back to a full build.
    ///
    /// Every per-context memo starts empty — results depend on the
    /// demand-dependent latency sampling. The day memo, if any, carries
    /// over: it is keyed by what it reads.
    pub(crate) fn rebind_demand(&self, spec: &ScenarioSpec) -> ScenarioContext {
        let day_memo = self.data.day_memo.clone();
        if spec.seed != self.spec.seed {
            return ScenarioContext::build_in(&self.cfg, spec, day_memo);
        }
        let _t = eprons_obs::Timer::scoped("core.scenario.rebind_s");
        let mut sp = eprons_obs::Span::enter("scenario.rebind");
        let obs_on = eprons_obs::enabled();
        let d = &*self.data;
        let ctx = ScenarioContext::with_demand(
            &self.cfg,
            spec,
            Invariant {
                ft: Arc::clone(&d.ft),
                arena: Arc::clone(&d.arena),
                hosts: d.hosts.clone(),
                vp_ladder: Arc::clone(&d.vp_ladder),
                mean_service_s: d.mean_service_s,
                server_seeds: d.server_seeds.clone(),
            },
            day_memo,
        );
        if obs_on {
            eprons_obs::registry()
                .counter("core.scenario.rebinds")
                .inc();
            sp.note(ctx.size_note());
        }
        ctx
    }

    /// The configuration this scenario was built under.
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of servers (fat-tree hosts) in the scenario.
    pub fn num_servers(&self) -> usize {
        self.data.hosts.len()
    }

    /// The flow set every consolidation of this context places:
    /// background flows, then the all-pairs query mesh.
    pub fn flows(&self) -> &FlowSet {
        &self.data.flows
    }

    /// The candidate-path arena every consolidation of this context
    /// routes through.
    pub fn arena(&self) -> &PathArena<FatTree> {
        &self.data.arena
    }

    /// The service model's VP convolution ladder, shared by every
    /// evaluation on this context (and its clones and rebinds).
    pub fn vp_ladder(&self) -> &Arc<VpLadder> {
        &self.data.vp_ladder
    }

    /// Evaluates one (scheme, network-candidate) pair against the shared
    /// scenario: stages 2–4 of the pipeline. Bit-identical to
    /// [`crate::run_cluster`] with the same inputs.
    pub fn evaluate(
        &self,
        scheme: ServerScheme,
        consolidation: ConsolidationSpec,
    ) -> Result<ClusterRunResult, ClusterError> {
        self.evaluate_masked(scheme, consolidation, &[])
    }

    /// [`ScenarioContext::evaluate`] with failed switches masked out of
    /// the candidate's consolidation (§IV-B backup-path handling): no
    /// path may cross an excluded switch and presets leave them dark.
    /// With an empty mask this is `evaluate` exactly.
    pub fn evaluate_masked(
        &self,
        scheme: ServerScheme,
        consolidation: ConsolidationSpec,
        excluded: &[NodeId],
    ) -> Result<ClusterRunResult, ClusterError> {
        self.observed(scheme, consolidation, || {
            // Result memo: the whole evaluation — including a
            // deterministic failure — is a pure function of (scheme,
            // candidate, mask) given this context, so a repeat operating
            // point skips stages 2–4 outright. Errors are cached too: an
            // infeasible candidate pays its full consolidation attempt
            // before rejection, and the day loop re-offers it every epoch.
            let mut mask = excluded.to_vec();
            mask.sort_unstable();
            mask.dedup();
            let tag = scheme_index(scheme);
            let key = (
                tag,
                plan_key(consolidation, self.effective_strategy(), &mask),
            );
            let outcome = self.data.eval_cache.get_or_insert(key, 1, || {
                Arc::new(
                    NetworkPlan::build_masked(self, consolidation, &mask).map(|plan| {
                        let plan = Arc::new(plan);
                        let eval = self.server_eval_reused(tag, &plan, scheme);
                        crate::accounting::assemble(self, &plan, &eval)
                    }),
                )
            });
            (*outcome).clone()
        })
    }

    /// Evaluates one network candidate under each `(scheme, SLA)` run in
    /// turn — the scheme and constraint sweeps of Figs. 12–13. Stage 2
    /// runs once; stages 3–4 run per run. Each run is bit-identical to
    /// [`crate::run_cluster`] under its scheme and SLA, and journals and
    /// counts as one [`ScenarioContext::evaluate`] does. Results come
    /// back in run order.
    ///
    /// Reads and fills no memo: no (scheme, SLA, candidate) repeats
    /// within a sweep, and the memos are keyed for this context's own SLA.
    pub fn evaluate_grid(
        &self,
        consolidation: ConsolidationSpec,
        runs: &[(ServerScheme, SlaConfig)],
    ) -> Vec<Result<ClusterRunResult, ClusterError>> {
        // Built inside the first run's span, where a result-memo miss
        // builds it too.
        let mut plan = None;
        runs.iter()
            .map(|(scheme, sla)| {
                self.observed(*scheme, consolidation, || {
                    let plan = plan
                        .get_or_insert_with(|| NetworkPlan::build_masked(self, consolidation, &[]))
                        .as_ref()
                        .map_err(ClusterError::clone)?;
                    // Stages 3–4 read the SLA from the context's `cfg`. The
                    // clone carrying this run's SLA never leaves this
                    // closure, so no memo is reached under it.
                    let ctx = ScenarioContext {
                        cfg: ClusterConfig {
                            sla: sla.clone(),
                            ..self.cfg.clone()
                        },
                        spec: self.spec.clone(),
                        data: Arc::clone(&self.data),
                    };
                    let eval = ServerEvaluation::run(&ctx, plan, *scheme);
                    Ok(crate::accounting::assemble(&ctx, plan, &eval))
                })
            })
            .collect()
    }

    /// Runs `eval` as one journaled evaluation of `(scheme,
    /// consolidation)`: the `evaluate` span and timer, the run tag and
    /// counter, and a success's latency and power metrics.
    fn observed(
        &self,
        scheme: ServerScheme,
        consolidation: ConsolidationSpec,
        eval: impl FnOnce() -> Result<ClusterRunResult, ClusterError>,
    ) -> Result<ClusterRunResult, ClusterError> {
        let obs_on = eprons_obs::enabled();
        let _t = eprons_obs::Timer::scoped("core.cluster.run_s");
        let mut sp = eprons_obs::Span::enter("evaluate");
        if obs_on {
            sp.note(format!(
                "scheme={} spec={}",
                scheme.name(),
                consolidation.label()
            ));
            eprons_obs::registry().counter("core.cluster.runs").inc();
            eprons_obs::record(eprons_obs::Event::RunTag {
                scheme: scheme.name().to_string(),
                consolidation: consolidation.label(),
                seed: self.spec.seed,
            });
        }
        let result = eval()?;
        if obs_on {
            let reg = eprons_obs::registry();
            let edges = eprons_obs::DURATION_EDGES_S;
            reg.histogram("core.cluster.server_p95_s", edges)
                .observe(result.server_latency.p95_s);
            reg.histogram("core.cluster.e2e_p95_s", edges)
                .observe(result.e2e_latency.p95_s);
            reg.histogram("core.cluster.query_e2e_p95_s", edges)
                .observe(result.query_e2e_latency.p95_s);
            reg.gauge("core.cluster.total_w")
                .set(result.breakdown.total_w());
        }
        Ok(result)
    }

    /// Stage 3 through the per-context memo: a plan whose `congested`
    /// flag and `net_lat` match, bit for bit, a plan already evaluated
    /// under `tag` reuses that evaluation (stage 3 reads nothing else
    /// that varies within a context). Counts one `core.serveval` hit or
    /// miss per ISN.
    fn server_eval_reused(
        &self,
        tag: EvalTag,
        plan: &Arc<NetworkPlan>,
        scheme: ServerScheme,
    ) -> Arc<ServerEvaluation> {
        let key = StageThreeKey::new(tag, plan);
        self.data
            .server_evals
            .get_or_insert(key, self.num_servers() as u64, || {
                Arc::new(ServerEvaluation::run(self, plan, scheme))
            })
    }

    /// The consolidation architecture `GreedyK` plans of this context
    /// run, with `Auto` resolved against the fabric size.
    pub(crate) fn effective_strategy(&self) -> ConsolidateStrategy {
        self.cfg.consolidate_strategy.effective(self.cfg.fat_tree_k)
    }

    /// [`crate::optimizer::candidate_power_floor_w`], through the day
    /// memo when the context has one. The floor is a pure function of
    /// (scheme, candidate, mask) given the flow set, so caching is
    /// invisible to the optimizer's pruning decisions; it just stops a
    /// day's later contexts at the same background level from
    /// re-walking the arena for bounds already computed. A plain build
    /// computes each floor afresh: its contexts never asked for one
    /// twice. `GreedyK` keys collapse `K` (the bound counts mandatory
    /// elements only, shared by the whole ladder).
    pub(crate) fn floor_cached(
        &self,
        scheme: ServerScheme,
        spec: ConsolidationSpec,
        excluded: &[NodeId],
    ) -> f64 {
        let floor = || crate::optimizer::candidate_power_floor_w(self, scheme, spec, excluded);
        let Some(memo) = &self.data.day_memo else {
            return floor();
        };
        let (tag, bits) = match spec {
            ConsolidationSpec::AllOn => (0u8, 0u64),
            ConsolidationSpec::Level(l) => (1, l as u64),
            ConsolidationSpec::GreedyK(_) => (2, 0),
        };
        let mut mask: Vec<usize> = excluded.iter().map(|n| n.0).collect();
        mask.sort_unstable();
        mask.dedup();
        let level = self.level();
        memo.enter(level);
        memo.floors
            .get_or_insert((level, (scheme_index(scheme), tag, bits, mask)), 1, floor)
    }

    /// The background level of this context's flow set.
    fn level(&self) -> LevelKey {
        (self.spec.seed, self.spec.background_util.to_bits())
    }

    /// `consolidation`'s assignment of this context's flow set around the
    /// `mask`ed switches, through the day memo when the context has one
    /// (a plain build consolidates afresh). `mask` must be sorted and
    /// deduplicated.
    pub(crate) fn consolidation(
        &self,
        consolidation: ConsolidationSpec,
        mask: &[NodeId],
    ) -> Consolidated {
        debug_assert!(mask.windows(2).all(|w| w[0] < w[1]), "mask not normalized");
        let run = || NetworkPlan::consolidate(self, consolidation, mask).map(Arc::new);
        match &self.data.day_memo {
            Some(memo) => {
                let level = self.level();
                memo.enter(level);
                let key = plan_key(consolidation, self.effective_strategy(), mask);
                memo.consolidations.get_or_insert((level, key), 1, run)
            }
            None => run(),
        }
    }

    /// Fans `candidates` out over the thread budget, evaluating each one
    /// against this shared context (the optimizer's inner loop). Results
    /// come back in candidate order.
    pub fn evaluate_candidates(
        &self,
        scheme: ServerScheme,
        candidates: &[ConsolidationSpec],
    ) -> Vec<(ConsolidationSpec, Result<ClusterRunResult, ClusterError>)> {
        self.evaluate_candidates_masked(scheme, candidates, &[])
    }

    /// [`ScenarioContext::evaluate_candidates`] with failed switches
    /// masked out of every candidate's consolidation.
    pub fn evaluate_candidates_masked(
        &self,
        scheme: ServerScheme,
        candidates: &[ConsolidationSpec],
        excluded: &[NodeId],
    ) -> Vec<(ConsolidationSpec, Result<ClusterRunResult, ClusterError>)> {
        // Candidates land on worker threads; attach each one's span to
        // the caller's (normally `optimizer.search`) explicitly.
        let parent = eprons_obs::current_span_id();
        parallel_map(candidates, |spec| {
            let mut sp = eprons_obs::Span::enter_under(parent, "optimizer.candidate");
            if eprons_obs::enabled() {
                sp.note(format!("spec={}", spec.label()));
            }
            (*spec, self.evaluate_masked(scheme, *spec, excluded))
        })
    }
}

/// Exact-bit slot key over every [`ScenarioSpec`] axis.
type SlotKey = (u64, u64, u64, u64, u64);

fn slot_key(spec: &ScenarioSpec) -> SlotKey {
    (
        spec.server_utilization.to_bits(),
        spec.background_util.to_bits(),
        spec.duration_s.to_bits(),
        spec.warmup_s.to_bits(),
        spec.seed,
    )
}

/// Most contexts a [`DayContext`] holds. A day visits one operating point
/// per distinct (quantized load, quantized background) pair — a few
/// dozen at most.
const DAY_SLOTS: usize = 32;

/// Day-scoped context cache: at most 32 [`ScenarioContext`]s
/// keyed by the exact bits of their [`ScenarioSpec`], evicted in
/// least-recently-used order.
///
/// The day controller's sequential epoch loop asks for one context per
/// evaluated spec; with demand quantized onto the warm-start grid a
/// 24-epoch day visits only a handful of distinct operating points, so
/// most epochs *revive* a slot — result memo included — instead of
/// rebuilding the world. A miss rebinds demand from the most recent slot
/// (`ScenarioContext::rebind_demand`), which shares the topology,
/// arena and service model, so even misses skip the
/// expensive invariant build. Every context the day holds shares one
/// consolidation memo, so a miss at an unchanged background level
/// reuses the consolidations and power floors computed before it.
/// Either way the returned context is bit-identical to a fresh
/// [`ScenarioContext::build`].
#[derive(Debug)]
pub struct DayContext {
    cfg: ClusterConfig,
    /// Slots in least-recently-used order (most recent last).
    slots: Mutex<Vec<(SlotKey, ScenarioContext)>>,
    /// A revived slot is a hit; a build or rebind is a miss.
    tally: Tally,
    evictions: AtomicU64,
    /// The result-memo and stage-3 tallies of evicted slots, so the day's
    /// report still counts the lookups made on them.
    evicted: [Tally; 2],
    /// The consolidation memo every context of the day shares.
    memo: Arc<DayMemo>,
}

impl DayContext {
    /// An empty day cache for `cfg`.
    pub fn new(cfg: &ClusterConfig) -> DayContext {
        DayContext {
            cfg: cfg.clone(),
            slots: Mutex::new(Vec::new()),
            tally: Tally::named("core.daycache.hits", "core.daycache.misses"),
            evictions: AtomicU64::new(0),
            evicted: [Tally::default(), Tally::default()],
            memo: Arc::new(DayMemo::new()),
        }
    }

    /// The context for `spec`: a revived slot (memos and all) on a
    /// hit; on a miss, a demand rebind from the most recent slot — or a
    /// full build for the very first one — inserted before returning.
    pub fn context_for(&self, spec: &ScenarioSpec) -> ScenarioContext {
        let key = slot_key(spec);
        // Built inside the lock: the day loop is sequential, and holding
        // it keeps a racing duplicate build from double-inserting.
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = slots.iter().position(|(k, _)| *k == key) {
            let slot = slots.remove(i);
            let ctx = slot.1.clone();
            slots.push(slot);
            self.tally.count(true, 1);
            return ctx;
        }
        let ctx = match slots.last() {
            Some((_, base)) => base.rebind_demand(spec),
            None => ScenarioContext::build_in(&self.cfg, spec, Some(Arc::clone(&self.memo))),
        };
        self.tally.count(false, 1);
        slots.push((key, ctx.clone()));
        if slots.len() > DAY_SLOTS {
            let (_, gone) = slots.remove(0);
            for (sum, memo) in self.evicted.iter().zip(memo_tallies(&gone.data)) {
                sum.absorb(memo);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if eprons_obs::enabled() {
                eprons_obs::registry()
                    .counter("core.daycache.evictions")
                    .inc();
            }
        }
        ctx
    }

    /// The day's [`eprons_obs::Event::DayCacheReport`] rows: the day cache
    /// itself (`core.daycache`), then the result memos (`core.evalcache`)
    /// and stage-3 memos (`server.serveval`) of every context it has
    /// held, then the day's consolidation memo (`core.consolidation`).
    /// Hits and misses are this day's lookups, evicted slots' included;
    /// `bytes` approximates what the live slots and the consolidation
    /// memo hold (the shared base — arena, service model — is excluded:
    /// it exists once regardless of slot count).
    pub(crate) fn report(&self) -> [eprons_obs::Event; 4] {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let live_bytes = |bytes: fn(&ScenarioData) -> usize| {
            slots.iter().map(|(_, ctx)| bytes(&ctx.data)).sum::<usize>() as u64
        };
        let row = |cache: &str, (hits, misses): (u64, u64), evictions, bytes| {
            eprons_obs::Event::DayCacheReport {
                cache: cache.to_string(),
                hits,
                misses,
                evictions,
                bytes,
            }
        };
        // Hits and misses of memo `i` of `memo_tallies`, over every slot.
        let lookups = |i: usize| {
            slots
                .iter()
                .map(|(_, ctx)| memo_tallies(&ctx.data)[i].get())
                .fold(self.evicted[i].get(), |(h, m), (dh, dm)| (h + dh, m + dm))
        };
        [
            row(
                "core.daycache",
                self.tally.get(),
                self.evictions.load(Ordering::Relaxed),
                live_bytes(|d| {
                    d.queries.len() * std::mem::size_of::<Query>()
                        + d.flows.len() * std::mem::size_of::<eprons_net::Flow>()
                        + d.pair_flow.len() * std::mem::size_of::<FlowId>()
                }),
            ),
            // Each entry is one result — or a cached failure — plus its
            // active-switch id vector.
            row(
                "core.evalcache",
                lookups(0),
                0,
                live_bytes(|d| {
                    d.eval_cache.sum(|_, outcome| {
                        std::mem::size_of::<EvalOutcome>()
                            + outcome.as_ref().as_ref().map_or(0, |r| {
                                r.active_switch_ids.len() * std::mem::size_of::<usize>()
                            })
                    })
                }),
            ),
            // Each entry's per-ISN completions; the plan its key holds
            // is not counted.
            row(
                "server.serveval",
                lookups(1),
                0,
                live_bytes(|d| {
                    d.server_evals.sum(|_, eval| {
                        eval.shards
                            .iter()
                            .map(|s| s.completions.len() * std::mem::size_of::<(u64, f64, f64)>())
                            .sum()
                    })
                }),
            ),
            // Consolidation lookups; the bytes include the level's floors.
            row(
                "core.consolidation",
                self.memo.consolidations.tally().get(),
                0,
                self.memo.bytes() as u64,
            ),
        ]
    }
}

/// The tallies a [`DayContext`] reports per context: the result memo's
/// and the stage-3 memo's.
fn memo_tallies(d: &ScenarioData) -> [&Tally; 2] {
    [d.eval_cache.tally(), d.server_evals.tally()]
}

/// Stage 2: one candidate network configuration applied to a scenario —
/// the consolidation assignment plus the per-sub-query network latencies
/// sampled along its paths.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    /// Shared with the day memo's entry when the context has one.
    pub(crate) assignment: Arc<Assignment>,
    pub(crate) max_link_utilization: f64,
    /// Peak utilization above the congestion threshold (withdraws
    /// TimeTrader's network slack).
    pub(crate) congested: bool,
    /// Per query: `(ISN, request latency, reply latency)` in seconds.
    pub(crate) net_lat: Vec<Vec<(usize, f64, f64)>>,
}

impl NetworkPlan {
    /// Runs consolidation for `consolidation` against the scenario's flow
    /// set, with the `mask`ed (failed) switches excluded, and samples the
    /// per-sub-query request/reply latencies. `mask` must be sorted and
    /// deduplicated.
    pub(crate) fn build_masked(
        ctx: &ScenarioContext,
        consolidation: ConsolidationSpec,
        mask: &[NodeId],
    ) -> Result<NetworkPlan, ClusterError> {
        let _t = eprons_obs::Timer::scoped("core.stage.network_plan_s");
        let mut sp = eprons_obs::Span::enter("stage.network_plan");
        if eprons_obs::enabled() {
            sp.note(format!("spec={}", consolidation.label()));
        }
        let d = &*ctx.data;
        let n = d.hosts.len();
        let assignment = ctx.consolidation(consolidation, mask)?;

        let max_link_utilization = assignment.max_utilization(&d.ft);
        let congested = max_link_utilization > ctx.cfg.congestion_threshold;

        // --- Per-sub-query network latencies. ---
        //
        // The per-hop utilizations along a pair's path are fixed once the
        // assignment is, so they are computed once per ordered host pair
        // (n·(n−1) paths) instead of once per sub-query direction (~two
        // orders of magnitude more often at realistic query rates). Only
        // the latency *sampling* stays per sub-query — it consumes the
        // same RNG draws either way, so the stream (and every downstream
        // bit) is unchanged.
        let _latency_span = eprons_obs::Span::enter("latency_sample");
        let topo = d.ft.topology();
        let mut net_rng = d.net_rng.clone();
        // One flat buffer of per-hop utilizations for all n·(n−1) pairs
        // (offsets index it) instead of a map of n² small vectors — the
        // utilizations are RNG-free, so the layout change is invisible to
        // the sampled stream. Each directed hop's utilization is divided
        // once and gathered per pair.
        let hop_util = assignment.state().directed_utilizations();
        let mut util_off: Vec<u32> = Vec::with_capacity(n * n + 1);
        let mut util_buf: Vec<f64> = Vec::new();
        util_off.push(0);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let path = assignment.path(d.pair_flow[a * n + b]);
                    util_buf.extend(
                        path.hops()
                            .map(|(from, _, l)| hop_util[2 * l.0 + direction_from(topo, l, from)]),
                    );
                }
                util_off.push(util_buf.len() as u32);
            }
        }
        let pair_utils = |a: usize, b: usize| {
            &util_buf[util_off[a * n + b] as usize..util_off[a * n + b + 1] as usize]
        };
        let mut net_lat: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); d.queries.len()];
        for q in &d.queries {
            for s in 0..n {
                if s == q.aggregator {
                    continue;
                }
                let req_utils = pair_utils(q.aggregator, s);
                let rep_utils = pair_utils(s, q.aggregator);
                let req_lat = ctx
                    .cfg
                    .latency
                    .sample_path_latency_us(&mut net_rng, req_utils)
                    * 1.0e-6;
                let rep_lat = ctx
                    .cfg
                    .latency
                    .sample_path_latency_us(&mut net_rng, rep_utils)
                    * 1.0e-6;
                net_lat[q.id as usize].push((s, req_lat, rep_lat));
            }
        }

        Ok(NetworkPlan {
            assignment,
            max_link_utilization,
            congested,
            net_lat,
        })
    }

    /// Stage 2's consolidation step: `consolidation`'s assignment of the
    /// scenario's flow set with the `mask`ed (failed) switches excluded —
    /// no path crosses one, and they stay powered off even inside an
    /// aggregation preset. `mask` must be sorted and deduplicated.
    /// Memo-free: callers go through [`ScenarioContext::consolidation`].
    fn consolidate(
        ctx: &ScenarioContext,
        consolidation: ConsolidationSpec,
        mask: &[NodeId],
    ) -> Result<Assignment, ClusterError> {
        let _sp = eprons_obs::Span::enter("consolidate");
        let d = &*ctx.data;
        let ccfg = ConsolidationConfig {
            scale_k: match consolidation {
                ConsolidationSpec::GreedyK(k) => k,
                _ => 1.0,
            },
            safety_margin_mbps: ctx.cfg.safety_margin_mbps,
            power: ctx.cfg.net_power.clone(),
            excluded: mask.to_vec(),
        };
        // Consolidation routes through the shared path arena: identical
        // candidate paths, no per-candidate graph re-enumeration.
        match consolidation {
            ConsolidationSpec::AllOn => AggregationRouter::for_level(&d.ft, AggregationLevel::Agg0)
                .consolidate(&d.arena, &d.flows, &ccfg),
            ConsolidationSpec::Level(l) => {
                AggregationRouter::for_level(&d.ft, l).consolidate(&d.arena, &d.flows, &ccfg)
            }
            ConsolidationSpec::GreedyK(_) => match ctx.effective_strategy() {
                ConsolidateStrategy::PodDecomposed => {
                    // Pod solves fan out over the session's thread budget;
                    // `parallel_map_range` preserves pod order, which the
                    // decomposition's determinism contract requires.
                    let runner: PodRunner<'_> = &|pods, solve| parallel_map_range(pods, solve);
                    consolidate_pod_decomposed(&d.ft, &d.arena, &d.flows, &ccfg, Some(runner))
                        .map(|report| report.assignment)
                }
                _ => GreedyConsolidator.consolidate(&d.arena, &d.flows, &ccfg),
            },
        }
        .map_err(ClusterError::Consolidation)
    }
}

/// The lowest per-core power the scheme's DVFS policy can draw in any
/// state — the same floor stage 3 integrates through trailing idle time,
/// so every simulated `avg_core_w` is ≥ this value. The optimizer's
/// candidate lower bound rests on that inequality.
pub(crate) fn scheme_idle_floor_w(cfg: &ClusterConfig, scheme: ServerScheme) -> f64 {
    dvfs_policy(cfg, scheme, cfg.sla.server_budget_s)
        .idle_power_w()
        .unwrap_or_else(|| cfg.cpu.core_idle_w())
}

/// The DVFS policy a server runs under `scheme`; TimeTrader aims at
/// `timetrader_target_s`.
fn dvfs_policy(
    cfg: &ClusterConfig,
    scheme: ServerScheme,
    timetrader_target_s: f64,
) -> Box<dyn DvfsPolicy> {
    match scheme {
        ServerScheme::NoPowerManagement => Box::new(MaxFreqPolicy),
        ServerScheme::Rubik => Box::new(MaxVpPolicy::rubik()),
        ServerScheme::RubikPlus => Box::new(MaxVpPolicy::rubik_plus()),
        ServerScheme::TimeTrader => {
            Box::new(TimeTraderPolicy::new(timetrader_target_s, cfg.ladder.len()))
        }
        ServerScheme::EpronsServer => Box::new(AvgVpPolicy::eprons()),
        ServerScheme::DeepSleep => Box::new(DeepSleepPolicy::new()),
    }
}

/// What one server's shard hands back to the in-order reduction.
#[derive(Debug)]
pub(crate) struct ServerShard {
    pub(crate) avg_core_w: f64,
    /// `(query id, latency, budget)` per completed sub-query.
    pub(crate) completions: Vec<(u64, f64, f64)>,
}

/// Stage 3: the per-ISN DVFS simulations for one (plan, scheme) pair,
/// with the plan's request network slack transferred into each request's
/// compute budget for the slack-aware schemes.
#[derive(Debug)]
pub struct ServerEvaluation {
    pub(crate) shards: Vec<ServerShard>,
}

impl ServerEvaluation {
    /// Builds the per-server arrival traces (arrival = query time +
    /// request latency; budget per the scheme's slack rule) and fans the
    /// independent core simulations out over the thread budget.
    pub fn run(
        ctx: &ScenarioContext,
        plan: &NetworkPlan,
        scheme: ServerScheme,
    ) -> ServerEvaluation {
        let _t = eprons_obs::Timer::scoped("core.stage.server_eval_s");
        let mut eval_span = eprons_obs::Span::enter("stage.server_eval");
        let obs_on = eprons_obs::enabled();
        let d = &*ctx.data;
        let cfg = &ctx.cfg;
        let n = d.hosts.len();

        // TimeTrader borrows whatever network budget its congestion
        // monitor shows to be unused: target = server budget + max(0,
        // network budget − observed round-trip p95). A congested subnet
        // (ECN/queue build-up) withdraws the slack entirely — the
        // over-conservatism the paper criticizes (§I).
        // Leaf span: the serial arrival-trace build (and TimeTrader's
        // budget probe) would otherwise be invisible self-time of
        // `stage.server_eval` in the flame view.
        let arrivals_span = eprons_obs::Span::enter("server_arrivals");
        let timetrader_target = if scheme == ServerScheme::TimeTrader {
            let round_trips: Vec<f64> = plan
                .net_lat
                .iter()
                .flatten()
                .map(|&(_, req, rep)| req + rep)
                .collect();
            let net_p95 = if round_trips.is_empty() || plan.congested {
                cfg.sla.network_budget_s
            } else {
                eprons_num::quantile::percentile(&round_trips, 0.95)
            };
            cfg.sla.server_budget_s + (cfg.sla.network_budget_s - net_p95).max(0.0)
        } else {
            cfg.sla.server_budget_s
        };

        // --- Server arrival traces with per-request budgets. ---
        let mut per_server: Vec<Vec<ArrivalSpec>> = vec![Vec::new(); n];
        for q in &d.queries {
            for &(s, req_lat, _rep) in &plan.net_lat[q.id as usize] {
                let budget = if scheme.uses_request_slack() {
                    budget_with_network_slack(
                        cfg.sla.server_budget_s,
                        cfg.sla.request_budget_s(),
                        req_lat,
                    )
                } else if scheme == ServerScheme::TimeTrader {
                    timetrader_target
                } else {
                    cfg.sla.server_budget_s
                };
                per_server[s].push(ArrivalSpec {
                    arrival_s: q.time_s + req_lat,
                    budget_s: budget,
                    tag: q.id,
                });
            }
        }
        for arrivals in per_server.iter_mut() {
            arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite times"));
        }
        drop(arrivals_span);
        // Setting up and spawning the shard workers, and joining them, run
        // between the shards' own spans. Those stretches end or begin on a
        // worker thread, so they are journaled afterwards as the
        // `server_fanout` and `server_join` leaves, bounded by the earliest
        // shard start and the latest shard end; no leaf overlaps another.
        let fanout_start = Instant::now();
        let shard_window: Mutex<Option<(Instant, Instant)>> = Mutex::new(None);

        // --- Per-ISN DVFS simulation, sharded across the thread budget.
        //
        // Each server's core simulation is independent once its arrival
        // trace and RNG seed are fixed. Determinism is preserved by
        // construction: the per-server seeds were drawn serially at
        // context build, the shards share no mutable state, and the
        // accounting stage folds shard results in server-index order so
        // floating-point accumulation matches the serial loop bit for
        // bit.
        let core_cfg = CoreSimConfig {
            ladder: cfg.ladder.clone(),
            power: cfg.cpu.clone(),
            decision_overhead_s: 30.0e-6,
            measure_from_s: d.warmup_s,
        };
        if obs_on {
            eprons_obs::registry()
                .gauge("core.cluster.worker_threads")
                .set(crate::parallel::thread_budget() as f64);
        }
        if obs_on {
            eval_span.note(format!("scheme={} servers={n}", scheme.name()));
        }
        // Shards run on worker threads whose span stacks are empty, so
        // each attaches to the evaluation span by id.
        let eval_span_id = eval_span.id();
        let shards: Vec<ServerShard> = parallel_map_range(n, |s| {
            let started = obs_on.then(Instant::now);
            let _t = eprons_obs::Timer::scoped("core.cluster.server_shard_s");
            let mut shard_span = eprons_obs::Span::enter_under(eval_span_id, "server_shard");
            let arrivals = &per_server[s];
            let mut engine = VpEngine::shared(Arc::clone(&d.vp_ladder));
            let mut policy = dvfs_policy(cfg, scheme, timetrader_target);
            let r = simulate_core(
                policy.as_mut(),
                &mut engine,
                arrivals,
                &core_cfg,
                d.server_seeds[s],
            );
            if eprons_obs::enabled() {
                // A span note, not an event: which shard fills a shared
                // conditioned slot or spectrum first depends on thread
                // timing.
                let vp = engine.tally();
                shard_span.note(format!(
                    "server={s} convolutions={} conditioned_hits={} spectra_built={} \
                     spectra_reused={}",
                    vp.convolutions, vp.conditioned_hits, vp.spectra_built, vp.spectra_reused
                ));
            }
            let end = r.sim_end_s.max(d.horizon_s);
            let span = end - d.warmup_s;
            let trailing_idle_w = policy
                .idle_power_w()
                .unwrap_or_else(|| cfg.cpu.core_idle_w());
            let avg_core_w = if span > 0.0 {
                // Integrate idle power through any trailing idle time too.
                (r.energy_j + (end - r.sim_end_s) * trailing_idle_w) / span
            } else {
                trailing_idle_w
            };
            let completions = r
                .latencies
                .iter()
                .zip(&r.tags)
                .zip(&r.budgets)
                .map(|((&lat, &tag), &budget)| (tag, lat, budget))
                .collect();
            drop(shard_span);
            if let Some(started) = started {
                let ended = Instant::now();
                let mut window = shard_window.lock().expect("shard window poisoned");
                *window = Some(match *window {
                    Some((first, last)) => (first.min(started), last.max(ended)),
                    None => (started, ended),
                });
            }
            ServerShard {
                avg_core_w,
                completions,
            }
        });
        drop(per_server);
        if let Some((first, last)) = *shard_window.lock().expect("shard window poisoned") {
            eprons_obs::record_span(eval_span_id, "server_fanout", fanout_start, first);
            eprons_obs::record_span(eval_span_id, "server_join", last, Instant::now());
        }
        ServerEvaluation { shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_latencies(a: &NetworkPlan, b: &NetworkPlan) -> bool {
        a.congested == b.congested && format!("{:?}", a.net_lat) == format!("{:?}", b.net_lat)
    }

    /// Stage-3 reuse: a masked `GreedyK(2)` plan that samples the
    /// unmasked plan's latencies bit for bit reuses its evaluation — one
    /// stage-3 memo hit per ISN — and matches a fresh context's
    /// evaluation; a mask whose latencies differ misses. (`{:?}` prints
    /// every `f64` in round-trip form, so equal text is equal bits.)
    #[test]
    fn masked_plan_with_identical_latencies_reuses_stage_three() {
        let cfg = ClusterConfig::default();
        let spec = ScenarioSpec {
            server_utilization: 0.3,
            background_util: 0.2,
            duration_s: 0.5,
            warmup_s: 0.0,
            seed: 7,
        };
        let (scheme, k2) = (ServerScheme::EpronsServer, ConsolidationSpec::GreedyK(2.0));
        let ctx = ScenarioContext::build(&cfg, &spec);
        ctx.evaluate(scheme, k2).unwrap();
        let base = NetworkPlan::build_masked(&ctx, k2, &[]).unwrap();
        let half = cfg.fat_tree_k / 2;
        let (mut same, mut differs) = (None, None);
        for core in (0..half * half).map(|i| ctx.data.ft.core(i / half, i % half)) {
            if let Ok(plan) = NetworkPlan::build_masked(&ctx, k2, &[core]) {
                let slot = if same_latencies(&plan, &base) {
                    &mut same
                } else {
                    &mut differs
                };
                slot.get_or_insert(core);
            }
        }
        let same = same.expect("some core mask samples the unmasked latencies at k=4");
        let differs = differs.expect("some core mask changes the latencies at k=4");

        let hits = || ctx.data.server_evals.tally().get().0;
        let entries = || ctx.data.server_evals.sum(|_, _| 1);
        let n = ctx.num_servers() as u64;
        let (h0, e0) = (hits(), entries());
        let reused = ctx.evaluate_masked(scheme, k2, &[same]).unwrap();
        let (h1, e1) = (hits(), entries());
        ctx.evaluate_masked(scheme, k2, &[differs]).unwrap();
        let (h2, e2) = (hits(), entries());

        assert_eq!(h1 - h0, n, "a same-latency mask must hit once per ISN");
        assert_eq!(e1, e0, "a hit must not add a stage-3 run");
        assert_eq!(h2, h1, "a differing mask must miss");
        assert_eq!(e2, e1 + 1, "a miss must add its stage-3 run");
        let fresh = ScenarioContext::build(&cfg, &spec)
            .evaluate_masked(scheme, k2, &[same])
            .unwrap();
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }

    /// The day cache holds at most `DAY_SLOTS` contexts: one operating
    /// point past the bound evicts the least-recently-used slot and
    /// counts it, the slots it keeps still hit, and both a revived slot
    /// and the evicted point's rebuild evaluate bit-identically to a
    /// fresh build.
    #[test]
    fn day_cache_evicts_the_least_recently_used_slot() {
        let cfg = ClusterConfig::default();
        let spec = |i: usize| ScenarioSpec {
            server_utilization: 0.05 + 0.01 * i as f64,
            background_util: 0.1,
            duration_s: 0.2,
            warmup_s: 0.0,
            seed: 7,
        };
        let day = DayContext::new(&cfg);
        let slots = || day.slots.lock().unwrap().len();
        let daycache = || {
            let (hits, misses, evictions, _) = report_row(&day, "core.daycache");
            (hits, misses, evictions)
        };
        for i in 0..DAY_SLOTS {
            day.context_for(&spec(i));
        }
        // Reviving slot 0 leaves slot 1 the least recently used.
        day.context_for(&spec(0));
        assert_eq!((slots(), daycache()), (DAY_SLOTS, (1, DAY_SLOTS as u64, 0)));

        day.context_for(&spec(DAY_SLOTS));
        assert_eq!((slots(), daycache().2), (DAY_SLOTS, 1));
        // Slot 0 survived the eviction; slot 1 did not.
        day.context_for(&spec(0));
        assert_eq!(daycache().0, 2, "the revived slot must survive");
        day.context_for(&spec(1));
        let (_, misses, evictions) = daycache();
        assert_eq!(
            (misses, evictions),
            (DAY_SLOTS as u64 + 2, 2),
            "the evicted slot must be rebuilt, evicting the next oldest"
        );

        let (scheme, all_on) = (ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
        for i in [0, 1] {
            let revived = day.context_for(&spec(i)).evaluate(scheme, all_on).unwrap();
            let fresh = ScenarioContext::build(&cfg, &spec(i))
                .evaluate(scheme, all_on)
                .unwrap();
            assert_eq!(format!("{revived:?}"), format!("{fresh:?}"), "slot {i}");
        }
    }

    /// The report's memo rows count the day's lookups on every context
    /// the day cache has held: a slot evicted before the report still
    /// contributes its result-memo and stage-3 hits and misses.
    #[test]
    fn day_report_counts_lookups_on_evicted_slots() {
        let cfg = ClusterConfig::default();
        let spec = |i: usize| ScenarioSpec {
            server_utilization: 0.05 + 0.01 * i as f64,
            background_util: 0.1,
            duration_s: 0.2,
            warmup_s: 0.0,
            seed: 7,
        };
        let (scheme, all_on) = (ServerScheme::EpronsServer, ConsolidationSpec::AllOn);
        let day = DayContext::new(&cfg);
        // Slot 0: one miss, then one hit.
        let first = day.context_for(&spec(0));
        first.evaluate(scheme, all_on).unwrap();
        first.evaluate(scheme, all_on).unwrap();
        drop(first);
        // `DAY_SLOTS` more operating points push slot 0 out.
        for i in 1..=DAY_SLOTS {
            day.context_for(&spec(i));
        }
        assert_eq!(report_row(&day, "core.daycache").2, 1, "slot 0 evicted");
        // A live slot adds one more miss.
        day.context_for(&spec(1)).evaluate(scheme, all_on).unwrap();

        let n = cfg.num_servers() as u64;
        let (hits, misses, _, _) = report_row(&day, "core.evalcache");
        assert_eq!((hits, misses), (1, 2), "result-memo lookups of the day");
        let (hits, misses, _, _) = report_row(&day, "server.serveval");
        assert_eq!((hits, misses), (0, 2 * n), "one stage-3 run per miss");
    }

    /// A seed-7 spec at `load` and background `bg`.
    fn level_spec(load: f64, bg: f64) -> ScenarioSpec {
        ScenarioSpec {
            server_utilization: load,
            background_util: bg,
            duration_s: 0.2,
            warmup_s: 0.0,
            seed: 7,
        }
    }

    /// The day memo a day-scoped context consolidates through.
    fn day_memo(ctx: &ScenarioContext) -> &DayMemo {
        ctx.data.day_memo.as_deref().expect("a day-scoped context")
    }

    /// Two contexts of one day at the same background level and different
    /// search loads: the second's consolidation and power floor hit and
    /// share the first's, and its evaluation matches a plain build's bit
    /// for bit.
    #[test]
    fn day_memo_serves_a_second_search_load_at_the_same_level() {
        let cfg = ClusterConfig::default();
        let (scheme, k2) = (ServerScheme::EpronsServer, ConsolidationSpec::GreedyK(2.0));
        let day = DayContext::new(&cfg);
        let first = day.context_for(&level_spec(0.2, 0.2));
        let second = day.context_for(&level_spec(0.4, 0.2));
        let memo = day_memo(&second);
        assert!(std::ptr::eq(day_memo(&first), memo), "one memo per day");

        let a = first.consolidation(k2, &[]).unwrap();
        let b = second.consolidation(k2, &[]).unwrap();
        assert_eq!(
            memo.consolidations.tally().get(),
            (1, 1),
            "the second load hits"
        );
        assert!(Arc::ptr_eq(&a, &b), "a hit shares the memoized assignment");
        let floor = first.floor_cached(scheme, k2, &[]);
        assert_eq!(
            second.floor_cached(scheme, k2, &[]).to_bits(),
            floor.to_bits()
        );
        assert_eq!(
            memo.floors.tally().get(),
            (1, 1),
            "the second load's floor hits"
        );

        let fresh = ScenarioContext::build(&cfg, &level_spec(0.4, 0.2));
        assert_eq!(
            format!("{:?}", *b),
            format!("{:?}", fresh.consolidation(k2, &[]).unwrap())
        );
        assert_eq!(
            format!("{:?}", second.evaluate(scheme, k2)),
            format!("{:?}", fresh.evaluate(scheme, k2))
        );
        assert_eq!(
            memo.consolidations.tally().get(),
            (2, 1),
            "the evaluation hits"
        );
    }

    /// Another background level, mask or `K` misses; a new level empties
    /// the memo, and what it then consolidates matches a plain build.
    #[test]
    fn day_memo_misses_on_another_level_mask_or_k() {
        let cfg = ClusterConfig::default();
        let (k1, k2) = (
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(2.0),
        );
        let day = DayContext::new(&cfg);
        let low = day.context_for(&level_spec(0.2, 0.1));
        let memo = day_memo(&low);
        let entries = || memo.consolidations.sum(|_, _| 1);
        let core = low.data.ft.core(0, 0);
        low.consolidation(k2, &[]).unwrap();
        low.consolidation(k2, &[core]).unwrap();
        low.consolidation(k1, &[]).unwrap();
        assert_eq!(memo.consolidations.tally().get(), (0, 3), "mask and K miss");
        assert_eq!(entries(), 3);

        for bg in [0.3, 0.1] {
            let spec = level_spec(0.2, bg);
            let ctx = day.context_for(&spec);
            let misses = memo.consolidations.tally().get().1;
            let got = ctx.consolidation(k2, &[]);
            assert_eq!(
                memo.consolidations.tally().get(),
                (0, misses + 1),
                "background {bg} must miss"
            );
            assert_eq!(entries(), 1, "a new level empties the memo");
            let fresh = ScenarioContext::build(&cfg, &spec).consolidation(k2, &[]);
            assert_eq!(format!("{got:?}"), format!("{fresh:?}"), "background {bg}");
        }
    }

    /// A plain build, and what it rebinds, consolidate afresh every time.
    #[test]
    fn plain_build_has_no_day_memo() {
        let cfg = ClusterConfig::default();
        let k2 = ConsolidationSpec::GreedyK(2.0);
        let ctx = ScenarioContext::build(&cfg, &level_spec(0.2, 0.2));
        assert!(ctx.data.day_memo.is_none());
        assert!(ctx
            .rebind_demand(&level_spec(0.4, 0.2))
            .data
            .day_memo
            .is_none());
        let (a, b) = (ctx.consolidation(k2, &[]), ctx.consolidation(k2, &[]));
        assert!(
            !Arc::ptr_eq(&a.unwrap(), &b.unwrap()),
            "nothing is memoized"
        );
    }

    /// The survive stage repairs its own copy of the memoized assignment:
    /// a day whose rung-1 repair re-routes around a failed core, followed
    /// by epochs at the same background level that consolidate through
    /// the memo, stays bit-identical to the per-epoch rebuild day.
    #[test]
    fn survive_repair_leaves_the_memoized_entry_untouched() {
        use crate::controller::{simulate_day_with_failures, DayConfig, DayStrategy};
        use crate::DayScopeConfig;
        use eprons_net::failure::{
            DegradationStage, FailureEvent, FailureEventKind, FailureSchedule,
        };
        use eprons_workload::adversarial::TraceScenario;
        use eprons_workload::replay::ReplayTrace;

        let cfg = ClusterConfig::default();
        // Six 240-minute epochs at distinct search loads over one constant
        // background: every epoch is a new context at the same level.
        let loads = [0.3, 0.5, 0.4, 0.6, 0.35, 0.45];
        let search = ReplayTrace::new((0..1440).map(|m| loads[m / 240]).collect());
        let day = |incremental| DayConfig {
            epoch_minutes: 240,
            sim_seconds: 0.3,
            peak_utilization: 0.5,
            seed: 99,
            warm_start: true,
            search_trace: TraceScenario::Replay(search.clone()),
            background_trace: TraceScenario::Replay(ReplayTrace::constant(0.2)),
            day_scope: Some(DayScopeConfig { incremental }),
            ..DayConfig::default()
        };
        let strategy = DayStrategy::Eprons {
            candidates: vec![ConsolidationSpec::GreedyK(2.0)],
        };
        // Fail a core that epoch 1's winner routes through.
        let clean = simulate_day_with_failures(
            &cfg,
            &strategy,
            &day(true),
            &FailureSchedule::scripted(Vec::new()),
        );
        let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
        let half = cfg.fat_tree_k / 2;
        let core = (0..half * half)
            .map(|i| ft.core(i / half, i % half).0)
            .find(|c| clean[1].active_switch_ids.contains(c))
            .expect("epoch 1 routes through a core");
        let schedule = FailureSchedule::scripted(vec![
            FailureEvent {
                minute: 300.0,
                switch: core,
                kind: FailureEventKind::Fail,
            },
            FailureEvent {
                minute: 400.0,
                switch: core,
                kind: FailureEventKind::Recover,
            },
        ]);
        let rebuild = simulate_day_with_failures(&cfg, &strategy, &day(false), &schedule);
        let incremental = simulate_day_with_failures(&cfg, &strategy, &day(true), &schedule);
        assert_eq!(incremental[1].degradation, Some(DegradationStage::Repaired));
        for (b, i) in rebuild.iter().zip(&incremental) {
            assert_eq!(
                (b.breakdown.total_w().to_bits(), &b.active_switch_ids),
                (i.breakdown.total_w().to_bits(), &i.active_switch_ids),
                "minute {}",
                b.minute
            );
            assert_eq!(b.e2e_p95_s.to_bits(), i.e2e_p95_s.to_bits());
        }
    }

    /// `(hits, misses, evictions, bytes)` of `cache`'s row of `day`'s
    /// report.
    fn report_row(day: &DayContext, cache: &str) -> (u64, u64, u64, u64) {
        day.report()
            .into_iter()
            .find_map(|e| match e {
                eprons_obs::Event::DayCacheReport {
                    cache: c,
                    hits,
                    misses,
                    evictions,
                    bytes,
                } if c == cache => Some((hits, misses, evictions, bytes)),
                _ => None,
            })
            .expect("one row per cache")
    }
}
