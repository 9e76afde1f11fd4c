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
//!    one `Arc`, so contexts clone cheaply across threads and constraint
//!    sweeps ([`ScenarioContext::with_sla`]).
//! 2. `NetworkPlan::build_masked` — per [`ConsolidationSpec`]: consolidation
//!    plus per-sub-query network latency sampling along the assigned
//!    paths.
//! 3. [`ServerEvaluation::run`] — per (plan, [`ServerScheme`]): the
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eprons_net::consolidate::pod::{consolidate_pod_decomposed, PodRunner};
use eprons_net::consolidate::AggregationRouter;
use eprons_net::flow::FlowSet;
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

/// Memo key for one stage-2 plan: the candidate collapsed to raw bits
/// (discriminant + level index / `K` bits), the effective consolidation
/// architecture (only `GreedyK` plans depend on it — normalized to 0
/// elsewhere so preset plans keep hitting across strategy changes), plus
/// the normalized mask.
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

/// What stages 3–4 read beyond the plan: the scheme index and the exact
/// SLA bits. The SLA belongs in every key because [`ScenarioContext::with_sla`]
/// clones share `data` (and with it these memos) across constraints;
/// everything else an evaluation depends on is fixed per `data`.
type EvalTag = (u8, [u64; 4]);

fn eval_tag(scheme: ServerScheme, sla: &SlaConfig) -> EvalTag {
    (
        scheme_index(scheme),
        [
            sla.server_budget_s,
            sla.network_budget_s,
            sla.request_fraction,
            sla.percentile,
        ]
        .map(f64::to_bits),
    )
}

/// Memo key for one full evaluation result: the evaluation tag over the
/// plan key.
type EvalKey = (EvalTag, PlanKey);

/// One stage-3 run kept for reuse by later plans of the same context:
/// the tag it ran under, the plan it read and its evaluation.
type ServerEvalEntry = (EvalTag, Arc<NetworkPlan>, Arc<ServerEvaluation>);

/// Memo value for one full evaluation: the result, or the error the
/// evaluation deterministically fails with.
type EvalOutcome = Result<ClusterRunResult, ClusterError>;

/// Memo key for one candidate power floor: (scheme, candidate tag,
/// candidate bits, mask). `GreedyK` collapses its `K` bits to 0 — the
/// bound counts mandatory elements only, so every rung of a K ladder
/// shares one floor (mirroring the optimizer's per-ladder sharing).
type FloorKey = (u8, u8, u64, Vec<usize>);

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
    /// Memoized stage-2 plans keyed by (candidate, mask). A plan is a
    /// pure function of those inputs given this context (the latency RNG
    /// is cloned per build), so serving a cached `Arc` is bit-identical
    /// to rebuilding. Shared across context clones via the `Arc` above.
    pub(crate) plan_cache: Mutex<HashMap<PlanKey, Arc<NetworkPlan>>>,
    /// Memoized stage-2–4 outcomes keyed by (scheme, SLA, candidate,
    /// mask) — the whole [`ClusterRunResult`] of one operating-point
    /// evaluation, or the [`ClusterError`] it failed with. Failures are
    /// cached deliberately: an unroutable candidate (e.g. GreedyK(2) at a
    /// peak slot) pays the full consolidation attempt before it is
    /// rejected, and the day loop retries it every epoch otherwise. A
    /// pure function of its key given this context, so hits are
    /// bit-identical to re-runs.
    pub(crate) eval_cache: Mutex<HashMap<EvalKey, Arc<EvalOutcome>>>,
    /// Stage-3 runs of this context, consulted on a result-memo miss.
    /// Stage 3 reads only the tag, the plan's `congested` flag and its
    /// sampled `net_lat`, so a new plan matching an entry on those bit
    /// for bit reuses the entry's evaluation — a masked candidate that
    /// routes differently but samples identical latencies skips the
    /// per-ISN simulations.
    pub(crate) server_evals: Mutex<Vec<ServerEvalEntry>>,
    /// Memoized candidate power floors (pure, always on): the optimizer
    /// recomputes its pruning bounds every search otherwise, and at
    /// k ≥ 16 the GreedyK mandatory-element walk is the search's largest
    /// serial cost on a warm context.
    pub(crate) floor_cache: Mutex<HashMap<FloorKey, f64>>,
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
/// Cloning is cheap (the built state sits behind one `Arc`); a clone can
/// cross threads or carry a different SLA ([`ScenarioContext::with_sla`]).
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

impl ScenarioContext {
    /// Builds the shared scenario state: fat-tree, service model, query
    /// and background workloads, flow set, and the per-candidate RNG
    /// snapshots.
    pub fn build(cfg: &ClusterConfig, spec: &ScenarioSpec) -> ScenarioContext {
        let _t = eprons_obs::Timer::scoped("core.scenario.build_s");
        let mut sp = eprons_obs::Span::enter("scenario.build");
        let obs_on = eprons_obs::enabled();

        // The master RNG's forks are drawn in the exact order the
        // monolithic `run_cluster` drew them, so every downstream stream
        // is bit-identical to the pre-staged path.
        let mut master = SimRng::seed_from_u64(spec.seed);
        let mut service_rng = master.fork(1);
        let mut query_rng = master.fork(2);
        let mut bg_rng = master.fork(3);
        let net_rng = master.fork(4);
        let mut server_seed_rng = master.fork(5);

        let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
        let arena = PathArena::build(ft.clone());
        let n = cfg.num_servers();
        let hosts = ft.hosts().to_vec();

        // --- Service-time model (the measured Xapian log, §V-A). ---
        let samples = xapian_like_samples(&mut service_rng, cfg.service_log_samples);
        let service =
            ServiceModel::from_time_samples(&samples, 0.2, cfg.ladder.max(), cfg.work_pmf_bins);
        let mean_service_s = service.mean_service_time(cfg.ladder.max());

        // --- Query workload (warmup + measured window). ---
        let warmup_s = spec.warmup_s.max(0.0);
        let horizon_s = warmup_s + spec.duration_s;
        let rate = cfg.query_rate_for_utilization(spec.server_utilization, mean_service_s);
        let generator = QueryGenerator::new(n);
        let queries = generator.generate(&mut query_rng, rate, horizon_s);

        // --- Flows (candidate-invariant; consolidation is per-plan). ---
        let mut flows = FlowSet::new();
        if spec.background_util > 0.0 {
            for bf in background_flows(
                &ft,
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
                        hosts[a],
                        hosts[b],
                        cfg.query_flow_mbps,
                        FlowClass::LatencySensitive,
                    );
                    pair_flow[a * n + b] = id;
                }
            }
        }

        // Per-server seeds, drawn serially before any fan-out (the stream
        // is candidate- and scheme-invariant, so it lives in the context).
        let server_seeds: Vec<u64> = (0..n)
            .map(|s| server_seed_rng.fork(s as u64).uniform().to_bits())
            .collect();

        if obs_on {
            eprons_obs::registry().counter("core.scenario.builds").inc();
            eprons_obs::record(eprons_obs::Event::ScenarioBuilt {
                seed: spec.seed,
                queries: queries.len() as u64,
                flows: flows.len() as u64,
                servers: n as u64,
            });
            sp.note(format!(
                "servers={n} queries={} flows={}",
                queries.len(),
                flows.len()
            ));
        }

        ScenarioContext {
            cfg: cfg.clone(),
            spec: spec.clone(),
            data: Arc::new(ScenarioData {
                ft: Arc::new(ft),
                arena: Arc::new(arena),
                plan_cache: Mutex::new(HashMap::new()),
                eval_cache: Mutex::new(HashMap::new()),
                server_evals: Mutex::new(Vec::new()),
                floor_cache: Mutex::new(HashMap::new()),
                hosts,
                vp_ladder: Arc::new(VpLadder::new(service)),
                mean_service_s,
                warmup_s,
                horizon_s,
                queries,
                flows,
                pair_flow,
                server_seeds,
                net_rng,
            }),
        }
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
    /// a pure function of `(cfg, seed)`, and the demand streams are
    /// re-forked from a fresh master in exactly the order
    /// [`ScenarioContext::build`] forks them, so the rebound context is
    /// bit-identical to `build(cfg, spec)` (the day-incremental golden
    /// pins this). A different seed falls back to a full build.
    ///
    /// The stage-2 plan cache starts empty — plans depend on the
    /// demand-dependent latency sampling.
    pub(crate) fn rebind_demand(&self, spec: &ScenarioSpec) -> ScenarioContext {
        if spec.seed != self.spec.seed {
            return ScenarioContext::build(&self.cfg, spec);
        }
        let _t = eprons_obs::Timer::scoped("core.scenario.rebind_s");
        let mut sp = eprons_obs::Span::enter("scenario.rebind");
        let obs_on = eprons_obs::enabled();
        let d = &*self.data;

        // Re-fork the demand streams in build order from a fresh master.
        // `fork` advances the parent, so the *sequence* of forks — not
        // the salt alone — is what reproduces `build`'s streams bit for
        // bit; the service and server-seed streams are drawn and
        // discarded because their products are shared.
        let mut master = SimRng::seed_from_u64(spec.seed);
        let _service_rng = master.fork(1);
        let mut query_rng = master.fork(2);
        let mut bg_rng = master.fork(3);
        let net_rng = master.fork(4);
        let _server_seed_rng = master.fork(5);

        let n = d.hosts.len();
        let warmup_s = spec.warmup_s.max(0.0);
        let horizon_s = warmup_s + spec.duration_s;
        let rate = self
            .cfg
            .query_rate_for_utilization(spec.server_utilization, d.mean_service_s);
        let queries = QueryGenerator::new(n).generate(&mut query_rng, rate, horizon_s);

        let mut flows = FlowSet::new();
        if spec.background_util > 0.0 {
            for bf in background_flows(
                &d.ft,
                &mut bg_rng,
                spec.background_util,
                self.cfg.link_capacity_mbps,
            ) {
                flows.add(bf.src, bf.dst, bf.demand_mbps, FlowClass::LatencyTolerant);
            }
        }
        let mut pair_flow: Vec<FlowId> = vec![FlowId(usize::MAX); n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let id = flows.add(
                        d.hosts[a],
                        d.hosts[b],
                        self.cfg.query_flow_mbps,
                        FlowClass::LatencySensitive,
                    );
                    pair_flow[a * n + b] = id;
                }
            }
        }

        if obs_on {
            eprons_obs::registry()
                .counter("core.scenario.rebinds")
                .inc();
            sp.note(format!(
                "servers={n} queries={} flows={}",
                queries.len(),
                flows.len()
            ));
        }

        ScenarioContext {
            cfg: self.cfg.clone(),
            spec: spec.clone(),
            data: Arc::new(ScenarioData {
                ft: Arc::clone(&d.ft),
                arena: Arc::clone(&d.arena),
                plan_cache: Mutex::new(HashMap::new()),
                eval_cache: Mutex::new(HashMap::new()),
                server_evals: Mutex::new(Vec::new()),
                floor_cache: Mutex::new(HashMap::new()),
                hosts: d.hosts.clone(),
                vp_ladder: Arc::clone(&d.vp_ladder),
                mean_service_s: d.mean_service_s,
                warmup_s,
                horizon_s,
                queries,
                flows,
                pair_flow,
                server_seeds: d.server_seeds.clone(),
                net_rng,
            }),
        }
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
    /// evaluation on this context (and its rebinds and SLA clones).
    pub fn vp_ladder(&self) -> &Arc<VpLadder> {
        &self.data.vp_ladder
    }

    /// A context sharing all built state but evaluating under a different
    /// SLA. Sound because the SLA feeds only the per-candidate stages
    /// (request budgets, feasibility) and never the cached build
    /// (topology, service model, workloads) — the constraint sweeps of
    /// Figs. 12–13 reuse one build across every constraint.
    pub fn with_sla(&self, sla: SlaConfig) -> ScenarioContext {
        let mut cfg = self.cfg.clone();
        cfg.sla = sla;
        ScenarioContext {
            cfg,
            spec: self.spec.clone(),
            data: Arc::clone(&self.data),
        }
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
        // Result memo: the whole evaluation — including a deterministic
        // failure — is a pure function of (scheme, SLA, candidate, mask)
        // given this context, so a repeat operating point skips stages
        // 2–4 outright. Errors are cached too: an infeasible candidate
        // pays its full consolidation attempt before rejection, and the
        // day loop re-offers it every epoch. The lock is never held
        // across an evaluation (same discipline as the plan memo: racing
        // double-evaluations insert identical bits, harmlessly).
        let mut mask = excluded.to_vec();
        mask.sort_unstable();
        mask.dedup();
        let tag = eval_tag(scheme, &self.cfg.sla);
        let key = (
            tag,
            plan_key(consolidation, self.effective_strategy(), &mask),
        );
        let hit = self
            .data
            .eval_cache
            .lock()
            .expect("eval cache poisoned")
            .get(&key)
            .cloned();
        if obs_on {
            let name = if hit.is_some() {
                "core.evalcache.hits"
            } else {
                "core.evalcache.misses"
            };
            eprons_obs::registry().counter(name).inc();
        }
        let outcome = match hit {
            Some(outcome) => outcome,
            None => {
                let outcome = Arc::new(self.plan_masked(consolidation, &mask).map(|plan| {
                    let eval = self.server_eval_reused(tag, &plan, scheme);
                    crate::accounting::assemble(self, &plan, &eval)
                }));
                self.data
                    .eval_cache
                    .lock()
                    .expect("eval cache poisoned")
                    .insert(key, Arc::clone(&outcome));
                outcome
            }
        };
        let result = (*outcome).clone()?;
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

    /// Stage 2 through the per-context memo: returns the cached plan for
    /// (candidate, mask) or builds and caches it. Build failures are not
    /// cached (they are cheap — consolidation rejects before the
    /// expensive latency sampling). The lock is never held across a
    /// build, so parallel candidate fan-outs only contend on the lookup;
    /// a racing double-build inserts the same bits twice, harmlessly.
    pub(crate) fn plan_masked(
        &self,
        consolidation: ConsolidationSpec,
        excluded: &[NodeId],
    ) -> Result<Arc<NetworkPlan>, ClusterError> {
        let mut mask = excluded.to_vec();
        mask.sort_unstable();
        mask.dedup();
        let key = plan_key(consolidation, self.effective_strategy(), &mask);
        let hit = self
            .data
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get(&key)
            .cloned();
        if let Some(plan) = hit {
            if eprons_obs::enabled() {
                eprons_obs::registry().counter("core.plan_cache.hits").inc();
            }
            return Ok(plan);
        }
        let plan = Arc::new(NetworkPlan::build_masked(self, consolidation, &mask)?);
        if eprons_obs::enabled() {
            eprons_obs::registry()
                .counter("core.plan_cache.misses")
                .inc();
        }
        self.data
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Stage 3 through the per-context reuse list: a plan whose
    /// `congested` flag and `net_lat` match, bit for bit, a plan already
    /// evaluated under `tag` reuses that evaluation (stage 3 reads nothing
    /// else that varies within a context); otherwise it runs and joins
    /// the list. Counts one `core.serveval` hit or miss per ISN.
    fn server_eval_reused(
        &self,
        tag: EvalTag,
        plan: &Arc<NetworkPlan>,
        scheme: ServerScheme,
    ) -> Arc<ServerEvaluation> {
        let same_inputs = |other: &NetworkPlan| {
            other.congested == plan.congested
                && other.net_lat.len() == plan.net_lat.len()
                && other.net_lat.iter().zip(&plan.net_lat).all(|(a, b)| {
                    a.len() == b.len()
                        && a.iter().zip(b).all(|(x, y)| {
                            x.0 == y.0
                                && x.1.to_bits() == y.1.to_bits()
                                && x.2.to_bits() == y.2.to_bits()
                        })
                })
        };
        let hit = self
            .data
            .server_evals
            .lock()
            .expect("server-eval list poisoned")
            .iter()
            .find(|(t, p, _)| *t == tag && same_inputs(p))
            .map(|(_, _, eval)| Arc::clone(eval));
        if eprons_obs::enabled() {
            let name = if hit.is_some() {
                "core.serveval.hits"
            } else {
                "core.serveval.misses"
            };
            eprons_obs::registry()
                .counter(name)
                .add(self.num_servers() as u64);
        }
        if let Some(eval) = hit {
            return eval;
        }
        let eval = Arc::new(ServerEvaluation::run(self, plan, scheme));
        self.data
            .server_evals
            .lock()
            .expect("server-eval list poisoned")
            .push((tag, Arc::clone(plan), Arc::clone(&eval)));
        eval
    }

    /// The consolidation architecture `GreedyK` plans of this context
    /// run, with `Auto` resolved against the fabric size.
    pub(crate) fn effective_strategy(&self) -> ConsolidateStrategy {
        self.cfg.consolidate_strategy.effective(self.cfg.fat_tree_k)
    }

    /// Number of stage-2 plans currently memoized.
    pub fn plan_cache_len(&self) -> usize {
        self.data
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .len()
    }

    /// [`crate::optimizer::candidate_power_floor_w`] through the
    /// per-context floor memo. The floor is a pure function of (scheme,
    /// candidate, mask) given this context's flow set, so caching is
    /// invisible to the optimizer's pruning decisions; it just stops a
    /// revived day-cache slot from re-walking the arena for bounds it
    /// has already computed. `GreedyK` keys collapse `K` (the bound
    /// counts mandatory elements only, shared by the whole ladder).
    pub(crate) fn floor_cached(
        &self,
        scheme: ServerScheme,
        spec: ConsolidationSpec,
        excluded: &[NodeId],
    ) -> f64 {
        let (tag, bits) = match spec {
            ConsolidationSpec::AllOn => (0u8, 0u64),
            ConsolidationSpec::Level(l) => (1, l as u64),
            ConsolidationSpec::GreedyK(_) => (2, 0),
        };
        let mut mask: Vec<usize> = excluded.iter().map(|n| n.0).collect();
        mask.sort_unstable();
        mask.dedup();
        let key: FloorKey = (scheme_index(scheme), tag, bits, mask);
        if let Some(&w) = self
            .data
            .floor_cache
            .lock()
            .expect("floor cache poisoned")
            .get(&key)
        {
            return w;
        }
        let w = crate::optimizer::candidate_power_floor_w(self, scheme, spec, excluded);
        self.data
            .floor_cache
            .lock()
            .expect("floor cache poisoned")
            .insert(key, w);
        w
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
/// most epochs *revive* a slot — plan cache included — instead of
/// rebuilding the world. A miss rebinds demand from the most recent slot
/// (`ScenarioContext::rebind_demand`), which shares the topology,
/// arena and service model, so even misses skip the
/// expensive invariant build. Either way the returned context is
/// bit-identical to a fresh [`ScenarioContext::build`].
#[derive(Debug)]
pub struct DayContext {
    cfg: ClusterConfig,
    /// Slots in least-recently-used order (most recent last).
    slots: Mutex<Vec<(SlotKey, ScenarioContext)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time statistics of a [`DayContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayCacheStats {
    /// Contexts currently held.
    pub slots: usize,
    /// Requests served by reviving a held slot.
    pub hits: u64,
    /// Requests that built or rebound a context.
    pub misses: u64,
    /// Slots dropped to stay within the bound.
    pub evictions: u64,
    /// Approximate bytes of demand-dependent state across held slots
    /// (the shared base — arena, service model — is excluded: it exists
    /// once regardless of slot count).
    pub bytes: u64,
}

impl DayContext {
    /// An empty day cache for `cfg`.
    pub fn new(cfg: &ClusterConfig) -> DayContext {
        DayContext {
            cfg: cfg.clone(),
            slots: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The context for `spec`: a revived slot (plan cache and all) on a
    /// hit; on a miss, a demand rebind from the most recent slot — or a
    /// full build for the very first one — inserted before returning.
    pub fn context_for(&self, spec: &ScenarioSpec) -> ScenarioContext {
        let key = slot_key(spec);
        let obs_on = eprons_obs::enabled();
        // Built inside the lock: the day loop is sequential, and holding
        // it keeps a racing duplicate build from double-inserting.
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = slots.iter().position(|(k, _)| *k == key) {
            let slot = slots.remove(i);
            let ctx = slot.1.clone();
            slots.push(slot);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if obs_on {
                eprons_obs::registry().counter("core.daycache.hits").inc();
            }
            return ctx;
        }
        let ctx = match slots.last() {
            Some((_, base)) => base.rebind_demand(spec),
            None => ScenarioContext::build(&self.cfg, spec),
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        if obs_on {
            eprons_obs::registry().counter("core.daycache.misses").inc();
        }
        slots.push((key, ctx.clone()));
        if slots.len() > DAY_SLOTS {
            slots.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if obs_on {
                eprons_obs::registry()
                    .counter("core.daycache.evictions")
                    .inc();
            }
        }
        ctx
    }

    /// `bytes` summed over the contexts of all live slots.
    fn slot_bytes(&self, bytes: impl Fn(&ScenarioData) -> usize) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.iter().map(|(_, ctx)| bytes(&ctx.data)).sum::<usize>() as u64
    }

    /// Approximate bytes held by the evaluation-result memos across all
    /// live slots (each entry is one [`ClusterRunResult`] — or a cached
    /// failure — plus its active-switch id vector).
    pub fn eval_footprint_bytes(&self) -> u64 {
        self.slot_bytes(|d| {
            let evals = d.eval_cache.lock().unwrap_or_else(|e| e.into_inner());
            evals
                .values()
                .map(|outcome| {
                    std::mem::size_of::<EvalOutcome>()
                        + match &**outcome {
                            Ok(r) => r.active_switch_ids.len() * std::mem::size_of::<usize>(),
                            Err(_) => 0,
                        }
                })
                .sum()
        })
    }

    /// Approximate bytes held by the stage-3 reuse lists across all live
    /// slots (each entry's per-ISN completions; its plan is the plan
    /// memo's).
    pub fn server_eval_footprint_bytes(&self) -> u64 {
        self.slot_bytes(|d| {
            let list = d.server_evals.lock().unwrap_or_else(|e| e.into_inner());
            list.iter()
                .flat_map(|(_, _, eval)| &eval.shards)
                .map(|s| s.completions.len() * std::mem::size_of::<(u64, f64, f64)>())
                .sum()
        })
    }

    /// Current cache statistics (slot count, hit/miss/eviction totals,
    /// approximate bytes held).
    pub fn stats(&self) -> DayCacheStats {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut bytes = 0usize;
        for (_, ctx) in slots.iter() {
            let d = &*ctx.data;
            bytes += d.queries.len() * std::mem::size_of::<Query>()
                + d.flows.len() * std::mem::size_of::<eprons_net::Flow>()
                + d.pair_flow.len() * std::mem::size_of::<FlowId>();
            let plans = d.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
            for plan in plans.values() {
                bytes += plan
                    .net_lat
                    .iter()
                    .map(|v| v.len() * std::mem::size_of::<(usize, f64, f64)>())
                    .sum::<usize>();
            }
        }
        DayCacheStats {
            slots: slots.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: bytes as u64,
        }
    }
}

/// Stage 2: one candidate network configuration applied to a scenario —
/// the consolidation assignment plus the per-sub-query network latencies
/// sampled along its paths.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    pub(crate) assignment: Assignment,
    pub(crate) max_link_utilization: f64,
    /// Peak utilization above the congestion threshold (withdraws
    /// TimeTrader's network slack).
    pub(crate) congested: bool,
    /// Per query: `(ISN, request latency, reply latency)` in seconds.
    pub(crate) net_lat: Vec<Vec<(usize, f64, f64)>>,
}

impl NetworkPlan {
    /// Runs consolidation for `consolidation` against the scenario's flow
    /// set, with the `excluded` (failed) switches masked out, and samples
    /// the per-sub-query request/reply latencies. Excluded switches carry
    /// no path and stay powered off even inside an aggregation preset.
    pub(crate) fn build_masked(
        ctx: &ScenarioContext,
        consolidation: ConsolidationSpec,
        excluded: &[NodeId],
    ) -> Result<NetworkPlan, ClusterError> {
        let _t = eprons_obs::Timer::scoped("core.stage.network_plan_s");
        let mut sp = eprons_obs::Span::enter("stage.network_plan");
        if eprons_obs::enabled() {
            sp.note(format!("spec={}", consolidation.label()));
        }
        let d = &*ctx.data;
        let n = d.hosts.len();
        let mut mask = excluded.to_vec();
        mask.sort_unstable();
        mask.dedup();
        let ccfg = ConsolidationConfig {
            scale_k: match consolidation {
                ConsolidationSpec::GreedyK(k) => k,
                _ => 1.0,
            },
            safety_margin_mbps: ctx.cfg.safety_margin_mbps,
            power: ctx.cfg.net_power.clone(),
            excluded: mask,
        };
        // Consolidation routes through the shared path arena: identical
        // candidate paths, no per-candidate graph re-enumeration.
        let consolidate_span = eprons_obs::Span::enter("consolidate");
        let assignment: Assignment = match consolidation {
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
        .map_err(ClusterError::Consolidation)?;
        drop(consolidate_span);

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
        let state = assignment.state();
        let topo = d.ft.topology();
        let mut net_rng = d.net_rng.clone();
        // One flat buffer of per-hop utilizations for all n·(n−1) pairs
        // (offsets index it) instead of a map of n² small vectors — the
        // utilizations are RNG-free, so the layout change is invisible to
        // the sampled stream.
        let mut util_off: Vec<u32> = Vec::with_capacity(n * n + 1);
        let mut util_buf: Vec<f64> = Vec::new();
        let mut scratch = Vec::new();
        util_off.push(0);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let fid = d.pair_flow[a * n + b];
                    state.path_utilizations_into(topo, assignment.path(fid), &mut scratch);
                    util_buf.extend_from_slice(&scratch);
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
}

/// The lowest per-core power the scheme's DVFS policy can draw in any
/// state — the same floor stage 3 integrates through trailing idle time,
/// so every simulated `avg_core_w` is ≥ this value. The optimizer's
/// candidate lower bound rests on that inequality.
pub(crate) fn scheme_idle_floor_w(cfg: &ClusterConfig, scheme: ServerScheme) -> f64 {
    let policy: Box<dyn DvfsPolicy> = match scheme {
        ServerScheme::NoPowerManagement => Box::new(MaxFreqPolicy),
        ServerScheme::Rubik => Box::new(MaxVpPolicy::rubik()),
        ServerScheme::RubikPlus => Box::new(MaxVpPolicy::rubik_plus()),
        ServerScheme::TimeTrader => Box::new(TimeTraderPolicy::new(
            cfg.sla.server_budget_s,
            cfg.ladder.len(),
        )),
        ServerScheme::EpronsServer => Box::new(AvgVpPolicy::eprons()),
        ServerScheme::DeepSleep => Box::new(DeepSleepPolicy::new()),
    };
    policy
        .idle_power_w()
        .unwrap_or_else(|| cfg.cpu.core_idle_w())
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
            let mut policy: Box<dyn DvfsPolicy> = match scheme {
                ServerScheme::NoPowerManagement => Box::new(MaxFreqPolicy),
                ServerScheme::Rubik => Box::new(MaxVpPolicy::rubik()),
                ServerScheme::RubikPlus => Box::new(MaxVpPolicy::rubik_plus()),
                ServerScheme::TimeTrader => {
                    Box::new(TimeTraderPolicy::new(timetrader_target, cfg.ladder.len()))
                }
                ServerScheme::EpronsServer => Box::new(AvgVpPolicy::eprons()),
                ServerScheme::DeepSleep => Box::new(DeepSleepPolicy::new()),
            };
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
    /// `core.serveval` hit per ISN — and matches a fresh context's
    /// evaluation; a mask whose latencies differ misses. (`{:?}` prints
    /// every `f64` in round-trip form, so equal text is equal bits. The
    /// `core.serveval` counters are process-wide, but no other test in
    /// this binary reuses a stage-3 run, so the hit count is exact.)
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
        let base = ctx.plan_masked(k2, &[]).unwrap();
        let half = cfg.fat_tree_k / 2;
        let (mut same, mut differs) = (None, None);
        for core in (0..half * half).map(|i| ctx.data.ft.core(i / half, i % half)) {
            if let Ok(plan) = ctx.plan_masked(k2, &[core]) {
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

        let hits = || eprons_obs::registry().counter("core.serveval.hits").get();
        let entries = || ctx.data.server_evals.lock().unwrap().len();
        let n = ctx.num_servers() as u64;
        eprons_obs::set_enabled(true);
        let (h0, e0) = (hits(), entries());
        let reused = ctx.evaluate_masked(scheme, k2, &[same]).unwrap();
        let (h1, e1) = (hits(), entries());
        ctx.evaluate_masked(scheme, k2, &[differs]).unwrap();
        let (h2, e2) = (hits(), entries());
        eprons_obs::set_enabled(false);

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
        for i in 0..DAY_SLOTS {
            day.context_for(&spec(i));
        }
        // Reviving slot 0 leaves slot 1 the least recently used.
        day.context_for(&spec(0));
        let full = day.stats();
        assert_eq!(
            (full.slots, full.hits, full.misses, full.evictions),
            (DAY_SLOTS, 1, DAY_SLOTS as u64, 0)
        );

        day.context_for(&spec(DAY_SLOTS));
        let evicted = day.stats();
        assert_eq!((evicted.slots, evicted.evictions), (DAY_SLOTS, 1));
        // Slot 0 survived the eviction; slot 1 did not.
        day.context_for(&spec(0));
        assert_eq!(day.stats().hits, 2, "the revived slot must survive");
        day.context_for(&spec(1));
        let after = day.stats();
        assert_eq!(
            (after.misses, after.evictions),
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
}
