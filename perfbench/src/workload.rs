//! The three controller days the benchmark drives. README.md gives the
//! reason each one is here and which layers it stresses.

use std::path::Path;

use eprons_core::optimizer::{aggregation_candidates, scale_factor_candidates};
use eprons_core::scenario::ScenarioSpec;
use eprons_core::{
    ClusterConfig, DayConfig, DayScopeConfig, DayStrategy, FailureEvent, FailureEventKind,
    FailureSchedule, FlashCrowd, OnlineConfig, ReplayTrace, TraceScenario,
};
use eprons_sim::SimRng;
use eprons_topo::FatTree;
use eprons_workload::{correlated_failures_during_ramp, DiurnalProfile};

/// The simulator's own master seed (query arrivals, service samples,
/// background placement) on every workload: the harness's `BASE_SEED`, as
/// `replay_day` and `flashcrowd_day` use. The workload seed draws only the
/// day's inputs, its demand and its failures. A random master seed aborts
/// some replay days (the GreedyK ladder has no all-on rung, and some
/// background placements leave no routable rung at the bg=0.5 peak), and
/// on the 16-server flash crowd it swings the day's churn from 6 to 29
/// toggles, more than a run can average out.
const MASTER_SEED: u64 = eprons_bench::BASE_SEED;

/// Minutes of the replay trace's midday burst, where its core fails.
const REPLAY_BURST: (usize, usize) = (690, 780);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The committed replay traces, online and day-scoped, on k=8.
    ReplayK8,
    /// The paper's diurnal day through the cold parallel branch on k=8.
    DiurnalK8,
    /// The reference flash crowd through the online loop on k=4.
    FlashcrowdK4,
}

/// Everything one `simulate_day_with_failures` call takes.
pub struct Day {
    pub cfg: ClusterConfig,
    pub strategy: DayStrategy,
    pub day: DayConfig,
    pub schedule: FailureSchedule,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReplayK8,
        Workload::DiurnalK8,
        Workload::FlashcrowdK4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayK8 => "replay_k8",
            Workload::DiurnalK8 => "diurnal_k8",
            Workload::FlashcrowdK4 => "flashcrowd_k4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The day this workload simulates for `seed`, which draws the
    /// synthetic demand traces and the core failures. The replay traces
    /// are fixed data.
    pub fn day(self, seed: u64) -> Day {
        match self {
            Workload::ReplayK8 => {
                let cfg = egress_capped(8);
                let load = |file: &str| {
                    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("../crates/bench/data")
                        .join(file);
                    ReplayTrace::load(&path)
                        .unwrap_or_else(|e| panic!("load {}: {e}", path.display()))
                };
                let schedule = core_failures(&cfg, REPLAY_BURST, 1, seed);
                Day {
                    strategy: DayStrategy::Eprons {
                        candidates: scale_factor_candidates(2),
                    },
                    day: DayConfig {
                        epoch_minutes: 10,
                        sim_seconds: 0.5,
                        peak_utilization: 0.5,
                        seed: MASTER_SEED,
                        warm_start: true,
                        search_trace: TraceScenario::Replay(load("replay_qps.trace")),
                        background_trace: TraceScenario::Replay(load("replay_bg.trace")),
                        online: Some(OnlineConfig::enabled()),
                        day_scope: Some(DayScopeConfig::default()),
                    },
                    schedule,
                    cfg,
                }
            }
            Workload::DiurnalK8 => Day {
                cfg: egress_capped(8),
                strategy: DayStrategy::Eprons {
                    candidates: aggregation_candidates()
                        .into_iter()
                        .chain(scale_factor_candidates(2))
                        .collect(),
                },
                day: DayConfig {
                    epoch_minutes: 120,
                    sim_seconds: 0.25,
                    peak_utilization: 0.5,
                    seed: MASTER_SEED,
                    warm_start: false,
                    search_trace: drawn(
                        &TraceScenario::Diurnal(DiurnalProfile::search_load()),
                        seed,
                        1,
                    ),
                    background_trace: diurnal_background(seed),
                    online: None,
                    day_scope: None,
                },
                schedule: FailureSchedule::none(),
            },
            Workload::FlashcrowdK4 => {
                let cfg = ClusterConfig::default();
                let crowd = FlashCrowd::reference();
                let schedule = core_failures(&cfg, crowd.ramp_window(), 2, seed ^ 0xf1a5);
                Day {
                    cfg,
                    strategy: DayStrategy::Eprons {
                        candidates: aggregation_candidates(),
                    },
                    day: DayConfig {
                        epoch_minutes: 60,
                        sim_seconds: 1.0,
                        peak_utilization: 0.5,
                        seed: MASTER_SEED,
                        warm_start: true,
                        search_trace: drawn(&TraceScenario::FlashCrowd(crowd), seed, 1),
                        background_trace: diurnal_background(seed),
                        online: Some(OnlineConfig::enabled()),
                        day_scope: None,
                    },
                    schedule,
                }
            }
        }
    }
}

impl Day {
    /// The scenario the controller builds for its first epoch: the
    /// predicted operating point before any deferral, derived from the
    /// day's traces exactly as the controller derives it.
    pub fn first_epoch_spec(&self) -> ScenarioSpec {
        let d = &self.day;
        let mut rng = SimRng::seed_from_u64(d.seed);
        let search = d.search_trace.sample_day(&mut rng.fork(1));
        let background = d.background_trace.sample_day(&mut rng.fork(2));
        let load = search[d.epoch_minutes / 2];
        let util = (d.peak_utilization * load).max(0.02);
        let bg = background[0].clamp(0.01, 0.95);
        let quantize = |x: f64| (x / 0.05).round() * 0.05;
        let (util, bg) = if d.day_scope.is_some() {
            (quantize(util).max(0.05), quantize(bg))
        } else {
            (util, bg)
        };
        ScenarioSpec {
            server_utilization: util,
            background_util: bg,
            duration_s: d.sim_seconds,
            warmup_s: 0.0,
            seed: d.seed,
        }
    }
}

/// One sampled day of `trace`, drawn from stream `stream` of `seed` and
/// handed to the controller as fixed data.
fn drawn(trace: &TraceScenario, seed: u64, stream: u64) -> TraceScenario {
    let mut rng = SimRng::seed_from_u64(seed);
    TraceScenario::Replay(ReplayTrace::new(trace.sample_day(&mut rng.fork(stream))))
}

/// The paper's diurnal background-traffic day, drawn from `seed`.
fn diurnal_background(seed: u64) -> TraceScenario {
    drawn(
        &TraceScenario::Diurnal(DiurnalProfile::background_traffic()),
        seed,
        2,
    )
}

/// The default cluster on a k-ary fat-tree, with each host's query egress
/// held at 300 Mbps: there is one query flow per peer, so without the cap
/// the aggregate oversubscribes the 1 Gbps edge uplinks from k=8 on.
fn egress_capped(k: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        fat_tree_k: k,
        ..ClusterConfig::default()
    };
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    cfg
}

/// `count` distinct core switches, each failing at a uniform minute of
/// `window` and recovering 40 minutes later, drawn from `rng_seed`.
fn core_failures(
    cfg: &ClusterConfig,
    window: (usize, usize),
    count: usize,
    rng_seed: u64,
) -> FailureSchedule {
    let topo = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let cores: Vec<usize> = topo.core_switches().iter().map(|n| n.0).collect();
    let failures = correlated_failures_during_ramp(
        window,
        &cores,
        count,
        40.0,
        &mut SimRng::seed_from_u64(rng_seed),
    );
    let events = failures
        .iter()
        .flat_map(|f| {
            [
                FailureEvent {
                    minute: f.fail_minute,
                    switch: f.switch,
                    kind: FailureEventKind::Fail,
                },
                FailureEvent {
                    minute: f.fail_minute + f.downtime_minutes,
                    switch: f.switch,
                    kind: FailureEventKind::Recover,
                },
            ]
        })
        .collect();
    FailureSchedule::scripted(events)
}
