//! The SDN-controller day loop (paper Fig. 7 + Fig. 15).
//!
//! The centralized controller gathers traffic statistics, predicts the next
//! epoch's demand (90th percentile of the last epoch, §II), re-runs the
//! optimizer every 10 minutes (§IV-B), and reconfigures paths/switch
//! states. [`simulate_day`] replays a 24-hour diurnal day (Fig. 14) through
//! that loop and records the power timeline of Fig. 15.
//!
//! [`simulate_day_with_failures`] replays the same day against a
//! [`FailureSchedule`]: switches down at an epoch's start are masked out
//! of that epoch's candidate ladder, and a mid-epoch failure walks the
//! degradation ladder of [`eprons_net::failure`] — in-epoch repair
//! (charging boot energy for woken backups), re-consolidation around the
//! failure, all-on fallback, or, when even that cannot route, an
//! unprotected epoch whose SLA flag is forced false.
//!
//! Each epoch runs four named stages: **demand** (predict, defer,
//! day-scope quantize), **choose** (the pruned candidate ladder),
//! **survive** (the degradation ladder and its power segments) and
//! **record** (snapshot and journal).
//!
//! Setting [`DayConfig::online`] turns the loop into an **online
//! streaming controller**: epochs run strictly in sequence carrying a
//! bounded deferral queue across boundaries, which shaves
//! latency-tolerant background demand off peaks and drains it into
//! troughs ([`DeferralConfig`]). Every optimizer pick commits: at §IV-B's
//! 72.52 s power-on a switch boot costs ≈2.6 kJ, which one 10-minute
//! epoch of a 36 W switch repays several times over. Demand is
//! still observed per minute through [`DemandPredictor`] (§II's 90th
//! percentile); predictions are exogenous to the control decisions, so
//! the streamed timeline stays a deterministic pure function of its
//! inputs and is bit-identical across thread budgets.

use std::collections::VecDeque;

use eprons_net::failure::{
    DegradationPolicy, DegradationStage, FailureEvent, FailureEventKind, FailureSchedule,
};
use eprons_net::flow::FlowId;
use eprons_net::transition::{Churn, TransitionModel};
use eprons_net::{Assignment, DemandPredictor, NetworkState};
use eprons_sim::SimRng;
use eprons_topo::{FatTree, NodeId};
use eprons_workload::adversarial::TraceScenario;
use eprons_workload::diurnal::{DiurnalProfile, MINUTES_PER_DAY};

use crate::accounting::PowerBreakdown;
use crate::cluster::{ClusterRun, ClusterRunResult, ConsolidationSpec, ServerScheme};
use crate::config::{ClusterConfig, DayScopeConfig, DeferralConfig, OnlineConfig};
use crate::optimizer::optimize_in_context_pruned;
use crate::parallel::parallel_map;
use crate::scenario::{DayContext, ScenarioContext, ScenarioSpec};

/// The three Fig. 15 contenders.
#[derive(Debug, Clone)]
pub enum DayStrategy {
    /// No power management anywhere.
    NoPowerManagement,
    /// TimeTrader on the servers; the DCN stays fully on ("TimeTrader
    /// doesn't save any DCN power", §V-B3).
    TimeTrader,
    /// Full EPRONS: EPRONS-Server plus per-epoch joint optimization over
    /// the given candidate network configurations.
    Eprons {
        /// Candidate network configurations for the joint optimizer.
        candidates: Vec<ConsolidationSpec>,
    },
}

impl DayStrategy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DayStrategy::NoPowerManagement => "no-power-management",
            DayStrategy::TimeTrader => "timetrader",
            DayStrategy::Eprons { .. } => "eprons",
        }
    }
}

/// One epoch's record in the day timeline.
#[derive(Debug, Clone)]
pub struct DayRecord {
    /// Epoch midpoint, minutes since midnight.
    pub minute: f64,
    /// Search load as a fraction of peak.
    pub search_load: f64,
    /// Background traffic fraction used (the *predicted* value the
    /// controller acted on).
    pub background_util: f64,
    /// Measured power split.
    pub breakdown: PowerBreakdown,
    /// Active switches chosen for this epoch.
    pub active_switches: usize,
    /// Identities of the active switches (node indices), for churn
    /// accounting across epochs.
    pub active_switch_ids: Vec<usize>,
    /// Measured end-to-end p95, seconds.
    pub e2e_p95_s: f64,
    /// Whether the epoch met the SLA.
    pub feasible: bool,
    /// Switches down at any point during the epoch (node indices: those
    /// already down at the epoch start, then mid-epoch failures in event
    /// order). Empty on a failure-free epoch.
    pub failed_switches: Vec<usize>,
    /// Boot energy charged inside this epoch for repairs and recoveries
    /// (joules) — §IV-B's 72.52 s power-on cost per woken switch.
    pub boot_energy_j: f64,
    /// Worst degradation-ladder rung a mid-epoch failure forced, if any.
    /// `None` on epochs that ran their chosen configuration untouched.
    pub degradation: Option<DegradationStage>,
    /// Megabit-minutes of background demand the online controller
    /// deferred out of this epoch (always 0 in epoch-batch mode).
    pub deferred_mbps_min: f64,
    /// Megabit-minutes of previously deferred demand drained into this
    /// epoch's trough (always 0 in epoch-batch mode).
    pub drained_mbps_min: f64,
    /// Always false: the controller commits every optimizer pick. The
    /// field remains because `perfbench` reads it for `controller.holds`,
    /// and the timeline CSV's `held` column remains because the committed
    /// timelines are byte-compared goldens.
    pub held_by_hysteresis: bool,
}

/// Day-simulation knobs.
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// Optimization period in minutes (10 in the paper).
    pub epoch_minutes: usize,
    /// Simulated seconds of queries per epoch evaluation.
    pub sim_seconds: f64,
    /// Per-ISN utilization at peak search load.
    pub peak_utilization: f64,
    /// Master seed.
    pub seed: u64,
    /// Carry each epoch's live configuration into the next epoch's
    /// ladder search as an ordering hint (EPRONS strategy only). Epochs
    /// then run sequentially instead of fanning out, trading epoch-level
    /// parallelism for warm-started searches; the timeline itself is
    /// bit-identical either way (the hint never changes a choice, only
    /// the evaluation order). Online and incremental day-scoped days run
    /// sequentially, and so always hint, whatever this says.
    pub warm_start: bool,
    /// Search-load trace for the day. Defaults to the paper's sinusoidal
    /// diurnal profile; swap in a [`TraceScenario::FlashCrowd`] or
    /// [`TraceScenario::Step`] to stress the controller adversarially.
    pub search_trace: TraceScenario,
    /// Background-traffic trace (same default/options as `search_trace`).
    pub background_trace: TraceScenario,
    /// Online streaming-controller extensions (workload deferral).
    /// `None` keeps the epoch-batch loop; `Some` forces sequential
    /// epochs with cross-epoch state.
    pub online: Option<OnlineConfig>,
    /// Day-scoped evaluation semantics: constant master seed across the
    /// day's epochs and demand quantized onto the warm-start grid, which
    /// makes cross-epoch context/cache reuse sound (see
    /// [`DayScopeConfig`]). `None` keeps the legacy per-epoch-seed
    /// behavior bit for bit.
    pub day_scope: Option<DayScopeConfig>,
}

impl Default for DayConfig {
    fn default() -> Self {
        DayConfig {
            epoch_minutes: 10,
            sim_seconds: 4.0,
            peak_utilization: 0.5,
            seed: 2018,
            warm_start: true,
            search_trace: TraceScenario::Diurnal(DiurnalProfile::search_load()),
            background_trace: TraceScenario::Diurnal(DiurnalProfile::background_traffic()),
            online: None,
            day_scope: None,
        }
    }
}

/// The warm-start demand grid (5 % utilization steps). Day-scoped runs
/// snap every epoch's demand onto it so adjacent epochs at the same
/// operating point present bit-identical scenario specs.
fn quantize_demand(x: f64) -> f64 {
    (x / 0.05).round() * 0.05
}

/// One slab of deferred background demand waiting for a trough.
struct DeferredSlab {
    mbps_min: f64,
    /// Last epoch index at which this slab may still drain.
    deadline_epoch: usize,
}

/// What the deferral queue did to one epoch's demand.
struct DeferralOutcome {
    /// Background utilization the controller actually admits this epoch.
    bg: f64,
    enqueued_mbps_min: f64,
    drained_mbps_min: f64,
}

/// The bounded deferral queue: FIFO slabs of shaved background demand in
/// megabit-minutes, each with a slack deadline. Conservation invariant
/// (checked by `obsctl audit` over the journal): every megabit-minute
/// enqueued is eventually drained or dropped — never silently lost.
struct DeferralQueue {
    knobs: DeferralConfig,
    /// Converts background *utilization* to megabit-minutes per epoch.
    util_to_mbps_min: f64,
    slabs: VecDeque<DeferredSlab>,
    depth_mbps_min: f64,
}

impl DeferralQueue {
    fn new(knobs: DeferralConfig, link_capacity_mbps: f64, epoch_minutes: f64) -> Self {
        DeferralQueue {
            knobs,
            util_to_mbps_min: link_capacity_mbps * epoch_minutes,
            slabs: VecDeque::new(),
            depth_mbps_min: 0.0,
        }
    }

    /// Applies the queue to epoch `e`'s predicted background demand:
    /// expired slabs drop first, then demand above the defer threshold is
    /// shaved into the queue (bounded by the per-epoch fraction and the
    /// queue cap), or — in a trough — queued slabs drain greedily up to
    /// the drain headroom. Emits the journal events the conservation
    /// audit sums.
    fn step(&mut self, e: usize, predicted_bg: f64, obs_on: bool) -> DeferralOutcome {
        // Uniform slack makes deadlines FIFO-monotone: expiry only ever
        // needs to look at the front.
        let mut dropped = 0.0;
        while self.slabs.front().is_some_and(|s| s.deadline_epoch < e) {
            let slab = self.slabs.pop_front().expect("front exists");
            dropped += slab.mbps_min;
            self.depth_mbps_min -= slab.mbps_min;
        }
        let mut bg = predicted_bg;
        let mut enqueued = 0.0;
        let mut drained = 0.0;
        if bg > self.knobs.defer_threshold {
            let want = (bg - self.knobs.defer_threshold).min(bg * self.knobs.max_defer_fraction);
            let room = (self.knobs.queue_cap_mbps_min - self.depth_mbps_min).max(0.0);
            let amount_util = want.min(room / self.util_to_mbps_min);
            if amount_util > 1e-9 {
                enqueued = amount_util * self.util_to_mbps_min;
                self.slabs.push_back(DeferredSlab {
                    mbps_min: enqueued,
                    deadline_epoch: e + self.knobs.slack_epochs,
                });
                self.depth_mbps_min += enqueued;
                bg -= amount_util;
                if obs_on {
                    eprons_obs::record(eprons_obs::Event::DeferralEnqueued {
                        epoch: e as u64,
                        mbps_min: enqueued,
                        queue_mbps_min: self.depth_mbps_min,
                        slack_epochs: self.knobs.slack_epochs as u64,
                    });
                }
            }
        } else if bg < self.knobs.drain_headroom {
            let mut head = (self.knobs.drain_headroom - bg) * self.util_to_mbps_min;
            while head > 1e-9 {
                let Some(front) = self.slabs.front_mut() else {
                    break;
                };
                let take = front.mbps_min.min(head);
                front.mbps_min -= take;
                self.depth_mbps_min -= take;
                drained += take;
                head -= take;
                if front.mbps_min <= 1e-9 {
                    // Absorb the sub-nanobit residue into the drain so the
                    // running depth and the slab sum cannot drift apart.
                    drained += front.mbps_min;
                    self.depth_mbps_min -= front.mbps_min;
                    self.slabs.pop_front();
                }
            }
            bg += drained / self.util_to_mbps_min;
        }
        if obs_on && (drained > 0.0 || dropped > 0.0) {
            eprons_obs::record(eprons_obs::Event::DeferralDrained {
                epoch: e as u64,
                drained_mbps_min: drained,
                dropped_mbps_min: dropped,
                queue_mbps_min: self.depth_mbps_min,
            });
        }
        DeferralOutcome {
            bg,
            enqueued_mbps_min: enqueued,
            drained_mbps_min: drained,
        }
    }

    /// End of day: whatever is still queued missed its window and is
    /// dropped, so the journal's conservation sum closes exactly.
    fn flush(&mut self, e: usize, obs_on: bool) {
        if self.slabs.is_empty() {
            return;
        }
        let dropped = self.depth_mbps_min;
        self.slabs.clear();
        self.depth_mbps_min = 0.0;
        if obs_on {
            eprons_obs::record(eprons_obs::Event::DeferralDrained {
                epoch: e as u64,
                drained_mbps_min: 0.0,
                dropped_mbps_min: dropped,
                queue_mbps_min: 0.0,
            });
        }
    }
}

/// Replays one diurnal day under a strategy; returns one record per epoch.
///
/// Equivalent to [`simulate_day_with_failures`] with the empty schedule
/// (bit-identical: the failure machinery is pure data the epochs consult,
/// and an empty schedule leaves every epoch's evaluation untouched).
pub fn simulate_day(
    cfg: &ClusterConfig,
    strategy: &DayStrategy,
    day: &DayConfig,
) -> Vec<DayRecord> {
    simulate_day_with_failures(cfg, strategy, day, &FailureSchedule::none())
}

/// [`simulate_day`] against a switch-failure schedule (the §IV-B regime
/// the paper defers to "backup paths").
///
/// Per epoch: switches the schedule marks down at the epoch start are
/// masked out of the candidate ladder, so the optimizer never routes
/// through dead hardware. A failure *inside* the epoch walks the
/// degradation ladder — (1) in-epoch repair of the victim flows, waking
/// backup switches and charging their boot energy; (2) if repair fails,
/// immediate re-consolidation with the failure masked; (3) the all-on
/// configuration minus failures; (4) as a last resort the epoch runs
/// unprotected with `feasible` forced false. Power within an
/// event-carrying epoch is time-weighted across the segments between
/// events; a crashed switch keeps drawing its hung power until the next
/// epoch boundary. A recover event charges the §IV-B boot energy; the
/// recovered switch rejoins the candidate pool at the next epoch
/// boundary (its 72.52 s boot makes it useless mid-epoch anyway).
///
/// Every epoch runs the same four stages — **demand**, **choose**,
/// **survive**, **record**. A day that carries state across
/// epochs (an online controller, an incremental day cache, or a
/// warm-started EPRONS search) runs them in sequence; any other day has
/// independent epochs and fans them out over threads. Either way the
/// timeline is a pure function of the arguments.
pub fn simulate_day_with_failures(
    cfg: &ClusterConfig,
    strategy: &DayStrategy,
    day: &DayConfig,
    schedule: &FailureSchedule,
) -> Vec<DayRecord> {
    let mut rng = SimRng::seed_from_u64(day.seed);
    let search = day.search_trace.sample_day(&mut rng.fork(1));
    let background = day.background_trace.sample_day(&mut rng.fork(2));
    let epochs = MINUTES_PER_DAY / day.epoch_minutes;
    let obs_on = eprons_obs::enabled();
    // Root of the day's causal-span tree; epoch spans attach to it by id
    // because a fanned-out day runs its epochs on worker threads.
    let mut day_span = eprons_obs::Span::enter("day");
    day_span.note(format!("strategy={} epochs={epochs}", strategy.name()));
    if obs_on {
        eprons_obs::record(eprons_obs::Event::DayStart {
            strategy: strategy.name().to_string(),
            epochs: epochs as u64,
        });
        for ev in schedule.events() {
            eprons_obs::record(eprons_obs::Event::FailureInjected {
                switch: ev.switch as u64,
                minute: ev.minute,
                kind: ev.kind.label().to_string(),
            });
        }
    }
    let inputs = epoch_inputs(day, &search, &background);
    let online = day.online.clone().unwrap_or_default();
    let mut carry = Carry {
        hint: None,
        queue: online.deferral.map(|knobs| {
            DeferralQueue::new(knobs, cfg.link_capacity_mbps, day.epoch_minutes as f64)
        }),
        day_ctx: day
            .day_scope
            .as_ref()
            .filter(|ds| ds.incremental)
            .map(|_| DayContext::new(cfg)),
    };
    // Counter snapshot so the day-end report shows this day's memo
    // traffic, not the process total.
    let counter = |name: &str| eprons_obs::registry().counter(name).get();
    let memo_counters_0 = [
        "core.evalcache.hits",
        "core.evalcache.misses",
        "core.serveval.hits",
        "core.serveval.misses",
    ]
    .map(counter);
    let stages = DayLoop {
        cfg,
        strategy,
        day,
        schedule,
        obs_on,
        span: day_span.id(),
    };
    let sequential = day.online.is_some()
        || carry.day_ctx.is_some()
        || (day.warm_start && matches!(strategy, DayStrategy::Eprons { .. }));
    let records: Vec<DayRecord> = if sequential {
        let out: Vec<DayRecord> = inputs.iter().map(|i| stages.epoch(i, &mut carry)).collect();
        if let Some(q) = carry.queue.as_mut() {
            q.flush(inputs.len(), obs_on);
        }
        out
    } else {
        // No cross-epoch state: every epoch gets an empty carry, so the
        // epochs are independent and fan out. Candidate- and server-level
        // fan-out inside an epoch fills the thread budget either way.
        parallel_map(&inputs, |i| stages.epoch(i, &mut Carry::default()))
    };
    if let Some(dc) = carry.day_ctx.as_ref().filter(|_| obs_on) {
        let s = dc.stats();
        let [eh, em, sh, sm] = memo_counters_0;
        for (cache, hits, misses, evictions, bytes) in [
            ("core.daycache", s.hits, s.misses, s.evictions, s.bytes),
            (
                "core.evalcache",
                counter("core.evalcache.hits") - eh,
                counter("core.evalcache.misses") - em,
                0,
                dc.eval_footprint_bytes(),
            ),
            (
                "server.serveval",
                counter("core.serveval.hits") - sh,
                counter("core.serveval.misses") - sm,
                0,
                dc.server_eval_footprint_bytes(),
            ),
        ] {
            eprons_obs::record(eprons_obs::Event::DayCacheReport {
                cache: cache.to_string(),
                hits,
                misses,
                evictions,
                bytes,
            });
        }
    }

    if obs_on {
        // Epoch-boundary churn: rebuild each epoch's NetworkState from its
        // active switch set and diff consecutive states, journaling the
        // links/switches toggled by every reconfiguration.
        let _churn_span = eprons_obs::Span::enter("day.churn");
        let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
        let topo = ft.topology();
        let state_of = |ids: &[usize]| {
            let active: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
            NetworkState::with_active_switches(topo, &active)
        };
        for w in records.windows(2) {
            let d =
                state_of(&w[0].active_switch_ids).delta(topo, &state_of(&w[1].active_switch_ids));
            eprons_obs::record(eprons_obs::Event::LinkStateChange {
                links_on: d.links_on as u64,
                links_off: d.links_off as u64,
                switches_on: d.switches_on as u64,
                switches_off: d.switches_off as u64,
            });
        }
        // Day-level energy roll-up the audit reconciles against the
        // per-epoch snapshots and power segments.
        eprons_obs::record(eprons_obs::Event::DayEnergy {
            strategy: strategy.name().to_string(),
            epochs: records.len() as u64,
            energy_j: day_total_energy_j(&records, day),
            boot_energy_j: records.iter().map(|r| r.boot_energy_j).sum(),
        });
    }
    drop(day_span);
    records
}

/// One epoch's exogenous inputs.
struct EpochInput {
    e: usize,
    /// Epoch midpoint, minutes since midnight.
    minute: f64,
    /// Search load at the midpoint, as a fraction of peak.
    load: f64,
    /// The controller's background prediction, before any deferral.
    predicted_bg: f64,
}

/// The prediction half of the **demand** stage, for the whole day up
/// front: the controller predicts each epoch's background demand as the
/// 90th percentile of the previous epoch's per-minute observations (§II).
/// Predictions are exogenous to the control decisions, so they need no
/// cross-epoch controller state.
fn epoch_inputs(day: &DayConfig, search: &[f64], background: &[f64]) -> Vec<EpochInput> {
    let mut predictor = DemandPredictor::paper_default(1);
    (0..MINUTES_PER_DAY / day.epoch_minutes)
        .map(|e| {
            let start = e * day.epoch_minutes;
            // Act on the last epoch's prediction (first epoch: observe only).
            let predicted = predictor.predict(FlowId(0)).unwrap_or(background[start]);
            for &obs in &background[start..start + day.epoch_minutes] {
                predictor.observe(FlowId(0), obs);
            }
            predictor.roll_epoch();
            let minute = start as f64 + day.epoch_minutes as f64 / 2.0;
            EpochInput {
                e,
                minute,
                load: search[(minute as usize).min(MINUTES_PER_DAY - 1)],
                predicted_bg: predicted.clamp(0.01, 0.95),
            }
        })
        .collect()
}

/// Controller state a sequential day carries across epoch boundaries.
/// A fanned-out day hands every epoch an empty one.
#[derive(Default)]
struct Carry {
    /// The configuration live when the previous epoch closed: an
    /// ordering hint for the pruned ladder, never a result change.
    hint: Option<ConsolidationSpec>,
    queue: Option<DeferralQueue>,
    /// The incremental day scope's context cache.
    day_ctx: Option<DayContext>,
}

/// A configuration and what running it measured.
struct Pick {
    spec: ConsolidationSpec,
    result: ClusterRunResult,
    feasible: bool,
}

/// One epoch's evaluation scene: the shared scenario context, the server
/// scheme, and the switches already down when the epoch opens.
struct Epoch {
    e: usize,
    start: f64,
    end: f64,
    ctx: ScenarioContext,
    scheme: ServerScheme,
    mask: Vec<NodeId>,
}

/// The day's fixed inputs, shared by the four epoch stages.
struct DayLoop<'a> {
    cfg: &'a ClusterConfig,
    strategy: &'a DayStrategy,
    day: &'a DayConfig,
    schedule: &'a FailureSchedule,
    obs_on: bool,
    /// The day span every epoch span attaches to.
    span: u64,
}

impl DayLoop<'_> {
    /// One epoch through the four stages. A pure function of `input` and
    /// `carry`; leaves in `carry` what the next epoch needs.
    fn epoch(&self, input: &EpochInput, carry: &mut Carry) -> DayRecord {
        let (run, deferral) = self.demand(input, carry.queue.as_mut());
        let mut epoch_span = eprons_obs::Span::enter_under(self.span, "epoch");
        let e = input.e;
        if self.obs_on {
            eprons_obs::record(eprons_obs::Event::EpochStart {
                epoch: e as u64,
                minute: input.minute,
                search_load: input.load,
                background_util: run.background_util,
            });
        }
        let start = (e * self.day.epoch_minutes) as f64;
        // One scenario context per epoch; the optimizer's candidate
        // ladder shares it, so each candidate pays only consolidation +
        // latency sampling + DVFS simulation. Incremental day-scoped
        // runs go further and fetch the context from the day cache,
        // reviving earlier epochs' contexts (plan cache included).
        let ep = Epoch {
            e,
            start,
            end: start + self.day.epoch_minutes as f64,
            ctx: match &carry.day_ctx {
                Some(dc) => dc.context_for(&ScenarioSpec::of_run(&run)),
                None => ScenarioContext::for_template(self.cfg, &run),
            },
            scheme: run.scheme,
            // Switches down when the epoch opens are masked out of every
            // candidate this epoch considers.
            mask: self
                .schedule
                .failed_at(start)
                .into_iter()
                .map(NodeId)
                .collect(),
        };
        let (pick, degradation) = match self.choose(&ep.ctx, ep.scheme, &ep.mask, carry.hint) {
            Some(p) => (p, None),
            None => {
                // The mask leaves no routable candidate (e.g. an edge
                // failure partitioning hosts): run the unmasked choice
                // over broken hardware, SLA forced false.
                let p = self
                    .choose(&ep.ctx, ep.scheme, &[], None)
                    .expect("the unmasked ladder evaluates");
                let p = Pick {
                    feasible: false,
                    ..p
                };
                (p, Some(DegradationStage::Unprotected))
            }
        };
        let Pick {
            spec,
            result,
            feasible,
        } = pick;
        let mut rec = DayRecord {
            minute: input.minute,
            search_load: input.load,
            background_util: run.background_util,
            breakdown: result.breakdown,
            active_switches: result.active_switches,
            active_switch_ids: result.active_switch_ids,
            e2e_p95_s: result.e2e_latency.p95_s,
            feasible,
            failed_switches: ep.mask.iter().map(|n| n.0).collect(),
            boot_energy_j: 0.0,
            degradation,
            deferred_mbps_min: deferral.enqueued_mbps_min,
            drained_mbps_min: deferral.drained_mbps_min,
            held_by_hysteresis: false,
        };
        let spec = self.survive(&ep, spec, &mut rec);
        self.record(e, spec, &rec, &mut epoch_span);
        carry.hint = Some(spec);
        rec
    }

    /// **demand**: the operating point the epoch admits. The deferral
    /// queue (online days) shaves or drains the predicted background
    /// demand; a day scope then snaps the demand onto the warm-start grid
    /// and holds the master seed constant, so epochs at the same operating
    /// point present bit-identical specs. The utilization floor rises to
    /// one grid step (a zero-query epoch has no tail to measure);
    /// quantization applies on the rebuild baseline exactly as on the
    /// incremental path, which is what makes the two bit-comparable.
    fn demand(
        &self,
        input: &EpochInput,
        queue: Option<&mut DeferralQueue>,
    ) -> (ClusterRun, DeferralOutcome) {
        let deferral = match queue {
            Some(q) => q.step(input.e, input.predicted_bg, self.obs_on),
            None => DeferralOutcome {
                bg: input.predicted_bg,
                enqueued_mbps_min: 0.0,
                drained_mbps_min: 0.0,
            },
        };
        let day = self.day;
        let util = (day.peak_utilization * input.load).max(0.02);
        let (server_utilization, background_util, seed) = if day.day_scope.is_some() {
            (
                quantize_demand(util).max(0.05),
                quantize_demand(deferral.bg),
                day.seed,
            )
        } else {
            (
                util,
                deferral.bg,
                day.seed ^ (input.e as u64).wrapping_mul(0x9E37_79B9),
            )
        };
        let template = ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn,
            server_utilization,
            background_util,
            duration_s: day.sim_seconds,
            warmup_s: 0.0,
            seed,
        };
        let run = match self.strategy {
            DayStrategy::NoPowerManagement => ClusterRun {
                scheme: ServerScheme::NoPowerManagement,
                ..template
            },
            DayStrategy::TimeTrader => ClusterRun {
                scheme: ServerScheme::TimeTrader,
                // Let the 5 s feedback loop settle before scoring.
                warmup_s: 60.0,
                ..template
            },
            DayStrategy::Eprons { .. } => template,
        };
        (run, deferral)
    }

    /// **choose**: the cheapest configuration that routes around `mask` —
    /// the pruned candidate ladder for EPRONS (`hint` jumps its queue),
    /// all-on for the other strategies. `None` when nothing routes; the
    /// epoch then falls back to the unmasked choice, and rung 2 of the
    /// degradation ladder to all-on.
    fn choose(
        &self,
        ctx: &ScenarioContext,
        scheme: ServerScheme,
        mask: &[NodeId],
        hint: Option<ConsolidationSpec>,
    ) -> Option<Pick> {
        match self.strategy {
            DayStrategy::Eprons { candidates } => {
                optimize_in_context_pruned(ctx, scheme, candidates, mask, hint)
                    .0
                    .map(|c| Pick {
                        spec: c.spec,
                        result: c.result,
                        feasible: c.feasible,
                    })
            }
            _ => self.all_on(ctx, scheme, mask),
        }
    }

    /// The all-on configuration minus `mask`, if it routes.
    fn all_on(&self, ctx: &ScenarioContext, scheme: ServerScheme, mask: &[NodeId]) -> Option<Pick> {
        let result = ctx
            .evaluate_masked(scheme, ConsolidationSpec::AllOn, mask)
            .ok()?;
        Some(Pick {
            spec: ConsolidationSpec::AllOn,
            feasible: result.is_feasible(self.cfg),
            result,
        })
    }

    /// **survive**: walks the degradation ladder for every failure event
    /// inside the epoch and journals the power segments between events,
    /// folding their time-weighted power, boot energy and worst rung into
    /// `rec`. Returns the configuration live when the epoch closes.
    fn survive(
        &self,
        ep: &Epoch,
        mut spec: ConsolidationSpec,
        rec: &mut DayRecord,
    ) -> ConsolidationSpec {
        let events = self.schedule.events_in(ep.start, ep.end);
        if events.is_empty() {
            // A clean epoch is one power segment covering the whole
            // window; together the segments must integrate to the day
            // energy (`obsctl audit`).
            self.power_segment(ep.e, ep.start, ep.end, rec.breakdown);
            return spec;
        }
        let cfg = self.cfg;
        let ctx = &ep.ctx;
        let d = &*ctx.data;
        let policy = DegradationPolicy {
            attempt_repair: cfg.failure.attempt_repair,
            attempt_reconsolidate: cfg.failure.attempt_reconsolidate,
            transition: cfg.failure.transition.clone(),
        };
        let mut mask = ep.mask.clone();
        // The live assignment repairs mutate in place (rung 1).
        let mut assignment: Option<Assignment> = ctx
            .plan_masked(spec, &mask)
            .ok()
            .map(|p| p.assignment.clone());
        let active_ids = |a: &Assignment| -> Vec<usize> {
            d.ft.topology()
                .switches()
                .into_iter()
                .filter(|&n| a.state().node_on(n))
                .map(|n| n.0)
                .collect()
        };
        // Time-weighted power over the segments between events; a
        // crashed switch's hung draw persists to the epoch boundary.
        let mut acc_server = 0.0;
        let mut acc_net = 0.0;
        let mut cur = rec.breakdown;
        let mut dead_draw_w = 0.0;
        let mut last_m = ep.start;
        for ev in &events {
            acc_server += cur.server_w * (ev.minute - last_m);
            acc_net += cur.network_w * (ev.minute - last_m);
            self.power_segment(ep.e, last_m, ev.minute, cur);
            last_m = ev.minute;
            if ev.kind == FailureEventKind::Recover {
                // The switch boots (72.52 s, §IV-B) and rejoins the
                // candidate pool at the next epoch boundary; routing
                // inside this epoch keeps its mask.
                rec.boot_energy_j += policy.recovery_boot_energy_j();
                self.repair_outcome(ev, "recovered", 0, 1, policy.recovery_boot_energy_j());
                continue;
            }
            if mask.contains(&NodeId(ev.switch)) {
                // Already down at the epoch start (an event exactly on the
                // boundary shows up in both the mask and this window).
                continue;
            }
            mask.push(NodeId(ev.switch));
            mask.sort_unstable();
            rec.failed_switches.push(ev.switch);
            // Rung 1: re-route the victims in place.
            if let Some(a) = assignment.as_mut().filter(|_| policy.attempt_repair) {
                match policy.try_repair(a, &d.ft, &d.flows, NodeId(ev.switch), &cfg.net_power) {
                    Ok(rep) => {
                        rec.boot_energy_j += rep.boot_energy_j;
                        dead_draw_w += rep.dead_draw_w;
                        cur.network_w = a.network_power_w(&d.ft, &cfg.net_power) + dead_draw_w;
                        rec.active_switch_ids = active_ids(a);
                        worsen(&mut rec.degradation, DegradationStage::Repaired);
                        self.repair_outcome(
                            ev,
                            "repaired",
                            rep.rerouted.len(),
                            rep.woken.len(),
                            rep.boot_energy_j,
                        );
                        continue;
                    }
                    Err(_) => self.repair_outcome(ev, "repair-failed", 0, 0, 0.0),
                }
            }
            // Rung 2: re-consolidate around the failure; rung 3: the
            // all-on spec minus failures.
            let rerun = policy
                .attempt_reconsolidate
                .then(|| self.choose(ctx, ep.scheme, &mask, None))
                .flatten()
                .map(|p| (p, DegradationStage::Reconsolidated))
                .or_else(|| {
                    self.all_on(ctx, ep.scheme, &mask)
                        .map(|p| (p, DegradationStage::AllOnFallback))
                });
            let (stage, woken, rung_boot_j) = match rerun {
                Some((p, stage)) => {
                    let woken = Churn::between(&rec.active_switch_ids, &p.result.active_switch_ids)
                        .turned_on
                        .len();
                    let rung_boot_j = woken as f64
                        * policy.transition.boot_power_w
                        * policy.transition.power_on_s;
                    rec.boot_energy_j += rung_boot_j;
                    // The hung switch keeps drawing until the epoch-boundary
                    // power cycle.
                    dead_draw_w += cfg.net_power.switch_w;
                    cur.server_w = p.result.breakdown.server_w;
                    cur.network_w = p.result.breakdown.network_w + dead_draw_w;
                    rec.active_switch_ids = p.result.active_switch_ids;
                    rec.e2e_p95_s = rec.e2e_p95_s.max(p.result.e2e_latency.p95_s);
                    rec.feasible = rec.feasible && p.feasible;
                    assignment = ctx
                        .plan_masked(p.spec, &mask)
                        .ok()
                        .map(|plan| plan.assignment.clone());
                    spec = p.spec;
                    (stage, woken, rung_boot_j)
                }
                None => {
                    // Rung 4: nothing routes around the mask.
                    rec.feasible = false;
                    (DegradationStage::Unprotected, 0, 0.0)
                }
            };
            worsen(&mut rec.degradation, stage);
            // Journal the rung's boot charge so the audit can reconcile
            // every joule of `boot_energy_j` against RepairOutcome events,
            // whichever rung charged it.
            self.repair_outcome(ev, stage.label(), 0, woken, rung_boot_j);
            if self.obs_on {
                let why = if stage == DegradationStage::Unprotected {
                    "no fallback routes"
                } else {
                    "repair failed"
                };
                eprons_obs::record(eprons_obs::Event::DegradedEpoch {
                    epoch: ep.e as u64,
                    reason: format!(
                        "switch {} failed at minute {:.0}; {why}",
                        ev.switch, ev.minute
                    ),
                    fallback: stage.label().to_string(),
                });
            }
        }
        acc_server += cur.server_w * (ep.end - last_m);
        acc_net += cur.network_w * (ep.end - last_m);
        self.power_segment(ep.e, last_m, ep.end, cur);
        let span = ep.end - ep.start;
        rec.breakdown = PowerBreakdown {
            server_w: acc_server / span,
            network_w: acc_net / span,
        };
        rec.active_switches = rec.active_switch_ids.len();
        spec
    }

    /// Journals one constant-power segment of an epoch (empty ones skip).
    fn power_segment(&self, e: usize, from_min: f64, to_min: f64, p: PowerBreakdown) {
        if self.obs_on && to_min > from_min {
            eprons_obs::record(eprons_obs::Event::PowerSegment {
                epoch: e as u64,
                from_min,
                to_min,
                server_w: p.server_w,
                network_w: p.network_w,
            });
        }
    }

    /// Journals what one degradation-ladder rung did about a failure event.
    fn repair_outcome(
        &self,
        ev: &FailureEvent,
        outcome: &str,
        rerouted: usize,
        woken: usize,
        boot_energy_j: f64,
    ) {
        if self.obs_on {
            eprons_obs::record(eprons_obs::Event::RepairOutcome {
                switch: ev.switch as u64,
                minute: ev.minute,
                outcome: outcome.to_string(),
                rerouted: rerouted as u64,
                woken: woken as u64,
                boot_energy_j,
            });
        }
    }

    /// **record**: notes the epoch's outcome on its span and journals the
    /// epoch snapshot.
    fn record(
        &self,
        e: usize,
        spec: ConsolidationSpec,
        rec: &DayRecord,
        epoch_span: &mut eprons_obs::Span,
    ) {
        let choice = spec.label();
        epoch_span.note(format!(
            "epoch={e} choice={choice} feasible={} degradation={}",
            rec.feasible,
            rec.degradation.map_or("-", |d| d.label()),
        ));
        if self.obs_on {
            eprons_obs::record(eprons_obs::Event::EpochSnapshot(eprons_obs::Snapshot {
                epoch: e as u64,
                minute: rec.minute,
                strategy: self.strategy.name().to_string(),
                choice,
                server_w: rec.breakdown.server_w,
                network_w: rec.breakdown.network_w,
                active_switches: rec.active_switches as u64,
                e2e_p95_us: rec.e2e_p95_s * 1.0e6,
                feasible: rec.feasible,
                boot_energy_j: rec.boot_energy_j,
            }));
        }
    }
}

/// Raises `deg` to `stage` if that rung is worse than any seen so far.
fn worsen(deg: &mut Option<DegradationStage>, stage: DegradationStage) {
    *deg = Some(deg.map_or(stage, |have| have.max(stage)));
}

/// Reconfiguration churn between consecutive epochs of a day timeline.
pub fn day_churn(records: &[DayRecord]) -> Vec<Churn> {
    records
        .windows(2)
        .map(|w| Churn::between(&w[0].active_switch_ids, &w[1].active_switch_ids))
        .collect()
}

/// Total number of switch power toggles (on + off transitions) across a
/// day timeline — the scalar the online controller is graded on.
pub fn day_churn_count(records: &[DayRecord]) -> usize {
    day_churn(records)
        .iter()
        .map(|c| c.turned_on.len() + c.turned_off.len())
        .sum()
}

/// Total transition energy (joules) a day timeline pays under the given
/// switch transition model (§IV-B's deferred cost: 72.52 s power-on per
/// HPE switch). The paper ignores this with software switches; this
/// accounting quantifies what hardware would add.
pub fn day_transition_energy_j(records: &[DayRecord], model: &TransitionModel) -> f64 {
    day_churn(records)
        .iter()
        .map(|c| model.transition_energy_j(c))
        .sum()
}

/// Writes a day timeline as CSV (for external plotting): one row per
/// epoch with minute, loads, power split, switches, tail, feasibility,
/// plus the failure columns (`;`-joined failed switch ids or `-`, the
/// degradation-ladder rung or `-`, and in-epoch boot energy in joules)
/// and the online-controller columns (deferred/drained megabit-minutes,
/// and `held`, always false since every pick commits).
pub fn save_day_csv(records: &[DayRecord], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "minute,search_load,background_util,server_w,network_w,total_w,active_switches,e2e_p95_ms,feasible,failed_switches,degradation,boot_energy_j,deferred_mbps_min,drained_mbps_min,held"
    )?;
    for r in records {
        let failed = if r.failed_switches.is_empty() {
            "-".to_string()
        } else {
            r.failed_switches
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(";")
        };
        writeln!(
            w,
            "{:.1},{:.4},{:.4},{:.2},{:.2},{:.2},{},{:.3},{},{},{},{:.1},{:.3},{:.3},{}",
            r.minute,
            r.search_load,
            r.background_util,
            r.breakdown.server_w,
            r.breakdown.network_w,
            r.breakdown.total_w(),
            r.active_switches,
            r.e2e_p95_s * 1.0e3,
            r.feasible,
            failed,
            r.degradation.map_or("-", |d| d.label()),
            r.boot_energy_j,
            r.deferred_mbps_min,
            r.drained_mbps_min,
            r.held_by_hysteresis,
        )?;
    }
    w.flush()
}

/// Total energy (joules) a day timeline consumes: each epoch's measured
/// total power held for the epoch length, plus any boot energy the epoch
/// charged for repairs and recoveries. The Fig. 15 currency for
/// comparing strategies over a whole day.
pub fn day_total_energy_j(records: &[DayRecord], day: &DayConfig) -> f64 {
    let epoch_s = day.epoch_minutes as f64 * 60.0;
    records
        .iter()
        .map(|r| r.breakdown.total_w() * epoch_s + r.boot_energy_j)
        .sum()
}

/// Average power breakdown over a day timeline.
pub fn day_average(records: &[DayRecord]) -> PowerBreakdown {
    let n = records.len().max(1) as f64;
    PowerBreakdown {
        server_w: records.iter().map(|r| r.breakdown.server_w).sum::<f64>() / n,
        network_w: records.iter().map(|r| r.breakdown.network_w).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::aggregation_candidates;

    fn quick_day() -> DayConfig {
        DayConfig {
            epoch_minutes: 240, // 6 epochs only, for test speed
            sim_seconds: 2.0,
            peak_utilization: 0.5,
            seed: 99,
            warm_start: true,
            ..DayConfig::default()
        }
    }

    #[test]
    fn day_produces_one_record_per_epoch() {
        let cfg = ClusterConfig::default();
        let recs = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &quick_day());
        assert_eq!(recs.len(), 6);
        assert!(recs.windows(2).all(|w| w[0].minute < w[1].minute));
        // Full network all day.
        assert!(recs.iter().all(|r| r.active_switches == 20));
    }

    #[test]
    fn eprons_day_saves_power_vs_no_pm() {
        let cfg = ClusterConfig::default();
        let day = quick_day();
        let nopm = day_average(&simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day));
        let eprons = day_average(&simulate_day(
            &cfg,
            &DayStrategy::Eprons {
                candidates: aggregation_candidates(),
            },
            &day,
        ));
        let saving = eprons.saving_vs(&nopm);
        assert!(
            saving.total > 0.05,
            "EPRONS should save total power, got {:.1}%",
            saving.total * 100.0
        );
        assert!(saving.network > 0.0, "EPRONS must save DCN power");
    }

    #[test]
    fn timetrader_day_saves_servers_but_not_network() {
        let cfg = ClusterConfig::default();
        // TimeTrader only moves once per 5 s control period, so the epoch
        // sims must span several periods for it to act at all.
        let day = DayConfig {
            epoch_minutes: 480, // 3 epochs
            sim_seconds: 40.0,
            ..quick_day()
        };
        let nopm = day_average(&simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day));
        let tt = day_average(&simulate_day(&cfg, &DayStrategy::TimeTrader, &day));
        let saving = tt.saving_vs(&nopm);
        assert!(saving.server > 0.0, "TimeTrader saves server power");
        assert!(
            saving.network.abs() < 1e-9,
            "TimeTrader saves no DCN power (got {:.2}%)",
            saving.network * 100.0
        );
    }

    #[test]
    fn churn_accounting_over_a_day() {
        let cfg = ClusterConfig::default();
        let day = quick_day();
        // The all-on strategies never reconfigure.
        let nopm = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day);
        let churn = day_churn(&nopm);
        assert!(churn.iter().all(|c| c.is_empty()), "all-on must not flap");
        assert_eq!(
            day_transition_energy_j(&nopm, &TransitionModel::default()),
            0.0
        );
        // EPRONS reconfigures as load swings; transition energy is finite
        // and small when amortized (the §IV-B discussion).
        let eprons = simulate_day(
            &cfg,
            &DayStrategy::Eprons {
                candidates: aggregation_candidates(),
            },
            &day,
        );
        let e = day_transition_energy_j(&eprons, &TransitionModel::default());
        assert!(e >= 0.0);
        // Even a switch-over every epoch stays below a few watts amortized
        // over the day (6 epochs × 4 h here).
        let day_seconds = 24.0 * 3600.0;
        assert!(e / day_seconds < 20.0, "amortized churn power too high");
    }

    #[test]
    fn day_csv_round_trips_through_disk() {
        let cfg = ClusterConfig::default();
        let recs = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &quick_day());
        let mut path = std::env::temp_dir();
        path.push(format!("eprons-day-{}.csv", std::process::id()));
        save_day_csv(&recs, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), recs.len() + 1, "header + one row per epoch");
        assert!(lines[0].starts_with("minute,"));
        assert!(lines[1].contains(','));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deferral_queue_conserves_every_megabit_minute() {
        let knobs = DeferralConfig::default();
        let mut q = DeferralQueue::new(knobs, 1000.0, 10.0);
        // A peaky then quiet profile: shave during the peak, drain after.
        let profile = [0.6, 0.7, 0.65, 0.1, 0.05, 0.1, 0.6, 0.05, 0.05, 0.05];
        let mut enq = 0.0;
        let mut out = 0.0;
        for (e, &bg) in profile.iter().enumerate() {
            let step = q.step(e, bg, false);
            enq += step.enqueued_mbps_min;
            out += step.drained_mbps_min;
            // Admitted demand conserves the epoch's arrivals.
            let expected = bg - step.enqueued_mbps_min / q.util_to_mbps_min
                + step.drained_mbps_min / q.util_to_mbps_min;
            assert!((step.bg - expected).abs() < 1e-12);
        }
        assert!(enq > 0.0, "peak epochs must defer something");
        assert!(out > 0.0, "trough epochs must drain something");
        // Whatever is still queued is dropped at flush; the books close.
        let leftover = q.depth_mbps_min;
        q.flush(profile.len(), false);
        assert!(q.slabs.is_empty());
        assert!(
            (enq - (out + leftover)).abs() < 1e-9,
            "enqueued {enq} != drained {out} + dropped {leftover}"
        );
    }

    #[test]
    fn deferral_queue_drops_slabs_past_their_slack() {
        let knobs = DeferralConfig {
            slack_epochs: 2,
            ..DeferralConfig::default()
        };
        let mut q = DeferralQueue::new(knobs, 1000.0, 10.0);
        let step = q.step(0, 0.8, false);
        assert!(step.enqueued_mbps_min > 0.0);
        // Epochs 1 and 2 sit in the neutral band (above the drain
        // headroom, below the defer threshold): nothing moves. Epoch 3 is
        // past the deadline 0 + 2, so the slab drops instead of draining.
        q.step(1, 0.32, false);
        q.step(2, 0.32, false);
        let late = q.step(3, 0.0, false);
        assert_eq!(late.drained_mbps_min, 0.0, "expired slab must not drain");
        assert_eq!(q.depth_mbps_min, 0.0);
    }

    #[test]
    fn deferral_queue_respects_cap_and_fraction() {
        let knobs = DeferralConfig {
            queue_cap_mbps_min: 100.0,
            max_defer_fraction: 0.25,
            ..DeferralConfig::default()
        };
        let mut q = DeferralQueue::new(knobs, 1000.0, 10.0);
        // Fraction bound: 0.8 × 0.25 = 0.2 util → 2000 mbps-min wanted,
        // but the cap clamps to 100.
        let step = q.step(0, 0.8, false);
        assert!(step.enqueued_mbps_min <= 100.0 + 1e-9);
        let step2 = q.step(1, 0.8, false);
        assert_eq!(step2.enqueued_mbps_min, 0.0, "queue already at cap");
    }

    #[test]
    fn online_day_is_deterministic_and_populates_new_fields() {
        let cfg = ClusterConfig::default();
        let day = DayConfig {
            online: Some(OnlineConfig::enabled()),
            ..quick_day()
        };
        let strategy = DayStrategy::Eprons {
            candidates: aggregation_candidates(),
        };
        let a = simulate_day(&cfg, &strategy, &day);
        let b = simulate_day(&cfg, &strategy, &day);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.breakdown.total_w(), y.breakdown.total_w());
            assert_eq!(x.active_switch_ids, y.active_switch_ids);
            assert_eq!(x.deferred_mbps_min, y.deferred_mbps_min);
            assert_eq!(x.drained_mbps_min, y.drained_mbps_min);
        }
        // Batch mode leaves the online fields inert.
        let batch = simulate_day(&cfg, &strategy, &quick_day());
        assert!(batch.iter().all(|r| r.deferred_mbps_min == 0.0));
    }

    #[test]
    fn online_day_without_deferral_matches_batch_bit_for_bit() {
        let cfg = ClusterConfig::default();
        let strategy = DayStrategy::Eprons {
            candidates: aggregation_candidates(),
        };
        let batch = simulate_day(&cfg, &strategy, &quick_day());
        let online = simulate_day(
            &cfg,
            &strategy,
            &DayConfig {
                online: Some(OnlineConfig { deferral: None }),
                ..quick_day()
            },
        );
        assert_eq!(online.len(), batch.len());
        for (o, b) in online.iter().zip(&batch) {
            assert_eq!(
                o.breakdown.total_w().to_bits(),
                b.breakdown.total_w().to_bits()
            );
            assert_eq!(o.active_switch_ids, b.active_switch_ids);
            assert_eq!(o.feasible, b.feasible);
            assert_eq!(o.e2e_p95_s.to_bits(), b.e2e_p95_s.to_bits());
        }
    }

    #[test]
    fn diurnal_load_shows_in_power_timeline() {
        let cfg = ClusterConfig::default();
        let recs = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &quick_day());
        // Load varies across epochs, so (CPU) power must vary too.
        let powers: Vec<f64> = recs.iter().map(|r| r.breakdown.server_w).collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 5.0,
            "diurnal swing should move power: {powers:?}"
        );
    }
}
