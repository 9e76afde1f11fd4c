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
//! Setting [`DayConfig::online`] turns the loop into an **online
//! streaming controller**: epochs run strictly in sequence carrying
//! state across boundaries — per-switch cooldowns and a payback-priced
//! hysteresis filter on reconfigurations ([`HysteresisConfig`]), plus a
//! bounded deferral queue that shaves latency-tolerant background demand
//! off peaks and drains it into troughs ([`DeferralConfig`]). Demand is
//! still observed per minute through [`DemandPredictor`] (§II's 90th
//! percentile); predictions are exogenous to the control decisions, so
//! the streamed timeline stays a deterministic pure function of its
//! inputs and is bit-identical across thread budgets.

use std::collections::{BTreeMap, VecDeque};

use eprons_net::failure::{DegradationPolicy, DegradationStage, FailureEventKind, FailureSchedule};
use eprons_net::flow::FlowId;
use eprons_net::transition::{worth_switching, Churn, TransitionModel};
use eprons_net::{Assignment, DemandPredictor, NetworkState};
use eprons_sim::SimRng;
use eprons_topo::{FatTree, NodeId};
use eprons_workload::adversarial::TraceScenario;
use eprons_workload::diurnal::{DiurnalProfile, MINUTES_PER_DAY};

use crate::accounting::PowerBreakdown;
use crate::cluster::{ClusterRun, ClusterRunResult, ConsolidationSpec, ServerScheme};
use crate::config::{ClusterConfig, DayScopeConfig, DeferralConfig, HysteresisConfig, OnlineConfig};
use crate::optimizer::{optimize_in_context, optimize_in_context_pruned};
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
    /// True when the hysteresis filter held the previous epoch's
    /// configuration against the optimizer's preferred pick.
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
    /// Carry each epoch's winning configuration into the next epoch's
    /// ladder search as an ordering hint (EPRONS strategy only). Epochs
    /// then run sequentially instead of fanning out, trading epoch-level
    /// parallelism for warm-started searches; the timeline itself is
    /// bit-identical either way (the hint never changes a choice, only
    /// the evaluation order). The hint is dropped whenever the failure
    /// mask or the demand fingerprint moved since the previous epoch.
    pub warm_start: bool,
    /// Search-load trace for the day. Defaults to the paper's sinusoidal
    /// diurnal profile; swap in a [`TraceScenario::FlashCrowd`] or
    /// [`TraceScenario::Step`] to stress the controller adversarially.
    pub search_trace: TraceScenario,
    /// Background-traffic trace (same default/options as `search_trace`).
    pub background_trace: TraceScenario,
    /// Online streaming-controller extensions (hysteresis + deferral).
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

/// Cross-epoch hysteresis state: the configuration that was live when
/// the previous epoch closed, plus per-switch cooldown counters.
struct HysteresisState {
    knobs: HysteresisConfig,
    model: TransitionModel,
    /// Epoch length in seconds (the payback horizon's time unit).
    epoch_s: f64,
    /// Spec live at the end of the previous epoch.
    prev_spec: Option<ConsolidationSpec>,
    /// Active switch ids at the end of the previous epoch.
    prev_ids: Option<Vec<usize>>,
    /// Switch id → epochs of quarantine left after its last toggle.
    cooldown: BTreeMap<usize, usize>,
}

impl HysteresisState {
    fn new(knobs: HysteresisConfig, model: TransitionModel, epoch_s: f64) -> Self {
        HysteresisState {
            knobs,
            model,
            epoch_s,
            prev_spec: None,
            prev_ids: None,
            cooldown: BTreeMap::new(),
        }
    }

    /// True if any switch the churn would toggle is still quarantined.
    fn any_cooling(&self, churn: &Churn) -> bool {
        churn
            .turned_on
            .iter()
            .chain(churn.turned_off.iter())
            .any(|s| self.cooldown.get(s).is_some_and(|&c| c > 0))
    }

    /// Closes an epoch: ages every cooldown by one epoch, then quarantines
    /// the switches this epoch actually toggled (whether the toggle came
    /// from the optimizer or from the mid-epoch failure ladder).
    fn finish_epoch(&mut self, spec: ConsolidationSpec, live_ids: &[usize]) {
        self.cooldown.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
        if let Some(prev_ids) = &self.prev_ids {
            let churn = Churn::between(prev_ids, live_ids);
            for &s in churn.turned_on.iter().chain(churn.turned_off.iter()) {
                if self.knobs.cooldown_epochs > 0 {
                    self.cooldown.insert(s, self.knobs.cooldown_epochs);
                }
            }
        }
        self.prev_ids = Some(live_ids.to_vec());
        self.prev_spec = Some(spec);
    }
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
/// Epochs stay independent given the schedule (pure data), so the day
/// still evaluates in parallel and is a pure function of its arguments.
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
    // because the cold path fans epochs out across worker threads.
    let mut day_span = eprons_obs::Span::enter("day");
    day_span.note(format!("strategy={} epochs={epochs}", strategy.name()));
    let day_span_id = day_span.id();
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

    // The controller predicts each epoch's background demand as the 90th
    // percentile of the previous epoch's per-minute observations (§II).
    let mut predictor = DemandPredictor::paper_default(1);
    let mut predicted_bg: Vec<f64> = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let start = e * day.epoch_minutes;
        // Act on the last epoch's prediction (first epoch: observe only).
        let predicted = predictor.predict(FlowId(0)).unwrap_or(background[start]);
        predicted_bg.push(predicted.clamp(0.01, 0.95));
        for &obs in &background[start..start + day.epoch_minutes] {
            predictor.observe(FlowId(0), obs);
        }
        predictor.roll_epoch();
    }

    // Epochs are independent given their inputs: evaluate in parallel.
    let inputs: Vec<(usize, f64, f64)> = (0..epochs)
        .map(|e| {
            let mid = (e * day.epoch_minutes) as f64 + day.epoch_minutes as f64 / 2.0;
            let load = search[(mid as usize).min(MINUTES_PER_DAY - 1)];
            (e, mid, load)
        })
        .collect();

    // One epoch's full evaluation, optionally warm-started with the
    // previous epoch's winning configuration (an ordering hint for the
    // pruned ladder search — never a result change). Returns the record
    // plus the configuration that was actually live when the epoch ended,
    // which is what the next epoch's search should start from.
    let eval_epoch = |e: usize,
                      minute: f64,
                      load: f64,
                      bg: f64,
                      warm_hint: Option<ConsolidationSpec>,
                      hyst: Option<&mut HysteresisState>,
                      day_ctx: Option<&DayContext>|
     -> (DayRecord, ConsolidationSpec) {
        let mut epoch_span = eprons_obs::Span::enter_under(day_span_id, "epoch");
        // Day scope: a constant master seed and grid-quantized demand, so
        // epochs at the same operating point present bit-identical specs.
        // The utilization floor rises to one grid step (a zero-query
        // epoch has no tail to measure); quantization applies on the
        // rebuild baseline exactly as on the incremental path, which is
        // what makes the two bit-comparable.
        let day_scoped = day.day_scope.is_some();
        let (util, bg) = if day_scoped {
            (
                quantize_demand((day.peak_utilization * load).max(0.02)).max(0.05),
                quantize_demand(bg),
            )
        } else {
            ((day.peak_utilization * load).max(0.02), bg)
        };
        if obs_on {
            eprons_obs::record(eprons_obs::Event::EpochStart {
                epoch: e as u64,
                minute,
                search_load: load,
                background_util: bg,
            });
        }
        let template = ClusterRun {
            scheme: ServerScheme::EpronsServer,
            consolidation: ConsolidationSpec::AllOn,
            server_utilization: util,
            background_util: bg,
            duration_s: day.sim_seconds,
            warmup_s: 0.0,
            seed: if day_scoped {
                day.seed
            } else {
                day.seed ^ (e as u64).wrapping_mul(0x9E37_79B9)
            },
        };
        let run = match strategy {
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
        let scheme = run.scheme;
        let start = (e * day.epoch_minutes) as f64;
        let end = start + day.epoch_minutes as f64;
        // Switches down when the epoch opens are masked out of every
        // candidate this epoch considers.
        let mut mask: Vec<NodeId> = schedule.failed_at(start).into_iter().map(NodeId).collect();
        let mut failed_switches: Vec<usize> = mask.iter().map(|n| n.0).collect();

        // One scenario context per epoch; the optimizer's candidate
        // ladder shares it, so each candidate pays only consolidation +
        // latency sampling + DVFS simulation. Incremental day-scoped
        // runs go further and fetch the context from the day cache,
        // reviving earlier epochs' contexts (plan cache included).
        let ctx = match day_ctx {
            Some(dc) => dc.context_for(&ScenarioSpec::of_run(&run)),
            None => ScenarioContext::for_template(cfg, &run),
        };
        let (mut result, mut base_feasible, mut degradation, mut spec): (
            ClusterRunResult,
            bool,
            Option<DegradationStage>,
            ConsolidationSpec,
        ) = match strategy {
            DayStrategy::Eprons { candidates } => {
                match optimize_in_context_pruned(&ctx, scheme, candidates, &mask, warm_hint).0 {
                    Some(c) => (c.result, c.feasible, None, c.spec),
                    None => {
                        // The mask leaves no routable candidate (e.g. an
                        // edge failure partitioning hosts): run unmasked
                        // over broken hardware, SLA forced false.
                        let c = optimize_in_context(&ctx, scheme, candidates)
                            .0
                            .expect("at least one candidate evaluates");
                        (c.result, false, Some(DegradationStage::Unprotected), c.spec)
                    }
                }
            }
            _ => match ctx.evaluate_masked(scheme, ConsolidationSpec::AllOn, &mask) {
                Ok(r) => {
                    let f = r.is_feasible(cfg);
                    (r, f, None, ConsolidationSpec::AllOn)
                }
                Err(_) => {
                    let r = ctx
                        .evaluate(scheme, ConsolidationSpec::AllOn)
                        .expect("all-on never fails");
                    (
                        r,
                        false,
                        Some(DegradationStage::Unprotected),
                        ConsolidationSpec::AllOn,
                    )
                }
            },
        };
        // --- Online hysteresis: commit the optimizer's reconfiguration
        // only when the priced transition energy pays back within the
        // configured horizon AND no toggled switch is still cooling down.
        // Holding is never allowed to trade an SLA-feasible pick for an
        // infeasible hold.
        let mut held_by_hysteresis = false;
        if let Some(h) = hyst {
            if degradation.is_none() {
                if let Some(prev_spec) = h.prev_spec {
                    if prev_spec != spec {
                        if let Ok(hold) = ctx.evaluate_masked(scheme, prev_spec, &mask) {
                            let hold_feasible = hold.is_feasible(cfg);
                            let churn =
                                Churn::between(&hold.active_switch_ids, &result.active_switch_ids);
                            let saving_w = hold.breakdown.total_w() - result.breakdown.total_w();
                            let transition_j = h.model.transition_energy_j(&churn);
                            let horizon_s = h.knobs.payback_horizon_epochs as f64 * h.epoch_s;
                            let pays_back = worth_switching(
                                &h.model,
                                &churn,
                                saving_w,
                                horizon_s,
                                h.knobs.margin,
                            );
                            // A cooldown hold is anti-flap insurance; it
                            // is only worth buying while holding is
                            // cheap — one epoch of the forgone power
                            // saving must not exceed the transition
                            // energy the hold avoids re-paying.
                            let cooling = h.any_cooling(&churn)
                                && saving_w.max(0.0) * h.epoch_s <= h.knobs.margin * transition_j;
                            let must_switch = base_feasible && !hold_feasible;
                            if !must_switch && hold_feasible && (!pays_back || cooling) {
                                if obs_on {
                                    eprons_obs::registry()
                                        .counter("core.hysteresis.holds")
                                        .inc();
                                    eprons_obs::record(eprons_obs::Event::HysteresisHold {
                                        epoch: e as u64,
                                        desired: spec.label(),
                                        held: prev_spec.label(),
                                        saving_w,
                                        transition_j,
                                        reason: if cooling { "cooldown" } else { "payback" }
                                            .to_string(),
                                    });
                                }
                                result = hold;
                                spec = prev_spec;
                                base_feasible = hold_feasible;
                                held_by_hysteresis = true;
                            }
                        }
                    }
                }
            }
        }
        let mut choice_label = spec.label();
        let mut rec = DayRecord {
            minute,
            search_load: load,
            background_util: bg,
            breakdown: result.breakdown,
            active_switches: result.active_switches,
            active_switch_ids: result.active_switch_ids.clone(),
            e2e_p95_s: result.e2e_latency.p95_s,
            feasible: base_feasible,
            failed_switches: Vec::new(),
            boot_energy_j: 0.0,
            degradation: None,
            deferred_mbps_min: 0.0,
            drained_mbps_min: 0.0,
            held_by_hysteresis,
        };

        // --- Mid-epoch events: walk the degradation ladder. ---
        let events = schedule.events_in(start, end);
        let mut boot_energy_j = 0.0;
        if !events.is_empty() {
            let d = &*ctx.data;
            let policy = DegradationPolicy {
                attempt_repair: cfg.failure.attempt_repair,
                attempt_reconsolidate: cfg.failure.attempt_reconsolidate,
                transition: cfg.failure.transition.clone(),
            };
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
            let mut cur_server = rec.breakdown.server_w;
            let mut cur_net = rec.breakdown.network_w;
            let mut dead_draw_w = 0.0;
            let mut last_m = start;
            let mut cur_ids = rec.active_switch_ids.clone();
            let mut p95 = rec.e2e_p95_s;
            let mut feasible = rec.feasible;
            let worsen = |deg: &mut Option<DegradationStage>, stage: DegradationStage| {
                *deg = Some(deg.map_or(stage, |have| have.max(stage)));
            };
            for ev in &events {
                acc_server += cur_server * (ev.minute - last_m);
                acc_net += cur_net * (ev.minute - last_m);
                if obs_on && ev.minute > last_m {
                    eprons_obs::record(eprons_obs::Event::PowerSegment {
                        epoch: e as u64,
                        from_min: last_m,
                        to_min: ev.minute,
                        server_w: cur_server,
                        network_w: cur_net,
                    });
                }
                last_m = ev.minute;
                match ev.kind {
                    FailureEventKind::Recover => {
                        // The switch boots (72.52 s, §IV-B) and rejoins
                        // the candidate pool at the next epoch boundary;
                        // routing inside this epoch keeps its mask.
                        boot_energy_j += policy.recovery_boot_energy_j();
                        if obs_on {
                            eprons_obs::record(eprons_obs::Event::RepairOutcome {
                                switch: ev.switch as u64,
                                minute: ev.minute,
                                outcome: "recovered".to_string(),
                                rerouted: 0,
                                woken: 1,
                                boot_energy_j: policy.recovery_boot_energy_j(),
                            });
                        }
                    }
                    FailureEventKind::Fail => {
                        if mask.contains(&NodeId(ev.switch)) {
                            // Already down at the epoch start (an event
                            // exactly on the boundary shows up in both
                            // the mask and this window).
                            continue;
                        }
                        mask.push(NodeId(ev.switch));
                        mask.sort_unstable();
                        failed_switches.push(ev.switch);
                        // Rung 1: re-route the victims in place.
                        let mut handled = false;
                        if policy.attempt_repair {
                            if let Some(a) = assignment.as_mut() {
                                match policy.try_repair(
                                    a,
                                    &d.ft,
                                    &d.flows,
                                    NodeId(ev.switch),
                                    &cfg.net_power,
                                ) {
                                    Ok(rep) => {
                                        boot_energy_j += rep.boot_energy_j;
                                        dead_draw_w += rep.dead_draw_w;
                                        cur_net =
                                            a.network_power_w(&d.ft, &cfg.net_power) + dead_draw_w;
                                        cur_ids = active_ids(a);
                                        worsen(&mut degradation, DegradationStage::Repaired);
                                        if obs_on {
                                            eprons_obs::record(eprons_obs::Event::RepairOutcome {
                                                switch: ev.switch as u64,
                                                minute: ev.minute,
                                                outcome: "repaired".to_string(),
                                                rerouted: rep.rerouted.len() as u64,
                                                woken: rep.woken.len() as u64,
                                                boot_energy_j: rep.boot_energy_j,
                                            });
                                        }
                                        handled = true;
                                    }
                                    Err(_) => {
                                        if obs_on {
                                            eprons_obs::record(eprons_obs::Event::RepairOutcome {
                                                switch: ev.switch as u64,
                                                minute: ev.minute,
                                                outcome: "repair-failed".to_string(),
                                                rerouted: 0,
                                                woken: 0,
                                                boot_energy_j: 0.0,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        if !handled {
                            // Rung 2: re-consolidate around the failure;
                            // rung 3: the all-on spec minus failures.
                            let rerun: Option<(
                                ConsolidationSpec,
                                ClusterRunResult,
                                bool,
                                DegradationStage,
                            )> = (if policy.attempt_reconsolidate {
                                match strategy {
                                    DayStrategy::Eprons { candidates } => {
                                        optimize_in_context_pruned(
                                            &ctx, scheme, candidates, &mask, None,
                                        )
                                        .0
                                        .map(|c| {
                                            (
                                                c.spec,
                                                c.result,
                                                c.feasible,
                                                DegradationStage::Reconsolidated,
                                            )
                                        })
                                    }
                                    _ => ctx
                                        .evaluate_masked(scheme, ConsolidationSpec::AllOn, &mask)
                                        .ok()
                                        .map(|r| {
                                            let f = r.is_feasible(cfg);
                                            (
                                                ConsolidationSpec::AllOn,
                                                r,
                                                f,
                                                DegradationStage::Reconsolidated,
                                            )
                                        }),
                                }
                            } else {
                                None
                            })
                            .or_else(|| {
                                ctx.evaluate_masked(scheme, ConsolidationSpec::AllOn, &mask)
                                    .ok()
                                    .map(|r| {
                                        let f = r.is_feasible(cfg);
                                        (
                                            ConsolidationSpec::AllOn,
                                            r,
                                            f,
                                            DegradationStage::AllOnFallback,
                                        )
                                    })
                            });
                            if let Some((nspec, r, f, stage)) = rerun {
                                let woken =
                                    Churn::between(&cur_ids, &r.active_switch_ids).turned_on;
                                let rung_boot_j = woken.len() as f64
                                    * policy.transition.boot_power_w
                                    * policy.transition.power_on_s;
                                boot_energy_j += rung_boot_j;
                                // The hung switch keeps drawing until the
                                // epoch-boundary power cycle.
                                dead_draw_w += cfg.net_power.switch_w;
                                cur_server = r.breakdown.server_w;
                                cur_net = r.breakdown.network_w + dead_draw_w;
                                cur_ids = r.active_switch_ids.clone();
                                p95 = p95.max(r.e2e_latency.p95_s);
                                feasible = feasible && f;
                                assignment = ctx
                                    .plan_masked(nspec, &mask)
                                    .ok()
                                    .map(|p| p.assignment.clone());
                                spec = nspec;
                                choice_label = spec.label();
                                worsen(&mut degradation, stage);
                                if obs_on {
                                    // Journal the rung's boot charge so the
                                    // audit can reconcile every joule of
                                    // `boot_energy_j` against RepairOutcome
                                    // events, whichever rung charged it.
                                    eprons_obs::record(eprons_obs::Event::RepairOutcome {
                                        switch: ev.switch as u64,
                                        minute: ev.minute,
                                        outcome: stage.label().to_string(),
                                        rerouted: 0,
                                        woken: woken.len() as u64,
                                        boot_energy_j: rung_boot_j,
                                    });
                                    eprons_obs::record(eprons_obs::Event::DegradedEpoch {
                                        epoch: e as u64,
                                        reason: format!(
                                            "switch {} failed at minute {:.0}; repair failed",
                                            ev.switch, ev.minute
                                        ),
                                        fallback: stage.label().to_string(),
                                    });
                                }
                            } else {
                                // Rung 4: nothing routes around the mask.
                                feasible = false;
                                worsen(&mut degradation, DegradationStage::Unprotected);
                                if obs_on {
                                    eprons_obs::record(eprons_obs::Event::RepairOutcome {
                                        switch: ev.switch as u64,
                                        minute: ev.minute,
                                        outcome: DegradationStage::Unprotected.label().to_string(),
                                        rerouted: 0,
                                        woken: 0,
                                        boot_energy_j: 0.0,
                                    });
                                    eprons_obs::record(eprons_obs::Event::DegradedEpoch {
                                        epoch: e as u64,
                                        reason: format!(
                                            "switch {} failed at minute {:.0}; no fallback routes",
                                            ev.switch, ev.minute
                                        ),
                                        fallback: DegradationStage::Unprotected.label().to_string(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            acc_server += cur_server * (end - last_m);
            acc_net += cur_net * (end - last_m);
            if obs_on && end > last_m {
                eprons_obs::record(eprons_obs::Event::PowerSegment {
                    epoch: e as u64,
                    from_min: last_m,
                    to_min: end,
                    server_w: cur_server,
                    network_w: cur_net,
                });
            }
            let span = end - start;
            rec.breakdown = PowerBreakdown {
                server_w: acc_server / span,
                network_w: acc_net / span,
            };
            rec.active_switches = cur_ids.len();
            rec.active_switch_ids = cur_ids;
            rec.e2e_p95_s = p95;
            rec.feasible = feasible;
        }
        rec.failed_switches = failed_switches;
        rec.boot_energy_j = boot_energy_j;
        rec.degradation = degradation;
        // Clean epochs carry one power segment covering the whole window
        // (event epochs journaled theirs between events above); together
        // the segments must integrate to the day energy (`obsctl audit`).
        if obs_on && events.is_empty() {
            eprons_obs::record(eprons_obs::Event::PowerSegment {
                epoch: e as u64,
                from_min: start,
                to_min: end,
                server_w: rec.breakdown.server_w,
                network_w: rec.breakdown.network_w,
            });
        }
        epoch_span.note(format!(
            "epoch={e} choice={choice_label} feasible={} degradation={}",
            rec.feasible,
            rec.degradation.map_or("-", |d| d.label()),
        ));
        if obs_on {
            eprons_obs::record(eprons_obs::Event::EpochSnapshot(eprons_obs::Snapshot {
                epoch: e as u64,
                minute: rec.minute,
                strategy: strategy.name().to_string(),
                choice: choice_label,
                server_w: rec.breakdown.server_w,
                network_w: rec.breakdown.network_w,
                active_switches: rec.active_switches as u64,
                e2e_p95_us: rec.e2e_p95_s * 1.0e6,
                feasible: rec.feasible,
                boot_energy_j: rec.boot_energy_j,
            }));
        }
        (rec, spec)
    };

    // The online streaming controller runs its epochs strictly in
    // sequence: per-switch cooldowns, the hysteresis filter, and the
    // deferral queue all carry state across epoch boundaries. The
    // warm-started batch day also runs sequentially (each search starts
    // from the previous epoch's winner); the cold batch day fans epochs
    // out. Candidate- and server-level fan-out inside an epoch fills
    // the thread budget in every mode, and each mode's timeline is a
    // deterministic pure function of its inputs.
    let warm = day.warm_start && matches!(strategy, DayStrategy::Eprons { .. });
    // Day-scoped incremental machinery: the day-level context cache. Only
    // the sequential modes reuse contexts — the cold parallel branch
    // rebuilds per epoch (that rebuild *is* the baseline the replay
    // harness measures the incremental path against).
    let day_cache = day
        .day_scope
        .as_ref()
        .filter(|ds| ds.incremental)
        .map(|ds| DayContext::new(cfg, ds.max_slots));
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
    let records: Vec<DayRecord> = if let Some(online) = day.online.clone() {
        let epoch_s = day.epoch_minutes as f64 * 60.0;
        let mut hyst = online
            .hysteresis
            .map(|knobs| HysteresisState::new(knobs, cfg.failure.transition.clone(), epoch_s));
        let mut queue = online.deferral.map(|knobs| {
            DeferralQueue::new(knobs, cfg.link_capacity_mbps, day.epoch_minutes as f64)
        });
        let mut out = Vec::with_capacity(inputs.len());
        // The previous winner is always a legal ordering hint here: the
        // hint can never change a choice, and online epochs are
        // sequential anyway.
        let mut hint: Option<ConsolidationSpec> = None;
        for &(e, minute, load) in &inputs {
            let step = match queue.as_mut() {
                Some(q) => q.step(e, predicted_bg[e], obs_on),
                None => DeferralOutcome {
                    bg: predicted_bg[e],
                    enqueued_mbps_min: 0.0,
                    drained_mbps_min: 0.0,
                },
            };
            let (mut rec, spec) =
                eval_epoch(e, minute, load, step.bg, hint, hyst.as_mut(), day_cache.as_ref());
            rec.deferred_mbps_min = step.enqueued_mbps_min;
            rec.drained_mbps_min = step.drained_mbps_min;
            if let Some(h) = hyst.as_mut() {
                h.finish_epoch(spec, &rec.active_switch_ids);
            }
            hint = Some(spec);
            out.push(rec);
        }
        if let Some(q) = queue.as_mut() {
            q.flush(inputs.len(), obs_on);
        }
        out
    } else if warm {
        let mut out = Vec::with_capacity(inputs.len());
        // The epoch's world fingerprint: failed-switch set plus the
        // quantized demand point. A hint only survives while it matches.
        type EpochFingerprint = (Vec<usize>, i64, i64);
        let mut prev: Option<(ConsolidationSpec, EpochFingerprint)> = None;
        for &(e, minute, load) in &inputs {
            // The hint survives only while the world it was chosen in
            // does: same failure mask, same (quantized) demand point.
            let start = (e * day.epoch_minutes) as f64;
            let util = (day.peak_utilization * load).max(0.02);
            let q = |x: f64| (x / 0.05).round() as i64;
            let fp = (schedule.failed_at(start), q(util), q(predicted_bg[e]));
            let hint = match &prev {
                Some((spec, pfp)) if *pfp == fp => Some(*spec),
                _ => None,
            };
            if obs_on {
                let reg = eprons_obs::registry();
                if let Some(h) = hint {
                    reg.counter("core.warmstart.hits").inc();
                    eprons_obs::record(eprons_obs::Event::WarmStartApplied {
                        epoch: e as u64,
                        hint: h.label(),
                    });
                } else if e > 0 {
                    reg.counter("core.warmstart.misses").inc();
                }
            }
            let (rec, spec) =
                eval_epoch(e, minute, load, predicted_bg[e], hint, None, day_cache.as_ref());
            prev = Some((spec, fp));
            out.push(rec);
        }
        out
    } else {
        parallel_map(&inputs, |&(e, minute, load)| {
            eval_epoch(e, minute, load, predicted_bg[e], None, None, None).0
        })
    };
    if let Some(dc) = day_cache.as_ref().filter(|_| obs_on) {
        let s = dc.stats();
        eprons_obs::record(eprons_obs::Event::DayCacheReport {
            cache: "core.daycache".to_string(),
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bytes: s.bytes,
        });
        let [eh, em, sh, sm] = memo_counters_0;
        eprons_obs::record(eprons_obs::Event::DayCacheReport {
            cache: "core.evalcache".to_string(),
            hits: counter("core.evalcache.hits") - eh,
            misses: counter("core.evalcache.misses") - em,
            evictions: 0,
            bytes: dc.eval_footprint_bytes(),
        });
        eprons_obs::record(eprons_obs::Event::DayCacheReport {
            cache: "server.serveval".to_string(),
            hits: counter("core.serveval.hits") - sh,
            misses: counter("core.serveval.misses") - sm,
            evictions: 0,
            bytes: dc.server_eval_footprint_bytes(),
        });
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

/// Reconfiguration churn between consecutive epochs of a day timeline.
pub fn day_churn(records: &[DayRecord]) -> Vec<Churn> {
    records
        .windows(2)
        .map(|w| Churn::between(&w[0].active_switch_ids, &w[1].active_switch_ids))
        .collect()
}

/// Total number of switch power toggles (on + off transitions) across a
/// day timeline — the scalar the hysteresis controller is graded on.
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
/// and the online-controller columns (deferred/drained megabit-minutes
/// and whether hysteresis held the previous configuration).
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
    fn hysteresis_cooldown_quarantines_for_exactly_cooldown_epochs() {
        let knobs = HysteresisConfig {
            cooldown_epochs: 2,
            ..HysteresisConfig::default()
        };
        let mut h = HysteresisState::new(knobs, TransitionModel::default(), 600.0);
        let toggled = Churn::between(&[1, 2], &[1, 3]);
        // Epoch 0 ends with switches 2 and 3 toggled.
        h.finish_epoch(ConsolidationSpec::AllOn, &[1, 2]);
        h.finish_epoch(ConsolidationSpec::AllOn, &[1, 3]);
        // The next two epoch decisions see the quarantine...
        assert!(h.any_cooling(&toggled));
        h.finish_epoch(ConsolidationSpec::AllOn, &[1, 3]);
        assert!(h.any_cooling(&toggled));
        // ...and the one after does not.
        h.finish_epoch(ConsolidationSpec::AllOn, &[1, 3]);
        assert!(!h.any_cooling(&toggled));
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
            assert_eq!(x.held_by_hysteresis, y.held_by_hysteresis);
        }
        // Batch mode leaves the online fields inert.
        let batch = simulate_day(&cfg, &strategy, &quick_day());
        assert!(batch
            .iter()
            .all(|r| r.deferred_mbps_min == 0.0 && !r.held_by_hysteresis));
    }

    #[test]
    fn online_churn_never_exceeds_batch_on_the_same_day() {
        let cfg = ClusterConfig::default();
        let strategy = DayStrategy::Eprons {
            candidates: aggregation_candidates(),
        };
        let batch = simulate_day(&cfg, &strategy, &quick_day());
        let online = simulate_day(
            &cfg,
            &strategy,
            &DayConfig {
                online: Some(OnlineConfig {
                    hysteresis: Some(HysteresisConfig::default()),
                    deferral: None,
                }),
                ..quick_day()
            },
        );
        assert!(
            day_churn_count(&online) <= day_churn_count(&batch),
            "hysteresis must not add churn: online {} vs batch {}",
            day_churn_count(&online),
            day_churn_count(&batch)
        );
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
