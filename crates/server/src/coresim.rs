//! Per-core discrete-event simulation driving a DVFS policy.
//!
//! Mirrors the paper's search-engine simulator (§V-A): requests arrive with
//! per-request deadlines, the policy re-selects the frequency at every
//! arrival and departure instant, service progresses as
//! `t_fixed + work / f` with the in-flight request re-scaled when the
//! frequency changes, and a power meter integrates busy/idle core power
//! into energy.

use eprons_sim::{EnergyMeter, SimRng};

use crate::freq::FreqLadder;
use crate::policy::DvfsPolicy;
use crate::power::CpuPowerModel;
use crate::request::ArrivalSpec;
use crate::vp::{InflightHead, VpEngine};

/// Core-simulator configuration.
#[derive(Debug, Clone)]
pub struct CoreSimConfig {
    /// Available frequencies.
    pub ladder: FreqLadder,
    /// Power model (per core).
    pub power: CpuPowerModel,
    /// Decision overhead subtracted from every budget (the paper replaces
    /// `D` with `D − overhead`, §III-C; ≈30 µs measured).
    pub decision_overhead_s: f64,
    /// Measurement window start: requests arriving earlier, and power
    /// consumed earlier, are excluded from the results. Lets slow-settling
    /// feedback policies (TimeTrader's 5 s period) reach steady state
    /// before being scored.
    pub measure_from_s: f64,
}

impl Default for CoreSimConfig {
    fn default() -> Self {
        CoreSimConfig {
            ladder: FreqLadder::paper_default(),
            power: CpuPowerModel::default(),
            decision_overhead_s: 30.0e-6,
            measure_from_s: 0.0,
        }
    }
}

/// A request waiting in the queue.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: f64,
    budget: f64,
    deadline: f64,
    work_gc: f64,
    tag: u64,
}

/// The request in service.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    arrival: f64,
    budget: f64,
    deadline: f64,
    rem_work_gc: f64,
    done_work_gc: f64,
    rem_fixed_s: f64,
    tag: u64,
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct CoreSimResult {
    /// Per-request server latency (completion − arrival), completion order.
    pub latencies: Vec<f64>,
    /// Per-request budget, aligned with `latencies`.
    pub budgets: Vec<f64>,
    /// Per-request caller tag, aligned with `latencies`.
    pub tags: Vec<u64>,
    /// Per-request arrival time, aligned with `latencies`.
    pub arrivals: Vec<f64>,
    /// End of simulation (last completion), seconds.
    pub sim_end_s: f64,
    /// Start of the measurement window (warmup excluded), seconds.
    pub measure_start_s: f64,
    /// Core energy consumed within the measurement window, joules.
    pub energy_j: f64,
    /// Busy (serving) time within the measurement window, seconds.
    pub busy_s: f64,
}

impl CoreSimResult {
    /// Length of the measurement window, seconds.
    fn measured_span_s(&self) -> f64 {
        (self.sim_end_s - self.measure_start_s).max(0.0)
    }

    /// Average core power over the measurement window, watts.
    pub fn avg_core_power_w(&self) -> f64 {
        let span = self.measured_span_s();
        if span > 0.0 {
            self.energy_j / span
        } else {
            0.0
        }
    }

    /// Core utilization (busy fraction of the measurement window).
    pub fn utilization(&self) -> f64 {
        let span = self.measured_span_s();
        if span > 0.0 {
            self.busy_s / span
        } else {
            0.0
        }
    }

    /// Latency percentile (e.g. 0.95), if any request completed.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(eprons_num::quantile::percentile(&self.latencies, p))
        }
    }

    /// Fraction of requests that exceeded their own budget.
    pub fn miss_rate(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        let misses = self
            .latencies
            .iter()
            .zip(&self.budgets)
            .filter(|(l, b)| *l > *b)
            .count();
        Some(misses as f64 / self.latencies.len() as f64)
    }

    /// Mean latency, if any.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
        }
    }
}

/// Runs one core through an arrival trace under a policy.
///
/// `arrivals` must be sorted by arrival time. Works are sampled from the
/// engine's service model using `seed`, so a run is fully reproducible.
///
/// # Panics
/// Panics if arrivals are unsorted.
pub fn simulate_core(
    policy: &mut dyn DvfsPolicy,
    engine: &mut VpEngine,
    arrivals: &[ArrivalSpec],
    cfg: &CoreSimConfig,
    seed: u64,
) -> CoreSimResult {
    assert!(
        arrivals
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "arrival trace must be time-sorted"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let fixed_s = engine.service().fixed_s();
    let measure_from = cfg.measure_from_s.max(0.0);

    let mut waiting: Vec<Pending> = Vec::new();
    let mut inflight: Option<Inflight> = None;
    let mut cur_f = cfg.ladder.max();
    let mut last_t = 0.0_f64;
    // Metering starts at the measurement window; power set before then is
    // held as "pending" and becomes the meter's initial level.
    let mut meter: Option<EnergyMeter> = None;
    let idle_w = policy.idle_power_w().unwrap_or(cfg.power.core_idle_w());
    let mut pending_w = idle_w;
    let mut busy_s = 0.0_f64;
    // Whether the core was idle (possibly asleep) before the current event.
    let mut was_idle = true;

    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut budgets = Vec::with_capacity(arrivals.len());
    let mut tags = Vec::with_capacity(arrivals.len());
    let mut arrival_times = Vec::with_capacity(arrivals.len());
    // Telemetry is aggregated locally and flushed once at the end of the
    // run so the event loop stays allocation- and lock-free.
    let obs_on = eprons_obs::enabled();
    let tally_at_start = engine.tally();
    let mut freq_transitions = 0u64;
    let mut decisions = 0u64;

    // Advances in-flight progress (and busy-time accounting) to `t`.
    let advance =
        |fl: &mut Option<Inflight>, last_t: &mut f64, busy: &mut f64, cur_f: f64, t: f64| {
            let dt = t - *last_t;
            if let Some(f) = fl.as_mut() {
                // Busy time counts only within the measurement window.
                *busy += (t - last_t.max(measure_from)).max(0.0).min(dt);
                let eat_fixed = dt.min(f.rem_fixed_s);
                f.rem_fixed_s -= eat_fixed;
                let work_time = dt - eat_fixed;
                let cycles = work_time * cur_f;
                let done = cycles.min(f.rem_work_gc);
                f.rem_work_gc -= done;
                f.done_work_gc += done;
            }
            *last_t = t;
        };

    let completion_time =
        |fl: &Inflight, t: f64, f_ghz: f64| -> f64 { t + fl.rem_fixed_s + fl.rem_work_gc / f_ghz };

    // Decision-instant buffers, reused across events rather than allocated
    // at each: the processing-order deadlines and the waiting requests'
    // deadlines.
    let mut deadlines: Vec<f64> = Vec::new();
    let mut rest: Vec<f64> = Vec::new();
    let mut next_arrival = 0usize;
    loop {
        let comp_at = inflight
            .as_ref()
            .map(|fl| completion_time(fl, last_t, cur_f));
        let arr_at = arrivals.get(next_arrival).map(|a| a.arrival_s);
        let (t, is_arrival) = match (arr_at, comp_at) {
            (None, None) => break,
            (Some(a), None) => (a, true),
            (None, Some(c)) => (c, false),
            (Some(a), Some(c)) => {
                if a <= c {
                    (a, true)
                } else {
                    (c, false)
                }
            }
        };
        advance(&mut inflight, &mut last_t, &mut busy_s, cur_f, t);

        if is_arrival {
            let spec = arrivals[next_arrival];
            next_arrival += 1;
            let work = engine.service().sample_work(&mut rng);
            waiting.push(Pending {
                arrival: spec.arrival_s,
                budget: spec.budget_s,
                deadline: spec.deadline(),
                work_gc: work,
                tag: spec.tag,
            });
        } else {
            let fl = inflight.take().expect("completion without in-flight");
            if fl.arrival >= measure_from {
                latencies.push(t - fl.arrival);
                budgets.push(fl.budget);
                tags.push(fl.tag);
                arrival_times.push(fl.arrival);
            }
            policy.on_completion(t, t - fl.arrival, fl.budget);
        }

        // Dispatch the next request if the core is free.
        let woke_from_idle = was_idle;
        if inflight.is_none() && !waiting.is_empty() {
            let idx = if policy.reorders_edf() {
                waiting
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.deadline
                            .partial_cmp(&b.deadline)
                            .expect("deadlines are finite")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty")
            } else {
                0
            };
            let p = waiting.remove(idx);
            // A core woken from deep sleep pays the wake latency as extra
            // frequency-independent time on the first request.
            let wake = if woke_from_idle {
                policy.wake_latency_s()
            } else {
                0.0
            };
            inflight = Some(Inflight {
                arrival: p.arrival,
                budget: p.budget,
                deadline: p.deadline,
                rem_work_gc: p.work_gc,
                done_work_gc: 0.0,
                rem_fixed_s: fixed_s + wake,
                tag: p.tag,
            });
        }
        was_idle = inflight.is_none();

        // Decision instant: assemble processing-order deadlines.
        deadlines.clear();
        let head = inflight.as_ref().map(|fl| {
            deadlines.push(fl.deadline);
            InflightHead {
                done_work_gc: fl.done_work_gc,
                rem_fixed_s: fl.rem_fixed_s,
            }
        });
        rest.clear();
        rest.extend(waiting.iter().map(|p| p.deadline));
        if policy.reorders_edf() {
            rest.sort_by(|a, b| a.partial_cmp(b).expect("deadlines are finite"));
        }
        deadlines.extend_from_slice(&rest);

        let dec = if policy.needs_model() {
            engine.decision(t + cfg.decision_overhead_s, head, &deadlines)
        } else {
            // Feedback / fixed policies never read the model: hand them an
            // empty decision and skip the convolutions.
            engine.decision(t, None, &[])
        };
        let new_f = policy.choose_frequency(t, &dec, &cfg.ladder);
        decisions += 1;
        if new_f != cur_f {
            freq_transitions += 1;
        }
        cur_f = new_f;
        let w = if inflight.is_some() {
            cfg.power.core_busy_w(cur_f)
        } else {
            idle_w
        };
        if t < measure_from {
            pending_w = w;
        } else {
            meter
                .get_or_insert_with(|| EnergyMeter::new(measure_from, pending_w))
                .set_power(t, w);
        }
    }

    if obs_on {
        let tally = engine.tally().since(tally_at_start);
        let reg = eprons_obs::registry();
        reg.counter("server.dvfs.transitions").add(freq_transitions);
        reg.counter("server.vp.decisions").add(decisions);
        reg.counter("server.vp.convolutions")
            .add(tally.convolutions);
        reg.counter("server.vp.conditioned_hits")
            .add(tally.conditioned_hits);
        reg.counter("server.vp.spectra_built")
            .add(tally.spectra_built);
        reg.counter("server.vp.spectra_reused")
            .add(tally.spectra_reused);
        eprons_obs::record(eprons_obs::Event::FreqTransition {
            policy: policy.name().to_string(),
            transitions: freq_transitions,
            decisions,
            final_ghz: cur_f,
        });
    }

    let sim_end = last_t.max(measure_from);
    let energy_j = meter
        .unwrap_or_else(|| EnergyMeter::new(measure_from, pending_w))
        .energy_until(sim_end);
    CoreSimResult {
        latencies,
        budgets,
        tags,
        arrivals: arrival_times,
        sim_end_s: sim_end,
        measure_start_s: measure_from,
        energy_j,
        busy_s,
    }
}

/// Builds an open-loop Poisson arrival trace with a constant budget —
/// the workhorse of the Fig. 12 server experiments.
pub fn poisson_trace(
    rng: &mut SimRng,
    rate_per_s: f64,
    duration_s: f64,
    budget_s: f64,
) -> Vec<ArrivalSpec> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(rate_per_s);
        if t >= duration_s {
            break;
        }
        out.push(ArrivalSpec {
            arrival_s: t,
            budget_s,
            tag: out.len() as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AvgVpPolicy, MaxFreqPolicy, MaxVpPolicy, TimeTraderPolicy};
    use crate::service::ServiceModel;
    use eprons_num::Pmf;

    fn deterministic_service() -> ServiceModel {
        // Exactly 2.7e-3 Gc (1 ms at 2.7 GHz), no fixed part.
        ServiceModel::new(Pmf::delta(2.7e-3, 1.0e-5), 0.0)
    }

    fn xapian_service(seed: u64) -> ServiceModel {
        let mut rng = SimRng::seed_from_u64(seed);
        ServiceModel::synthetic_xapian(&mut rng, 20_000, 160)
    }

    #[test]
    fn maxfreq_isolated_requests_have_service_latency() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 10 requests far apart: no queueing.
        let arrivals: Vec<ArrivalSpec> = (0..10)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64,
                budget_s: 0.025,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            1,
        );
        assert_eq!(r.latencies.len(), 10);
        for &l in &r.latencies {
            // sample_with jitters within the PMF bin (±step/2 Gc ≈ ±1.9 µs).
            assert!((l - 1.0e-3).abs() < 5.0e-6, "latency {l}");
        }
        assert_eq!(r.miss_rate(), Some(0.0));
    }

    #[test]
    fn queueing_inflates_latency() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 3 simultaneous arrivals: latencies 1, 2, 3 ms.
        let arrivals = vec![
            ArrivalSpec {
                arrival_s: 0.0,
                budget_s: 0.025,
                tag: 0
            };
            3
        ];
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            1,
        );
        let mut lats = r.latencies.clone();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((lats[0] - 1.0e-3).abs() < 5.0e-6);
        assert!((lats[1] - 2.0e-3).abs() < 1.0e-5);
        assert!((lats[2] - 3.0e-3).abs() < 1.5e-5);
    }

    #[test]
    fn rubik_slows_down_with_slack_and_still_meets_deadlines() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxVpPolicy::rubik();
        // Sparse arrivals with 10 ms budget: Rubik should run at 1.2 GHz
        // (2.7e-3 Gc / 1.2 GHz = 2.25 ms < 10 ms) and still make deadlines.
        let arrivals: Vec<ArrivalSpec> = (0..50)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64 * 0.02,
                budget_s: 0.010,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            2,
        );
        assert_eq!(r.miss_rate(), Some(0.0));
        // Latency ≈ 2.25 ms (ran at the floor), not 1 ms.
        let mean = r.mean_latency().unwrap();
        assert!(
            (2.0e-3..2.6e-3).contains(&mean),
            "expected ≈2.25 ms at the DVFS floor, got {mean}"
        );
    }

    #[test]
    fn energy_ordering_matches_paper() {
        // Same trace, slack-rich budgets: MaxFreq > Rubik ≥ EPRONS energy.
        let svc = xapian_service(3);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(4);
        // 30% utilization: rate = 0.3 / E[service@fmax].
        let mean_t = svc.mean_service_time(2.7);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 120.0, 0.030);

        let run = |policy: &mut dyn DvfsPolicy| {
            let mut engine = VpEngine::new(svc.clone());
            simulate_core(policy, &mut engine, &arrivals, &cfg, 5)
        };
        let r_max = run(&mut MaxFreqPolicy);
        let r_rubik = run(&mut MaxVpPolicy::rubik());
        let r_eprons = run(&mut AvgVpPolicy::eprons());

        assert!(
            r_rubik.energy_j < r_max.energy_j,
            "Rubik ({}) must beat MaxFreq ({})",
            r_rubik.energy_j,
            r_max.energy_j
        );
        assert!(
            r_eprons.energy_j <= r_rubik.energy_j + 1e-9,
            "EPRONS ({}) must not exceed Rubik ({})",
            r_eprons.energy_j,
            r_rubik.energy_j
        );
        // And all policies keep the overall tail near the SLA.
        assert!(r_rubik.miss_rate().unwrap() < 0.08);
        assert!(r_eprons.miss_rate().unwrap() < 0.08);
    }

    #[test]
    fn eprons_meets_average_tail_constraint() {
        let svc = xapian_service(6);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(7);
        let mean_t = svc.mean_service_time(2.7);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 200.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = AvgVpPolicy::eprons();
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 8);
        let miss = r.miss_rate().unwrap();
        assert!(
            miss <= 0.08,
            "EPRONS-Server must keep the miss rate near 5%, got {miss}"
        );
        // And it must actually exploit slack: p95 close to the budget.
        let p95 = r.latency_percentile(0.95).unwrap();
        assert!(
            p95 > 0.5 * 0.030,
            "p95 {p95} should approach the 30 ms budget (slack exploited)"
        );
    }

    #[test]
    fn utilization_accounting() {
        let svc = xapian_service(9);
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(10);
        let arrivals = poisson_trace(&mut rng, 0.2 / mean_t, 300.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            11,
        );
        let u = r.utilization();
        assert!(
            (0.15..0.25).contains(&u),
            "expected ≈20% utilization at fmax, got {u}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let svc = xapian_service(12);
        let mut rng = SimRng::seed_from_u64(13);
        let arrivals = poisson_trace(&mut rng, 50.0, 30.0, 0.030);
        let run = || {
            let mut engine = VpEngine::new(svc.clone());
            let mut policy = AvgVpPolicy::eprons();
            simulate_core(
                &mut policy,
                &mut engine,
                &arrivals,
                &CoreSimConfig::default(),
                14,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn timetrader_tracks_target_coarsely() {
        let svc = xapian_service(15);
        let cfg = CoreSimConfig::default();
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(16);
        let arrivals = poisson_trace(&mut rng, 0.3 / mean_t, 300.0, 0.030);
        let mut engine = VpEngine::new(svc);
        let mut policy = TimeTraderPolicy::new(0.030, cfg.ladder.len());
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 17);
        // It saves energy vs MaxFreq…
        let mut engine2 = VpEngine::new(engine.service().clone());
        let mut maxf = MaxFreqPolicy;
        let r_max = simulate_core(&mut maxf, &mut engine2, &arrivals, &cfg, 17);
        assert!(r.energy_j < r_max.energy_j);
        // …while keeping a bounded miss rate over the long run.
        assert!(r.miss_rate().unwrap() < 0.15);
    }

    #[test]
    fn all_requests_complete() {
        let svc = xapian_service(18);
        let mut rng = SimRng::seed_from_u64(19);
        let arrivals = poisson_trace(&mut rng, 100.0, 20.0, 0.030);
        let n = arrivals.len();
        let mut engine = VpEngine::new(svc);
        let mut policy = AvgVpPolicy::eprons();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            20,
        );
        assert_eq!(r.latencies.len(), n);
        assert_eq!(r.budgets.len(), n);
        assert!(r.sim_end_s >= arrivals.last().unwrap().arrival_s);
    }

    #[test]
    fn measurement_window_excludes_warmup() {
        let svc = deterministic_service();
        let cfg = CoreSimConfig {
            measure_from_s: 5.0,
            ..Default::default()
        };
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        // 10 requests at t = 0..9 s; the first five fall in the warmup.
        let arrivals: Vec<ArrivalSpec> = (0..10)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64,
                budget_s: 0.025,
                tag: i as u64,
            })
            .collect();
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 30);
        assert_eq!(r.latencies.len(), 5, "warmup completions excluded");
        assert!(r.tags.iter().all(|&t| t >= 5));
        assert_eq!(r.measure_start_s, 5.0);
        // Average power is idle-dominated but measured only post-warmup.
        let avg = r.avg_core_power_w();
        assert!(avg >= cfg.power.core_idle_w() - 1e-9);
        assert!(r.measured_span_s() <= 5.0 + 0.01);
    }

    #[test]
    fn warmup_equals_no_warmup_for_stationary_policy() {
        // MaxFreq is stationary: per-request latencies after the warmup
        // match the same requests in an unwarmed run.
        let svc = xapian_service(31);
        let mut rng = SimRng::seed_from_u64(32);
        let arrivals = poisson_trace(&mut rng, 100.0, 20.0, 0.030);
        let run = |measure_from: f64| {
            let cfg = CoreSimConfig {
                measure_from_s: measure_from,
                ..Default::default()
            };
            let mut engine = VpEngine::new(svc.clone());
            let mut policy = MaxFreqPolicy;
            simulate_core(&mut policy, &mut engine, &arrivals, &cfg, 33)
        };
        let full = run(0.0);
        let warmed = run(10.0);
        // The warmed run's (tag → latency) pairs are a subset of the full
        // run's.
        use std::collections::HashMap;
        let full_map: HashMap<u64, f64> = full
            .tags
            .iter()
            .copied()
            .zip(full.latencies.iter().copied())
            .collect();
        for (tag, lat) in warmed.tags.iter().zip(&warmed.latencies) {
            assert!((full_map[tag] - lat).abs() < 1e-12);
        }
        assert!(warmed.latencies.len() < full.latencies.len());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let svc = deterministic_service();
        let mut engine = VpEngine::new(svc);
        let mut policy = MaxFreqPolicy;
        let arrivals = vec![
            ArrivalSpec {
                arrival_s: 1.0,
                budget_s: 0.025,
                tag: 0,
            },
            ArrivalSpec {
                arrival_s: 0.5,
                budget_s: 0.025,
                tag: 1,
            },
        ];
        simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            0,
        );
    }
}
