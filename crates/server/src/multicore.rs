//! Multi-core server simulation: `c` cores sharing one request queue.
//!
//! The paper's ISNs are 12-core CPUs (§V-A) but, like Rubik and DynSleep,
//! its power scheme is per-core; the cluster simulator therefore models
//! one core per ISN and multiplies power by the core count (see
//! DESIGN.md). This module provides the full shared-queue multi-core
//! simulation so that approximation can be *checked* rather than assumed:
//! an M/G/c server pools its queue, so at equal per-core load its waiting
//! times are lower than c independent M/G/1 queues — meaning the cluster
//! model's latencies (and hence its frequencies and power) are
//! conservative upper bounds.
//!
//! Each core selects its own frequency when it dispatches a request,
//! using the same [`DvfsPolicy`] machinery as the single-core simulator;
//! decisions see the core's in-flight request plus the *shared* backlog.

use eprons_sim::{EnergyMeter, SimRng};

use crate::coresim::CoreSimConfig;
use crate::policy::DvfsPolicy;
use crate::request::ArrivalSpec;
use crate::vp::{InflightHead, VpEngine};

/// A waiting request.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: f64,
    budget: f64,
    deadline: f64,
    work_gc: f64,
    tag: u64,
}

/// A core's in-flight request.
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

/// Per-core state.
struct Core {
    inflight: Option<Inflight>,
    freq: f64,
    meter: EnergyMeter,
}

/// Multi-core simulation outcome.
#[derive(Debug, Clone)]
pub struct MultiCoreResult {
    /// Per-request latency, completion order.
    pub latencies: Vec<f64>,
    /// Budgets aligned with `latencies`.
    pub budgets: Vec<f64>,
    /// Tags aligned with `latencies`.
    pub tags: Vec<u64>,
    /// End of simulation, seconds.
    pub sim_end_s: f64,
    /// Total energy across all cores, joules.
    pub energy_j: f64,
    /// Number of cores simulated.
    pub cores: usize,
}

impl MultiCoreResult {
    /// Average per-core power, watts.
    pub fn avg_core_power_w(&self) -> f64 {
        if self.sim_end_s > 0.0 {
            self.energy_j / self.sim_end_s / self.cores as f64
        } else {
            0.0
        }
    }

    /// Latency percentile.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(eprons_num::quantile::percentile(&self.latencies, p))
        }
    }

    /// Fraction of requests exceeding their own budget.
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

    /// Mean latency.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
        }
    }
}

/// Simulates `cores` cores sharing one queue under a single policy.
///
/// The policy's EDF flag orders the shared queue; its frequency choice is
/// applied to the dispatching core only (per-core DVFS, as on the paper's
/// hardware).
///
/// # Panics
/// Panics if `cores == 0` or the trace is unsorted.
pub fn simulate_multicore(
    policy: &mut dyn DvfsPolicy,
    engine: &mut VpEngine,
    arrivals: &[ArrivalSpec],
    cores: usize,
    cfg: &CoreSimConfig,
    seed: u64,
) -> MultiCoreResult {
    assert!(cores > 0, "need at least one core");
    assert!(
        arrivals
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "arrival trace must be time-sorted"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let fixed_s = engine.service().fixed_s();
    let idle_w = policy.idle_power_w().unwrap_or(cfg.power.core_idle_w());

    let mut waiting: Vec<Pending> = Vec::new();
    let mut corestates: Vec<Core> = (0..cores)
        .map(|_| Core {
            inflight: None,
            freq: cfg.ladder.max(),
            meter: EnergyMeter::new(0.0, idle_w),
        })
        .collect();
    let mut last_t = 0.0_f64;
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut budgets = Vec::with_capacity(arrivals.len());
    let mut tags = Vec::with_capacity(arrivals.len());
    let mut next_arrival = 0usize;

    // Advance every busy core's progress to `t`.
    fn advance(cores: &mut [Core], last_t: f64, t: f64) {
        let dt = t - last_t;
        for c in cores.iter_mut() {
            if let Some(f) = c.inflight.as_mut() {
                let eat_fixed = dt.min(f.rem_fixed_s);
                f.rem_fixed_s -= eat_fixed;
                let cycles = (dt - eat_fixed) * c.freq;
                let done = cycles.min(f.rem_work_gc);
                f.rem_work_gc -= done;
                f.done_work_gc += done;
            }
        }
    }

    let completion_time = |c: &Core, t: f64| -> Option<f64> {
        c.inflight
            .as_ref()
            .map(|f| t + f.rem_fixed_s + f.rem_work_gc / c.freq)
    };

    // Decision-instant buffers, reused across events rather than allocated
    // at each: the processing-order deadlines and the waiting requests'
    // deadlines.
    let mut deadlines: Vec<f64> = Vec::new();
    let mut rest: Vec<f64> = Vec::new();
    loop {
        // Next event: earliest completion across cores vs. next arrival.
        let mut comp: Option<(usize, f64)> = None;
        for (i, c) in corestates.iter().enumerate() {
            if let Some(at) = completion_time(c, last_t) {
                if comp.is_none_or(|(_, t)| at < t) {
                    comp = Some((i, at));
                }
            }
        }
        let arr_at = arrivals.get(next_arrival).map(|a| a.arrival_s);
        let (t, completing_core) = match (arr_at, comp) {
            (None, None) => break,
            (Some(a), None) => (a, None),
            (None, Some((i, c))) => (c, Some(i)),
            (Some(a), Some((i, c))) => {
                if a <= c {
                    (a, None)
                } else {
                    (c, Some(i))
                }
            }
        };
        advance(&mut corestates, last_t, t);
        last_t = t;

        match completing_core {
            None => {
                let spec = arrivals[next_arrival];
                next_arrival += 1;
                waiting.push(Pending {
                    arrival: spec.arrival_s,
                    budget: spec.budget_s,
                    deadline: spec.deadline(),
                    work_gc: engine.service().sample_work(&mut rng),
                    tag: spec.tag,
                });
            }
            Some(i) => {
                let fl = corestates[i]
                    .inflight
                    .take()
                    .expect("completion on idle core");
                latencies.push(t - fl.arrival);
                budgets.push(fl.budget);
                tags.push(fl.tag);
                policy.on_completion(t, t - fl.arrival, fl.budget);
            }
        }

        // Dispatch to every idle core while work waits.
        while let Some(core_idx) = corestates.iter().position(|c| c.inflight.is_none()) {
            if waiting.is_empty() {
                break;
            }
            let idx = if policy.reorders_edf() {
                waiting
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.deadline.partial_cmp(&b.deadline).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty")
            } else {
                0
            };
            let p = waiting.remove(idx);
            corestates[core_idx].inflight = Some(Inflight {
                arrival: p.arrival,
                budget: p.budget,
                deadline: p.deadline,
                rem_work_gc: p.work_gc,
                done_work_gc: 0.0,
                rem_fixed_s: fixed_s + policy.wake_latency_s(),
                tag: p.tag,
            });

            // Frequency decision for this core: its head plus the shared
            // backlog (which any core may serve next — the pooled view).
            deadlines.clear();
            let head = corestates[core_idx].inflight.as_ref().map(|fl| {
                deadlines.push(fl.deadline);
                InflightHead {
                    done_work_gc: fl.done_work_gc,
                    rem_fixed_s: fl.rem_fixed_s,
                }
            });
            rest.clear();
            rest.extend(waiting.iter().map(|p| p.deadline));
            if policy.reorders_edf() {
                rest.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            }
            // The backlog is shared by `cores` servers: only every c-th
            // waiting request lands on *this* core, so the decision sees
            // the thinned queue (position i served after ~i/c rounds).
            deadlines.extend(rest.iter().step_by(cores));
            let dec = engine.decision(t + cfg.decision_overhead_s, head, &deadlines);
            let f = policy.choose_frequency(t, &dec, &cfg.ladder);
            corestates[core_idx].freq = f;
        }

        // Power metering.
        for c in corestates.iter_mut() {
            let w = if c.inflight.is_some() {
                cfg.power.core_busy_w(c.freq)
            } else {
                idle_w
            };
            c.meter.set_power(t, w);
        }
    }

    let energy: f64 = corestates
        .iter()
        .map(|c| c.meter.energy_until(last_t))
        .sum();
    MultiCoreResult {
        latencies,
        budgets,
        tags,
        sim_end_s: last_t,
        energy_j: energy,
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coresim::{poisson_trace, simulate_core};
    use crate::policy::{AvgVpPolicy, MaxFreqPolicy};
    use crate::service::ServiceModel;
    use eprons_sim::SimRng;

    fn service(seed: u64) -> ServiceModel {
        let mut rng = SimRng::seed_from_u64(seed);
        ServiceModel::synthetic_xapian(&mut rng, 15_000, 128)
    }

    #[test]
    fn single_core_matches_coresim_statistically() {
        let svc = service(70);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(71);
        let arrivals = poisson_trace(&mut rng, 40.0, 60.0, 0.030);
        let mut e1 = VpEngine::new(svc.clone());
        let mut p1 = MaxFreqPolicy;
        let single = simulate_core(&mut p1, &mut e1, &arrivals, &cfg, 72);
        let mut e2 = VpEngine::new(svc);
        let mut p2 = MaxFreqPolicy;
        let multi = simulate_multicore(&mut p2, &mut e2, &arrivals, 1, &cfg, 72);
        assert_eq!(multi.latencies.len(), single.latencies.len());
        // Same trace, same seed, same discipline: identical latencies.
        for (a, b) in single.latencies.iter().zip(&multi.latencies) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn pooling_cuts_queueing_at_equal_per_core_load() {
        // 4 cores at 4× the arrival rate vs 1 core: the pooled queue waits
        // less (M/M/c beats c × M/M/1).
        let svc = service(73);
        let cfg = CoreSimConfig::default();
        let mean_t = svc.mean_service_time(2.7);
        let per_core_util = 0.6;
        let mut rng = SimRng::seed_from_u64(74);
        let one = poisson_trace(&mut rng, per_core_util / mean_t, 120.0, 0.030);
        let mut rng = SimRng::seed_from_u64(74);
        let four = poisson_trace(&mut rng, 4.0 * per_core_util / mean_t, 120.0, 0.030);

        let mut e1 = VpEngine::new(svc.clone());
        let mut p1 = MaxFreqPolicy;
        let r1 = simulate_multicore(&mut p1, &mut e1, &one, 1, &cfg, 75);
        let mut e4 = VpEngine::new(svc);
        let mut p4 = MaxFreqPolicy;
        let r4 = simulate_multicore(&mut p4, &mut e4, &four, 4, &cfg, 75);
        let m1 = r1.mean_latency().unwrap();
        let m4 = r4.mean_latency().unwrap();
        assert!(
            m4 < m1,
            "pooled 4-core latency {m4} should beat single-core {m1}"
        );
    }

    #[test]
    fn single_core_model_is_conservative_for_eprons() {
        // The cluster simulator's 1-core-per-ISN approximation must be an
        // upper bound: the 12-core pooled server meets deadlines at least
        // as easily and spends no more energy per core.
        let svc = service(76);
        let cfg = CoreSimConfig::default();
        let mean_t = svc.mean_service_time(2.7);
        let mut rng = SimRng::seed_from_u64(77);
        let single_trace = poisson_trace(&mut rng, 0.4 / mean_t, 90.0, 0.025);
        let mut rng = SimRng::seed_from_u64(77);
        let pooled_trace = poisson_trace(&mut rng, 4.0 * 0.4 / mean_t, 90.0, 0.025);

        let mut e1 = VpEngine::new(svc.clone());
        let mut p1 = AvgVpPolicy::eprons();
        let approx = simulate_multicore(&mut p1, &mut e1, &single_trace, 1, &cfg, 78);
        let mut e2 = VpEngine::new(svc);
        let mut p2 = AvgVpPolicy::eprons();
        let pooled = simulate_multicore(&mut p2, &mut e2, &pooled_trace, 4, &cfg, 78);
        assert!(
            pooled.miss_rate().unwrap() <= approx.miss_rate().unwrap() + 0.02,
            "pooled misses {} vs per-core model {}",
            pooled.miss_rate().unwrap(),
            approx.miss_rate().unwrap()
        );
    }

    #[test]
    fn all_requests_complete_across_cores() {
        let svc = service(79);
        let cfg = CoreSimConfig::default();
        let mut rng = SimRng::seed_from_u64(80);
        let arrivals = poisson_trace(&mut rng, 300.0, 10.0, 0.030);
        let n = arrivals.len();
        let mut e = VpEngine::new(svc);
        let mut p = AvgVpPolicy::eprons();
        let r = simulate_multicore(&mut p, &mut e, &arrivals, 12, &cfg, 81);
        assert_eq!(r.latencies.len(), n);
        let mut tags = r.tags.clone();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), n);
        assert_eq!(r.cores, 12);
        assert!(r.avg_core_power_w() >= cfg.power.core_idle_w() - 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let svc = service(82);
        let mut e = VpEngine::new(svc);
        let mut p = MaxFreqPolicy;
        simulate_multicore(&mut p, &mut e, &[], 0, &CoreSimConfig::default(), 0);
    }
}
