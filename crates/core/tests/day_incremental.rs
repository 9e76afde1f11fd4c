//! Day-scoped incremental evaluation: golden bit-identity and cache
//! counter arithmetic.
//!
//! The incremental machinery (the [`DayContext`] LRU, demand rebinds,
//! and the per-context result and stage-3 memos that revived contexts
//! bring back) must be invisible in results: a day run with
//! `DayScopeConfig { incremental: true }` is bit-for-bit the day run
//! with `incremental: false` (the per-epoch rebuild baseline), including
//! under mid-day failures and across every consolidation strategy, on
//! fixed inputs and on generated traces and failure schedules. The
//! constant-trace test then pins the cache arithmetic exactly: a
//! constant day has one operating point, so the day cache misses once
//! and hits every remaining epoch, and the result memo serves the first
//! epoch's evaluation verbatim. The day-end cache report counts the
//! day's own lookups, whatever another thread evaluates meanwhile.
//!
//! Own test binary: every cache lives in its scenario context, but the
//! obs counter registry and journal are process-wide, so tests
//! serialize on a static mutex and no other test binary's counters can
//! race the arithmetic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use eprons_core::controller::{day_total_energy_j, DayConfig};
use eprons_core::optimizer::scale_factor_candidates;
use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{
    simulate_day, simulate_day_with_failures, ClusterConfig, ConsolidateStrategy,
    ConsolidationSpec, DayScopeConfig, DayStrategy, FailureEvent, FailureEventKind,
    FailureSchedule, OnlineConfig, ReplayTrace, ServerScheme, TraceScenario,
};
use eprons_proplite::{cases, Gen};
use eprons_topo::FatTree;

/// Serializes the tests in this binary: the obs counter registry and
/// journal are the only process-wide state they touch.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn core_failure(cfg: &ClusterConfig) -> FailureSchedule {
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let core = ft.core(0, 0).0;
    FailureSchedule::scripted(vec![
        FailureEvent {
            minute: 730.0,
            switch: core,
            kind: FailureEventKind::Fail,
        },
        FailureEvent {
            minute: 770.0,
            switch: core,
            kind: FailureEventKind::Recover,
        },
    ])
}

fn assert_days_bit_identical(
    label: &str,
    baseline: &[eprons_core::controller::DayRecord],
    incremental: &[eprons_core::controller::DayRecord],
    baseline_day: &DayConfig,
    incremental_day: &DayConfig,
) {
    assert_eq!(baseline.len(), incremental.len(), "{label}: epoch count");
    for (b, i) in baseline.iter().zip(incremental) {
        assert_eq!(
            b.breakdown.total_w().to_bits(),
            i.breakdown.total_w().to_bits(),
            "{label}: power diverged at minute {}",
            b.minute
        );
        assert_eq!(
            b.active_switch_ids, i.active_switch_ids,
            "{label}: active set diverged at minute {}",
            b.minute
        );
        assert_eq!(
            b.e2e_p95_s.to_bits(),
            i.e2e_p95_s.to_bits(),
            "{label}: latency diverged at minute {}",
            b.minute
        );
        assert_eq!(b.feasible, i.feasible, "{label}: feasibility diverged");
    }
    assert_eq!(
        day_total_energy_j(baseline, baseline_day).to_bits(),
        day_total_energy_j(incremental, incremental_day).to_bits(),
        "{label}: day total energy diverged"
    );
}

/// Cold-rebuild vs incremental on a correlated-failure day, across all
/// three consolidation strategies: the caches must be invisible.
#[test]
fn incremental_day_is_bit_identical_across_strategies() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in [
        ConsolidateStrategy::Monolithic,
        ConsolidateStrategy::PodDecomposed,
        ConsolidateStrategy::Auto,
    ] {
        let cfg = ClusterConfig {
            fat_tree_k: 4,
            consolidate_strategy: strategy,
            ..ClusterConfig::default()
        };
        let baseline_day = DayConfig {
            epoch_minutes: 480,
            sim_seconds: 1.0,
            peak_utilization: 0.5,
            seed: 7777,
            warm_start: true,
            online: Some(OnlineConfig::enabled()),
            day_scope: Some(DayScopeConfig { incremental: false }),
            ..DayConfig::default()
        };
        let incremental_day = DayConfig {
            day_scope: Some(DayScopeConfig::default()),
            ..baseline_day.clone()
        };
        let candidates = DayStrategy::Eprons {
            candidates: vec![
                ConsolidationSpec::GreedyK(1.0),
                ConsolidationSpec::GreedyK(2.0),
            ],
        };
        let schedule = core_failure(&cfg);

        let baseline = simulate_day_with_failures(&cfg, &candidates, &baseline_day, &schedule);
        let incremental =
            simulate_day_with_failures(&cfg, &candidates, &incremental_day, &schedule);
        assert_days_bit_identical(
            strategy.name(),
            &baseline,
            &incremental,
            &baseline_day,
            &incremental_day,
        );
    }

    // A batch day with no hint to carry (`warm_start: false`, no online
    // controller): the day cache alone makes it sequential, and it must
    // still match the fanned-out rebuild baseline while actually hitting.
    let cfg = ClusterConfig {
        fat_tree_k: 4,
        ..ClusterConfig::default()
    };
    let baseline_day = DayConfig {
        epoch_minutes: 120,
        sim_seconds: 1.0,
        peak_utilization: 0.5,
        seed: 7777,
        warm_start: false,
        online: None,
        day_scope: Some(DayScopeConfig { incremental: false }),
        ..DayConfig::default()
    };
    let incremental_day = DayConfig {
        day_scope: Some(DayScopeConfig::default()),
        ..baseline_day.clone()
    };
    let strategy = DayStrategy::Eprons {
        candidates: vec![
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(2.0),
        ],
    };
    let schedule = core_failure(&cfg);
    let hits = || eprons_obs::registry().counter("core.daycache.hits").get();
    let baseline = simulate_day_with_failures(&cfg, &strategy, &baseline_day, &schedule);
    eprons_obs::set_enabled(true);
    let hits_0 = hits();
    let incremental = simulate_day_with_failures(&cfg, &strategy, &incremental_day, &schedule);
    let day_hits = hits() - hits_0;
    eprons_obs::set_enabled(false);
    assert_days_bit_identical(
        "batch",
        &baseline,
        &incremental,
        &baseline_day,
        &incremental_day,
    );
    assert!(day_hits > 0, "the batch day must reuse its day cache");
}

/// A random replay trace: constant, or one step at a random minute.
fn arb_trace(g: &mut Gen, lo: f64, hi: f64) -> ReplayTrace {
    let (before, after) = (g.f64_in(lo, hi), g.f64_in(lo, hi));
    if g.bool() {
        return ReplayTrace::constant(before);
    }
    let step = g.usize_in(1, 1439);
    ReplayTrace::new(
        (0..1440)
            .map(|m| if m < step { before } else { after })
            .collect(),
    )
}

/// A random scripted schedule of up to two core or aggregation switch
/// failures, each recovering later in the day or not at all.
fn arb_failures(g: &mut Gen, cfg: &ClusterConfig) -> FailureSchedule {
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let half = cfg.fat_tree_k / 2;
    let mut events = Vec::new();
    for _ in 0..g.usize_in(0, 2) {
        let switch = if g.bool() {
            ft.core(g.usize_in(0, half - 1), g.usize_in(0, half - 1))
        } else {
            ft.agg(g.usize_in(0, cfg.fat_tree_k - 1), g.usize_in(0, half - 1))
        };
        let fail = g.f64_in(0.0, 1440.0);
        events.push(FailureEvent {
            minute: fail,
            switch: switch.0,
            kind: FailureEventKind::Fail,
        });
        if g.bool() {
            events.push(FailureEvent {
                minute: g.f64_in(fail, 1440.0),
                switch: switch.0,
                kind: FailureEventKind::Recover,
            });
        }
    }
    FailureSchedule::scripted(events)
}

/// Context reuse over generated inputs: on random constant or step
/// traces and random core/aggregation failure schedules, with or without
/// the online controller, the incremental day matches the per-epoch
/// rebuild bit for bit — the fixed-input goldens above, generalized.
#[test]
fn incremental_day_matches_rebuild_on_random_traces_and_failures() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ClusterConfig {
        fat_tree_k: 4,
        ..ClusterConfig::default()
    };
    let strategy = DayStrategy::Eprons {
        candidates: vec![
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(2.0),
        ],
    };
    cases(16, |g, case| {
        let baseline_day = DayConfig {
            epoch_minutes: *g.choose(&[240, 360, 480]),
            sim_seconds: 0.5,
            peak_utilization: 0.5,
            seed: g.u64(),
            warm_start: g.bool(),
            search_trace: TraceScenario::Replay(arb_trace(g, 0.1, 1.0)),
            background_trace: TraceScenario::Replay(arb_trace(g, 0.05, 0.3)),
            online: g.bool().then(OnlineConfig::enabled),
            day_scope: Some(DayScopeConfig { incremental: false }),
        };
        let incremental_day = DayConfig {
            day_scope: Some(DayScopeConfig::default()),
            ..baseline_day.clone()
        };
        let schedule = arb_failures(g, &cfg);
        let baseline = simulate_day_with_failures(&cfg, &strategy, &baseline_day, &schedule);
        let incremental = simulate_day_with_failures(&cfg, &strategy, &incremental_day, &schedule);
        assert_days_bit_identical(
            &format!("case {case}: {:?}", schedule.events()),
            &baseline,
            &incremental,
            &baseline_day,
            &incremental_day,
        );
    });
}

/// A constant replay day has exactly one operating point, which pins
/// the cache counters: the day cache misses once (the first epoch's
/// build) and hits every other epoch; the result memo serves the first
/// epoch's evaluation on every later epoch; and a single-pod failure
/// adds exactly one masked pod-decomposed reconsolidation.
#[test]
fn constant_day_pins_cache_counter_arithmetic() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ClusterConfig {
        fat_tree_k: 4,
        consolidate_strategy: ConsolidateStrategy::PodDecomposed,
        ..ClusterConfig::default()
    };
    // Skip rung 1 (in-place victim re-route): the pod-counter contract
    // under test is rung 2, the pod-masked reconsolidation.
    cfg.failure.attempt_repair = false;
    let day = DayConfig {
        epoch_minutes: 240,
        sim_seconds: 1.0,
        peak_utilization: 0.5,
        seed: 99,
        warm_start: true,
        // Constant demand at the morning-trough level: low enough that
        // the masked reconsolidation stays feasible (see the
        // failure_pod_decomp fixture), constant so the whole day is one
        // operating point.
        search_trace: TraceScenario::Replay(ReplayTrace::constant(0.3)),
        background_trace: TraceScenario::Replay(ReplayTrace::constant(0.2)),
        day_scope: Some(DayScopeConfig::default()),
        ..DayConfig::default()
    };
    let epochs = 1440 / day.epoch_minutes;
    // A single GreedyK candidate: every consolidation runs the pod
    // decomposition, keeping the pod-counter arithmetic exact.
    let strategy = DayStrategy::Eprons {
        candidates: vec![ConsolidationSpec::GreedyK(2.0)],
    };
    // Fail one agg of pod 1 mid-epoch: the mask lands in exactly one
    // pod, and the pod keeps its second agg, so the masked pass is
    // feasible without a push-back round.
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let agg = ft.agg(1, 0);
    let schedule = FailureSchedule::scripted(vec![
        FailureEvent {
            minute: 250.0,
            switch: agg.0,
            kind: FailureEventKind::Fail,
        },
        FailureEvent {
            minute: 290.0,
            switch: agg.0,
            kind: FailureEventKind::Recover,
        },
    ]);

    let counters = || {
        let reg = eprons_obs::registry();
        (
            reg.counter("core.daycache.hits").get(),
            reg.counter("core.daycache.misses").get(),
            reg.counter("core.serveval.hits").get(),
            reg.counter("core.serveval.misses").get(),
            reg.counter("net.pods.solved").get(),
            reg.counter("core.evalcache.hits").get(),
            reg.counter("core.evalcache.misses").get(),
        )
    };
    eprons_obs::set_enabled(true);
    let c0 = counters();
    let clean = simulate_day(&cfg, &strategy, &day);
    let c1 = counters();
    let failed = simulate_day_with_failures(&cfg, &strategy, &day, &schedule);
    let c2 = counters();
    eprons_obs::set_enabled(false);

    // Day cache: one build, then every epoch revives the same slot.
    assert_eq!(c1.1 - c0.1, 1, "clean day must build exactly one context");
    assert_eq!(
        c1.0 - c0.0,
        (epochs - 1) as u64,
        "clean day must revive the slot on every later epoch"
    );
    assert_eq!(c2.1 - c1.1, 1, "failure day must build exactly one context");
    assert_eq!(
        c2.0 - c1.0,
        (epochs - 1) as u64,
        "failure day must revive the slot on every later epoch"
    );

    // Result memo: one evaluation per epoch (a single candidate), so
    // the clean day computes the operating
    // point once and serves every later epoch from the cache. The
    // failure day adds exactly one more distinct point — the masked
    // evaluation of the failure window.
    let ec_hits = c1.5 - c0.5;
    let ec_misses = c1.6 - c0.6;
    assert_eq!(ec_misses, 1, "a constant day is one operating point");
    assert_eq!(
        ec_hits,
        (epochs - 1) as u64,
        "later epochs must serve the memoized result"
    );
    assert_eq!(
        c2.6 - c1.6,
        2,
        "the failure day evaluates exactly one extra (masked) point"
    );
    assert_eq!(
        c2.5 - c1.5,
        (epochs - 1) as u64,
        "failure-day repeats must still serve the memoized result"
    );

    // Stage-3 reuse: with the result memo answering the repeat epochs,
    // stage 3 runs only on result-memo misses — each ISN is simulated
    // exactly once per distinct operating point (16 servers at k = 4),
    // and no lookup of the stage-3 memo hits. (Its hits come from masked
    // plans that sample an earlier plan's latencies bit for bit — the
    // replay harness's territory, not a constant day's.)
    let n_servers = (cfg.fat_tree_k * cfg.fat_tree_k * cfg.fat_tree_k) as u64 / 4;
    let sv_hits = c1.2 - c0.2;
    let sv_misses = c1.3 - c0.3;
    assert_eq!(
        sv_misses, n_servers,
        "the clean day's one stage-3 run must simulate each ISN once"
    );
    assert_eq!(sv_hits, 0, "no lookup reuses a stage-3 run");
    assert_eq!(
        c2.3 - c1.3,
        2 * n_servers,
        "the failure day's two stage-3 runs must simulate each ISN twice"
    );

    // Pod solves: the clean day consolidates once (first epoch; later
    // epochs hit the revived result memo and never consolidate). The
    // failure day adds exactly one masked reconsolidation, which solves
    // each of the k = 4 tree's four pods once more.
    let clean_solved = c1.4 - c0.4;
    let failed_solved = c2.4 - c1.4;
    assert!(clean_solved > 0, "the clean day must run the decomposition");
    assert_eq!(
        failed_solved,
        clean_solved + 4,
        "the masked reconsolidation must solve every pod once"
    );

    // The constant day really is constant: every untouched epoch of the
    // failure day matches the clean day bit for bit.
    for (b, d) in clean.iter().zip(&failed) {
        if d.failed_switches.is_empty() {
            assert_eq!(
                b.breakdown.total_w().to_bits(),
                d.breakdown.total_w().to_bits(),
                "untouched epoch at minute {} diverged",
                d.minute
            );
        }
    }
}

/// The day-end cache report counts the day's own lookups: with
/// telemetry on, a thread evaluating unrelated contexts for the whole
/// day leaves every `DayCacheReport` row — `core.evalcache` and
/// `server.serveval` included — as it reads when the day runs alone.
/// The rows come from the day's own tallies, so the assertion holds
/// however the two threads interleave; rows diffed from the
/// process-wide registry would count the other thread's lookups.
#[test]
fn day_cache_report_ignores_concurrent_evaluations() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ClusterConfig {
        fat_tree_k: 4,
        ..ClusterConfig::default()
    };
    let day = DayConfig {
        epoch_minutes: 240,
        sim_seconds: 0.5,
        peak_utilization: 0.5,
        seed: 99,
        warm_start: true,
        day_scope: Some(DayScopeConfig::default()),
        ..DayConfig::default()
    };
    let strategy = DayStrategy::Eprons {
        candidates: vec![
            ConsolidationSpec::GreedyK(1.0),
            ConsolidationSpec::GreedyK(2.0),
        ],
    };
    let report = || {
        eprons_obs::reset();
        simulate_day(&cfg, &strategy, &day);
        eprons_obs::journal()
            .snapshot()
            .into_iter()
            .filter(|e| e.event.kind() == "DayCacheReport")
            .map(|e| e.event)
            .collect::<Vec<_>>()
    };
    eprons_obs::set_enabled(true);
    let alone = report();
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    let (during, evaluations) = std::thread::scope(|s| {
        let other = s.spawn(|| {
            started.wait();
            // A fresh context per evaluation: every lookup misses the
            // result memo, so each also consults the stage-3 memo.
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let spec = ScenarioSpec {
                    server_utilization: 0.2,
                    background_util: 0.1,
                    duration_s: 0.2,
                    warmup_s: 0.0,
                    seed: n,
                };
                ScenarioContext::build(&cfg, &spec)
                    .evaluate(ServerScheme::EpronsServer, ConsolidationSpec::AllOn)
                    .unwrap();
                n += 1;
            }
            n
        });
        started.wait();
        let rows = report();
        stop.store(true, Ordering::Relaxed);
        (rows, other.join().unwrap())
    });
    eprons_obs::set_enabled(false);

    assert_eq!(alone.len(), 4, "one row per day-scope cache");
    assert!(evaluations > 0, "the other thread must have evaluated");
    assert_eq!(
        during, alone,
        "another thread's lookups leaked into the report"
    );
}

/// The k=16 bit-identity golden (the replay harness's scale, coarse
/// epochs). Expensive, so ignored by default; CI runs it in release
/// mode via `cargo test --release --test day_incremental -- --ignored`.
#[test]
#[ignore = "k=16 is expensive; CI runs it in release mode"]
fn quick_k16_incremental_day_is_bit_identical() {
    let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ClusterConfig {
        fat_tree_k: 16,
        ..ClusterConfig::default()
    };
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = cfg.query_flow_mbps.min(300.0 / (n - 1.0));
    let baseline_day = DayConfig {
        epoch_minutes: 480,
        sim_seconds: 0.5,
        peak_utilization: 0.5,
        seed: 2018,
        warm_start: true,
        online: Some(OnlineConfig::enabled()),
        day_scope: Some(DayScopeConfig { incremental: false }),
        ..DayConfig::default()
    };
    let incremental_day = DayConfig {
        day_scope: Some(DayScopeConfig::default()),
        ..baseline_day.clone()
    };
    let strategy = DayStrategy::Eprons {
        candidates: scale_factor_candidates(2),
    };
    let schedule = core_failure(&cfg);

    let baseline = simulate_day_with_failures(&cfg, &strategy, &baseline_day, &schedule);
    let incremental = simulate_day_with_failures(&cfg, &strategy, &incremental_day, &schedule);
    assert_days_bit_identical(
        "k16",
        &baseline,
        &incremental,
        &baseline_day,
        &incremental_day,
    );
}
