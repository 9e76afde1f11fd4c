//! End-to-end pod-masked repair: a failure day run under the
//! pod-decomposed strategy routes its mid-epoch reconsolidation through
//! the pod decomposition. A single-pod switch failure adds exactly one
//! masked pass — every pod solved once more, none falling back to the
//! monolithic path — degrades exactly the epoch it hits, and leaves
//! every other epoch bit-identical to the clean day. That a foreign-pod
//! mask leaves the other pods' solves byte-identical is pinned inside
//! the consolidator (`foreign_pod_mask_leaves_other_solves_byte_identical`).
//! The `net.pods.*` counters observe the passes from outside the
//! consolidator.
//!
//! Own test binary: the counter deltas are process-global, and no other
//! test in this binary may emit `net.pods.*` (they would race the
//! arithmetic).

use eprons_core::controller::DayConfig;
use eprons_core::{
    simulate_day, simulate_day_with_failures, ClusterConfig, ConsolidateStrategy,
    ConsolidationSpec, DayStrategy, FailureEvent, FailureEventKind, FailureSchedule,
};
use eprons_topo::FatTree;

fn pod_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig {
        fat_tree_k: 4,
        // k=4 is below the Auto threshold; pin the strategy so the whole
        // day — epoch plans and mid-epoch reconsolidation — runs the
        // hierarchical path.
        consolidate_strategy: ConsolidateStrategy::PodDecomposed,
        ..ClusterConfig::default()
    };
    // Skip rung 1 (in-place victim re-route): the contract under test is
    // rung 2, the pod-masked reconsolidation.
    cfg.failure.attempt_repair = false;
    cfg
}

fn quick_day() -> DayConfig {
    DayConfig {
        epoch_minutes: 240,
        sim_seconds: 2.0,
        peak_utilization: 0.5,
        seed: 99,
        warm_start: true,
        ..DayConfig::default()
    }
}

fn eprons() -> DayStrategy {
    DayStrategy::Eprons {
        // A single GreedyK candidate: every epoch consolidates through
        // the pod decomposition (the aggregation presets would bypass
        // it and muddy the counter arithmetic).
        candidates: vec![ConsolidationSpec::GreedyK(2.0)],
    }
}

fn pods_counters() -> (u64, u64) {
    let reg = eprons_obs::registry();
    (
        reg.counter("net.pods.solved").get(),
        reg.counter("net.pods.fallbacks").get(),
    )
}

#[test]
fn single_pod_failure_adds_one_masked_pod_pass() {
    let cfg = pod_cfg();
    let day = quick_day();
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    // Fail one agg of pod 1 mid-epoch: the mask lands in exactly one
    // pod, and the pod keeps its second agg, so the masked re-solve is
    // feasible without any push-back round. The failure hits a low-load
    // epoch ([240, 480), morning trough) on purpose — at the midday
    // peak, losing half of one pod's agg capacity makes `GreedyK(2)`
    // genuinely infeasible and the ladder correctly drops to the all-on
    // rung, which is the wrong fixture for a counter-arithmetic test.
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

    eprons_obs::set_enabled(true);
    let before_clean = pods_counters();
    let baseline = simulate_day(&cfg, &eprons(), &day);
    let after_clean = pods_counters();
    let degraded = simulate_day_with_failures(&cfg, &eprons(), &day, &schedule);
    let after_failed = pods_counters();
    eprons_obs::set_enabled(false);

    let clean_solved = after_clean.0 - before_clean.0;
    let failed_solved = after_failed.0 - after_clean.0;
    assert_eq!(after_failed.1, 0, "no pass may fall back to monolithic");
    assert!(clean_solved > 0, "the clean day must run the decomposition");

    // The failure day does everything the clean day does, plus one
    // mid-epoch reconsolidation, which solves each of the four pods.
    assert_eq!(
        failed_solved,
        clean_solved + 4,
        "a single-pod failure must add exactly one masked pod pass"
    );

    // End-to-end sanity on the records themselves: the dead agg never
    // appears active once failed, exactly one epoch degrades, and the
    // epochs the failure never touches are bit-identical to the clean
    // day (breakdown bits and active sets).
    let hit: Vec<_> = degraded
        .iter()
        .filter(|r| !r.failed_switches.is_empty())
        .collect();
    assert_eq!(hit.len(), 1, "the scripted failure spans exactly one epoch");
    let r = hit[0];
    assert!(
        !r.active_switch_ids.contains(&agg.0),
        "the failed agg must be masked out of the active set"
    );
    assert!(
        r.degradation.is_some(),
        "rung 2 must mark the epoch as reconsolidated"
    );
    for (b, d) in baseline.iter().zip(&degraded) {
        if d.failed_switches.is_empty() {
            assert_eq!(
                b.breakdown.total_w().to_bits(),
                d.breakdown.total_w().to_bits(),
                "untouched epoch at minute {} diverged",
                d.minute
            );
            assert_eq!(b.active_switch_ids, d.active_switch_ids);
        }
    }
}
