//! `controller::simulate_day` contracts: seeded determinism of the whole
//! epoch timeline, and the paper's headline outcome — a full EPRONS day
//! consumes less energy than a no-power-management day (Fig. 15).
//!
//! Own test binary: the determinism check overrides the process-wide
//! thread budget, which must not race the library's unit tests.

use eprons_core::controller::{day_total_energy_j, DayConfig};
use eprons_core::optimizer::aggregation_candidates;
use eprons_core::{
    set_thread_budget, simulate_day, simulate_day_with_failures, ClusterConfig, DayRecord,
    DayStrategy, FailureEvent, FailureEventKind, FailureSchedule,
};
use eprons_topo::FatTree;

fn quick_day() -> DayConfig {
    DayConfig {
        epoch_minutes: 240, // 6 epochs, for test speed
        sim_seconds: 2.0,
        peak_utilization: 0.5,
        seed: 99,
        warm_start: true,
        ..DayConfig::default()
    }
}

/// Every number in a day record, as exact bits.
fn record_bits(r: &DayRecord) -> Vec<u64> {
    let mut v = vec![
        r.minute.to_bits(),
        r.search_load.to_bits(),
        r.background_util.to_bits(),
        r.breakdown.server_w.to_bits(),
        r.breakdown.network_w.to_bits(),
        r.active_switches as u64,
        r.e2e_p95_s.to_bits(),
        r.feasible as u64,
    ];
    v.extend(r.active_switch_ids.iter().map(|&id| id as u64));
    v
}

#[test]
fn day_timeline_is_deterministic_given_seed() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let strategy = DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    };
    let a = simulate_day(&cfg, &strategy, &day);
    // Same seed, different thread budget: the timeline (every epoch's
    // choice, power split, switch set, and tail) must be bit-identical.
    set_thread_budget(Some(1));
    let b = simulate_day(&cfg, &strategy, &day);
    set_thread_budget(None);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            record_bits(x),
            record_bits(y),
            "epoch at minute {} diverged across runs",
            x.minute
        );
    }
}

#[test]
fn warm_started_day_matches_cold_day_bit_for_bit() {
    // PR-5 golden pin: epoch-to-epoch warm starting is an evaluation-order
    // hint, never a result change. A day simulated with `warm_start: true`
    // (sequential epochs, previous winner hinted forward) must reproduce
    // the cold day (`warm_start: false`, parallel epochs, no hints) in
    // every record bit and in total energy. The second input fails a core
    // switch mid-epoch and recovers it two epochs later: the warm day
    // keeps hinting across both mask changes.
    let cfg = ClusterConfig::default();
    let strategy = DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    };
    let warm_day = quick_day();
    let cold_day = DayConfig {
        warm_start: false,
        ..quick_day()
    };
    let ft = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let core = ft.core(0, 0).0;
    let core_failure = FailureSchedule::scripted(vec![
        FailureEvent {
            minute: 300.0,
            switch: core,
            kind: FailureEventKind::Fail,
        },
        FailureEvent {
            minute: 800.0,
            switch: core,
            kind: FailureEventKind::Recover,
        },
    ]);
    for (label, schedule) in [
        ("clean", FailureSchedule::none()),
        ("core failure", core_failure),
    ] {
        let warm = simulate_day_with_failures(&cfg, &strategy, &warm_day, &schedule);
        let cold = simulate_day_with_failures(&cfg, &strategy, &cold_day, &schedule);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(
                record_bits(w),
                record_bits(c),
                "{label}: epoch at minute {} diverged between warm and cold days",
                w.minute
            );
        }
        let warm_j = day_total_energy_j(&warm, &warm_day);
        let cold_j = day_total_energy_j(&cold, &cold_day);
        assert_eq!(warm_j.to_bits(), cold_j.to_bits());
    }
}

#[test]
fn eprons_day_uses_less_energy_than_no_power_management() {
    let cfg = ClusterConfig::default();
    let day = quick_day();
    let nopm = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day);
    let eprons = simulate_day(
        &cfg,
        &DayStrategy::Eprons {
            candidates: aggregation_candidates(),
        },
        &day,
    );
    let nopm_j = day_total_energy_j(&nopm, &day);
    let eprons_j = day_total_energy_j(&eprons, &day);
    assert!(nopm_j > 0.0);
    assert!(
        eprons_j < nopm_j,
        "EPRONS day {eprons_j:.0} J must undercut no-PM day {nopm_j:.0} J"
    );
}
