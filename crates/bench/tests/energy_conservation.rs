//! Energy-ledger cross-check plus the adversarial online-day audit.
//!
//! Phase A pins the day-energy accounting identity on a journaled
//! failure day: [`day_total_energy_j`] (the Fig. 15 currency, computed
//! from the returned records) must equal the integral of the journal's
//! `PowerSegment` tiling plus the `RepairOutcome` boot charges. The two
//! sides are computed by independent code paths — the controller's
//! accumulators vs. the telemetry stream — so drift in either shows up
//! here before it corrupts a published figure.
//!
//! Phase B replays a flash-crowd day with ramp-correlated switch
//! failures through the online controller (workload deferral) and
//! requires `obsctl audit` to pass clean — including the deferral
//! conservation check (every megabit-minute enqueued is drained or
//! dropped) — on the resulting journal.
//!
//! One `#[test]` because the telemetry sinks are process-wide globals.

use eprons_bench::obsctl;
use eprons_core::controller::{
    day_total_energy_j, simulate_day_with_failures, DayConfig, DayStrategy,
};
use eprons_core::optimizer::aggregation_candidates;
use eprons_core::{
    ClusterConfig, FailureEvent, FailureEventKind, FailureSchedule, FlashCrowd, OnlineConfig,
    TraceScenario,
};
use eprons_obs::Event;
use eprons_sim::SimRng;
use eprons_topo::FatTree;
use eprons_workload::correlated_failures_during_ramp;

/// Sums the journal's two energy ledgers: the `PowerSegment` tiling
/// integrated over its windows, and the `RepairOutcome` boot charges.
fn journal_energy_j(entries: &[eprons_obs::JournalEntry]) -> (f64, f64) {
    let mut segment_j = 0.0;
    let mut boot_j = 0.0;
    for e in entries {
        match &e.event {
            Event::PowerSegment {
                from_min,
                to_min,
                server_w,
                network_w,
                ..
            } => segment_j += (server_w + network_w) * (to_min - from_min) * 60.0,
            Event::RepairOutcome { boot_energy_j, .. } => boot_j += boot_energy_j,
            _ => {}
        }
    }
    (segment_j, boot_j)
}

#[test]
fn day_energy_matches_the_journal_and_adversarial_days_audit_clean() {
    eprons_obs::set_enabled(true);
    eprons_obs::reset();

    // --- Phase A: the failure-day energy identity. ---
    let cfg = ClusterConfig::default();
    let day = DayConfig {
        epoch_minutes: 240, // 6 epochs, for test speed
        sim_seconds: 2.0,
        peak_utilization: 0.5,
        seed: 2018,
        warm_start: true,
        ..DayConfig::default()
    };
    let strategy = DayStrategy::Eprons {
        candidates: aggregation_candidates(),
    };
    // Core (0,0) is active in every aggregation preset: fail at 12:10,
    // recover at 12:50 — both inside epoch 3 ([720, 960)).
    let core = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps)
        .core(0, 0)
        .0;
    let schedule = FailureSchedule::scripted(vec![
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
    ]);
    let records = simulate_day_with_failures(&cfg, &strategy, &day, &schedule);
    let from_records_j = day_total_energy_j(&records, &day);

    let entries = eprons_obs::journal().snapshot();
    let (segment_j, boot_j) = journal_energy_j(&entries);
    assert!(
        boot_j > 0.0,
        "the repair + recovery must charge boot energy"
    );
    let from_journal_j = segment_j + boot_j;
    assert!(
        (from_records_j - from_journal_j).abs() <= 1.0e-6 * from_records_j,
        "day_total_energy_j {from_records_j:.6} J ≠ journal tiling \
         {segment_j:.6} J + boot {boot_j:.6} J"
    );
    // And the journal's own DayEnergy roll-up agrees with both.
    let rolled = entries
        .iter()
        .find_map(|e| match &e.event {
            Event::DayEnergy { energy_j, .. } => Some(*energy_j),
            _ => None,
        })
        .expect("DayEnergy present");
    assert!(
        (rolled - from_records_j).abs() <= 1.0e-6 * from_records_j,
        "DayEnergy {rolled:.6} J ≠ day_total_energy_j {from_records_j:.6} J"
    );

    // --- Phase B: flash-crowd day, ramp-correlated failures, online
    // controller — the audit must pass with the deferral books closed. ---
    eprons_obs::reset();
    let crowd = FlashCrowd::reference();
    let window = crowd.ramp_window();
    let topo = FatTree::new(cfg.fat_tree_k, cfg.link_capacity_mbps);
    let cores: Vec<usize> = topo.core_switches().iter().map(|n| n.0).collect();
    let failures =
        correlated_failures_during_ramp(window, &cores, 1, 40.0, &mut SimRng::seed_from_u64(7));
    let events: Vec<FailureEvent> = failures
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
    let online_day = DayConfig {
        epoch_minutes: 60, // fine enough that the 40-min ramp is visible
        sim_seconds: 1.0,
        search_trace: TraceScenario::FlashCrowd(crowd),
        online: Some(OnlineConfig::enabled()),
        ..day
    };
    let online_records = simulate_day_with_failures(
        &cfg,
        &strategy,
        &online_day,
        &FailureSchedule::scripted(events),
    );
    assert_eq!(online_records.len(), 24);
    assert!(
        online_records.iter().any(|r| r.deferred_mbps_min > 0.0),
        "the evening background peak must defer demand"
    );

    let entries = eprons_obs::journal().snapshot();
    assert!(
        entries
            .iter()
            .any(|e| matches!(e.event, Event::DeferralEnqueued { .. })),
        "deferral activity must journal"
    );
    let report = obsctl::audit(&entries, 1.0e-9);
    assert!(
        report.is_clean(),
        "adversarial online day must audit clean:\n{}",
        report.render()
    );
    assert!(
        report.deferred_mbps_min > 0.0,
        "the deferral conservation check must have run over real slabs"
    );
    let summary = obsctl::summarize(&entries);
    assert!(summary.contains("online controller"));

    eprons_obs::reset();
    eprons_obs::set_enabled(false);
}
