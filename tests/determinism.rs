//! Reproducibility: everything in the public API is a pure function of its
//! seed — the property every figure harness relies on.

use eprons_repro::core::controller::DayConfig;
use eprons_repro::core::{simulate_day, ClusterConfig, DayStrategy};
use eprons_repro::num::Pmf;
use eprons_repro::server::{ServiceModel, VpEngine};
use eprons_repro::sim::SimRng;
use eprons_repro::workload::{poisson_times, xapian_like_samples, QueryGenerator};

#[test]
fn workload_generators_are_seed_pure() {
    let mut a = SimRng::seed_from_u64(5);
    let mut b = SimRng::seed_from_u64(5);
    assert_eq!(
        poisson_times(&mut a, 100.0, 10.0),
        poisson_times(&mut b, 100.0, 10.0)
    );
    let mut a = SimRng::seed_from_u64(6);
    let mut b = SimRng::seed_from_u64(6);
    assert_eq!(
        xapian_like_samples(&mut a, 500),
        xapian_like_samples(&mut b, 500)
    );
    let g = QueryGenerator::new(16);
    let mut a = SimRng::seed_from_u64(7);
    let mut b = SimRng::seed_from_u64(7);
    assert_eq!(g.generate(&mut a, 50.0, 5.0), g.generate(&mut b, 50.0, 5.0));
}

#[test]
fn vp_engine_is_deterministic() {
    let service = ServiceModel::new(
        Pmf::from_masses(1.0e-3, 0.5e-3, vec![1.0, 2.0, 1.0]),
        0.0,
        2.7,
    );
    let mut e1 = VpEngine::new(service.clone());
    let mut e2 = VpEngine::new(service);
    let d1 = e1.decision(0.0, None, &[5.0e-3, 8.0e-3, 11.0e-3]);
    let d2 = e2.decision(0.0, None, &[5.0e-3, 8.0e-3, 11.0e-3]);
    for i in 0..3 {
        for f in [1.2, 1.9, 2.7] {
            assert_eq!(d1.vp(i, f), d2.vp(i, f));
        }
    }
}

#[test]
fn day_simulation_is_seed_pure() {
    let cfg = ClusterConfig::default();
    let day = DayConfig {
        epoch_minutes: 480, // 3 epochs for speed
        sim_seconds: 2.0,
        peak_utilization: 0.4,
        seed: 321,
        warm_start: true,
        ..DayConfig::default()
    };
    let a = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day);
    let b = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &day);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.breakdown.server_w, y.breakdown.server_w);
        assert_eq!(x.breakdown.network_w, y.breakdown.network_w);
        assert_eq!(x.e2e_p95_s, y.e2e_p95_s);
        assert_eq!(x.active_switches, y.active_switches);
    }
}

#[test]
fn different_seeds_give_different_days() {
    let cfg = ClusterConfig::default();
    let mk = |seed| DayConfig {
        epoch_minutes: 720, // 2 epochs
        sim_seconds: 2.0,
        peak_utilization: 0.4,
        seed,
        warm_start: true,
        ..DayConfig::default()
    };
    let a = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &mk(1));
    let b = simulate_day(&cfg, &DayStrategy::NoPowerManagement, &mk(2));
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.breakdown.server_w != y.breakdown.server_w),
        "different seeds should perturb the measurement"
    );
}
