//! Property-based tests for the VP engine, policies, and core simulator
//! (deterministic seeded cases via `eprons-proplite`).

use eprons_num::Pmf;
use eprons_proplite::{cases, Gen};
use eprons_server::policy::DvfsPolicy;
use eprons_server::{
    simulate_core, ArrivalSpec, AvgVpPolicy, CoreSimConfig, FreqLadder, MaxFreqPolicy, MaxVpPolicy,
    ServiceModel, VpEngine,
};

fn random_service(g: &mut Gen) -> ServiceModel {
    let len = g.usize_in(2, 23);
    let mass = g.vec_f64(len, 0.01, 1.0);
    let origin = g.f64_in(0.5e-3, 3.0e-3); // origin of work values (Gc): 0.5–3 ms at f_max
    let fixed = g.f64_in(0.0, 1.0e-3); // fixed seconds
    let step = origin / 4.0;
    ServiceModel::new(Pmf::from_masses(origin, step, mass), fixed, 2.7)
}

fn budgets(g: &mut Gen) -> Vec<f64> {
    let len = g.usize_in(1, 5);
    g.vec_f64(len, 1.0e-3, 40.0e-3)
}

#[test]
fn vp_is_monotone_in_frequency() {
    cases(48, |g, case| {
        let service = random_service(g);
        let deadlines = budgets(g);
        let mut engine = VpEngine::new(service);
        let d = engine.decision(0.0, None, &deadlines);
        for i in 0..d.len() {
            let mut prev = f64::INFINITY;
            for step in 0..=15 {
                let f = 1.2 + 0.1 * step as f64;
                let v = d.vp(i, f);
                assert!((0.0..=1.0).contains(&v), "case {case}");
                assert!(v <= prev + 1e-9, "case {case}: VP rose with frequency");
                prev = v;
            }
        }
    });
}

#[test]
fn vp_is_monotone_in_deadline() {
    cases(48, |g, case| {
        let service = random_service(g);
        let f_idx = g.usize_in(0, 15);
        let mut engine = VpEngine::new(service);
        let f = 1.2 + 0.1 * f_idx as f64;
        let mut prev = f64::INFINITY;
        for ms in [2.0, 5.0, 10.0, 20.0, 40.0, 80.0] {
            let d = engine.decision(0.0, None, &[ms * 1.0e-3]);
            let v = d.vp(0, f);
            assert!(
                v <= prev + 1e-9,
                "case {case}: VP rose with a looser deadline"
            );
            prev = v;
        }
    });
}

#[test]
fn avg_vp_bounded_by_max_vp() {
    cases(48, |g, case| {
        let service = random_service(g);
        let b = budgets(g);
        let mut engine = VpEngine::new(service);
        let d = engine.decision(0.0, None, &b);
        for step in 0..=15 {
            let f = 1.2 + 0.1 * step as f64;
            assert!(d.avg_vp(f) <= d.max_vp(f) + 1e-12, "case {case}");
        }
    });
}

#[test]
fn eprons_frequency_never_exceeds_rubik() {
    cases(48, |g, case| {
        let service = random_service(g);
        let b = budgets(g);
        let mut engine = VpEngine::new(service);
        let ladder = FreqLadder::paper_default();
        let d = engine.decision(0.0, None, &b);
        let fe = AvgVpPolicy::eprons().choose_frequency(0.0, &d, &ladder);
        let fr = MaxVpPolicy::rubik().choose_frequency(0.0, &d, &ladder);
        assert!(
            fe <= fr + 1e-12,
            "case {case}: EPRONS {fe} above Rubik {fr}"
        );
    });
}

#[test]
fn coresim_conserves_requests_and_orders_time() {
    cases(48, |g, case| {
        let service = random_service(g);
        let n = g.usize_in(1, 59);
        let gaps = g.vec_f64(n, 0.1e-3, 30.0e-3);
        let budget = g.f64_in(5.0e-3, 50.0e-3);
        let seed = g.u64();
        let mut t = 0.0;
        let arrivals: Vec<ArrivalSpec> = gaps
            .iter()
            .enumerate()
            .map(|(i, &gap)| {
                t += gap;
                ArrivalSpec {
                    arrival_s: t,
                    budget_s: budget,
                    tag: i as u64,
                }
            })
            .collect();
        let mut engine = VpEngine::new(service);
        let mut policy = AvgVpPolicy::eprons();
        let r = simulate_core(
            &mut policy,
            &mut engine,
            &arrivals,
            &CoreSimConfig::default(),
            seed,
        );
        assert_eq!(r.latencies.len(), arrivals.len(), "case {case}");
        // Every tag completes exactly once.
        let mut tags = r.tags.clone();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), arrivals.len(), "case {case}");
        // Latencies are positive and at least the fixed time.
        for &l in &r.latencies {
            assert!(l > 0.0, "case {case}");
        }
        // Busy time is bounded by the horizon.
        assert!(r.busy_s <= r.sim_end_s + 1e-9, "case {case}");
    });
}

#[test]
fn energy_within_physical_bounds() {
    cases(48, |g, case| {
        let service = random_service(g);
        let n = g.usize_in(1, 39);
        let seed = g.u64();
        let arrivals: Vec<ArrivalSpec> = (0..n)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64 * 5.0e-3,
                budget_s: 25.0e-3,
                tag: i as u64,
            })
            .collect();
        let cfg = CoreSimConfig::default();
        let mut engine = VpEngine::new(service);
        let mut policy = MaxFreqPolicy;
        let r = simulate_core(&mut policy, &mut engine, &arrivals, &cfg, seed);
        let idle = cfg.power.core_idle_w();
        let busy_max = cfg.power.core_busy_w(cfg.ladder.max());
        let avg = r.avg_core_power_w();
        assert!(avg >= idle - 1e-9, "case {case}: below idle floor: {avg}");
        assert!(
            avg <= busy_max + 1e-9,
            "case {case}: above busy ceiling: {avg}"
        );
    });
}

#[test]
fn slower_policies_use_less_energy_more_latency() {
    cases(48, |g, case| {
        let service = random_service(g);
        let seed = g.u64();
        // A fixed sparse trace with roomy budgets: any VP-based policy can
        // slow down, so its energy must not exceed MaxFreq's.
        let arrivals: Vec<ArrivalSpec> = (0..30)
            .map(|i| ArrivalSpec {
                arrival_s: i as f64 * 0.05,
                budget_s: 60.0e-3,
                tag: i,
            })
            .collect();
        let cfg = CoreSimConfig::default();
        let run = |p: &mut dyn DvfsPolicy, svc: &ServiceModel| {
            let mut engine = VpEngine::new(svc.clone());
            simulate_core(p, &mut engine, &arrivals, &cfg, seed)
        };
        let fast = run(&mut MaxFreqPolicy, &service);
        let slow = run(&mut AvgVpPolicy::eprons(), &service);
        assert!(slow.energy_j <= fast.energy_j + 1e-9, "case {case}");
        assert!(
            slow.mean_latency().unwrap() >= fast.mean_latency().unwrap() - 1e-9,
            "case {case}"
        );
    });
}
