//! Property-based tests for consolidation and the latency model
//! (deterministic seeded cases via `eprons-proplite`).

use eprons_net::consolidate::AggregationRouter;
use eprons_net::flow::FlowSet;
use eprons_net::{
    ConsolidationConfig, Consolidator, FlowClass, GreedyConsolidator, LatencyModel,
    NetworkPowerModel,
};
use eprons_proplite::{cases, Gen};
use eprons_sim::SimRng;
use eprons_topo::{AggregationLevel, FatTree, LeafSpine, MultipathTopology};

/// A random feasible flow set: small latency-sensitive flows plus a few
/// moderate elephants on a 4-ary tree.
fn random_flows(g: &mut Gen) -> Vec<(usize, usize, f64, bool)> {
    loop {
        let n = g.usize_in(1, 23);
        let v: Vec<(usize, usize, f64, bool)> = (0..n)
            .map(|_| {
                (
                    g.usize_in(0, 15),
                    g.usize_in(0, 15),
                    g.f64_in(5.0, 80.0),
                    g.bool(),
                )
            })
            .filter(|(a, b, _, _)| a != b)
            .collect();
        if !v.is_empty() {
            return v;
        }
    }
}

fn build(ft: &FatTree, spec: &[(usize, usize, f64, bool)]) -> FlowSet {
    let hosts = ft.hosts();
    let mut fs = FlowSet::new();
    for &(a, b, d, sensitive) in spec {
        fs.add(
            hosts[a],
            hosts[b],
            d,
            if sensitive {
                FlowClass::LatencySensitive
            } else {
                FlowClass::LatencyTolerant
            },
        );
    }
    fs
}

#[test]
fn greedy_assignments_validate() {
    cases(48, |g, case| {
        let spec = random_flows(g);
        let k = g.f64_in(1.0, 3.0);
        let ft = FatTree::new(4, 1000.0);
        let flows = build(&ft, &spec);
        let cfg = ConsolidationConfig::with_k(k);
        if let Ok(a) = GreedyConsolidator.consolidate(&ft, &flows, &cfg) {
            assert!(
                a.validate(&ft, &flows, &cfg).is_ok(),
                "case {case}: {:?}",
                a.validate(&ft, &flows, &cfg)
            );
            // Power never exceeds the fully-on network.
            let pm = NetworkPowerModel::default();
            assert!(
                a.network_power_w(&ft, &pm) <= pm.full_power_w(ft.topology()) + 1e-9,
                "case {case}"
            );
        }
    });
}

#[test]
fn greedy_never_uses_more_switches_than_all_on() {
    cases(48, |g, case| {
        let spec = random_flows(g);
        let ft = FatTree::new(4, 1000.0);
        let flows = build(&ft, &spec);
        let cfg = ConsolidationConfig::with_k(1.0);
        if let Ok(a) = GreedyConsolidator.consolidate(&ft, &flows, &cfg) {
            assert!(a.active_switch_count(&ft) <= 20, "case {case}");
            // Loads on host uplinks equal the per-host demand sums.
            let mut out = [0.0; 16];
            for f in flows.flows() {
                let idx = ft.hosts().iter().position(|&h| h == f.src).unwrap();
                out[idx] += f.demand_mbps;
            }
            for (i, &h) in ft.hosts().iter().enumerate() {
                let up = ft.host_uplink(h);
                let from_dir = eprons_net::links::direction_from(ft.topology(), up, h);
                assert!(
                    (a.state().load_dir(up, from_dir) - out[i]).abs() < 1e-6,
                    "case {case}: uplink load mismatch at host {i}"
                );
            }
        }
    });
}

#[test]
fn aggregation_router_stays_on_preset() {
    cases(48, |g, case| {
        let spec = random_flows(g);
        let level_idx = g.usize_in(0, 3);
        let ft = FatTree::new(4, 1000.0);
        let flows = build(&ft, &spec);
        let level = AggregationLevel::from_index(level_idx);
        let router = AggregationRouter::for_level(&ft, level);
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = router.consolidate(&ft, &flows, &cfg).unwrap();
        let active = level.active_switches(&ft);
        for p in a.iter_paths() {
            for &n in p.interior() {
                assert!(active.contains(&n), "case {case}: {level:?} breached");
            }
        }
        assert_eq!(a.active_switch_count(&ft), active.len(), "case {case}");
    });
}

#[test]
fn latency_model_is_monotone_and_sampling_positive() {
    cases(48, |g, case| {
        let base = g.f64_in(10.0, 500.0);
        let coeff = g.f64_in(10.0, 500.0);
        let seed = g.u64();
        let m = LatencyModel {
            base_us: base,
            queue_coeff_us: coeff,
            max_utilization: 0.98,
        };
        let mut prev = 0.0;
        for i in 0..=20 {
            let u = i as f64 / 20.0;
            let v = m.per_hop_mean_us(u);
            assert!(v >= prev, "case {case}");
            prev = v;
        }
        let mut rng = SimRng::seed_from_u64(seed);
        for i in 0..16 {
            let u = i as f64 / 16.0;
            let s = m.sample_path_latency_us(&mut rng, &[u, u / 2.0]);
            assert!(
                s >= 2.0 * base - 1e-9,
                "case {case}: below deterministic floor"
            );
        }
    });
}

#[test]
fn flow_scaling_only_touches_sensitive_class() {
    cases(48, |g, case| {
        let d = g.f64_in(1.0, 500.0);
        let k = g.f64_in(1.0, 5.0);
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        let a = fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            d,
            FlowClass::LatencySensitive,
        );
        let b = fs.add(
            ft.host(0, 0, 1),
            ft.host(1, 0, 1),
            d,
            FlowClass::LatencyTolerant,
        );
        assert!(
            (fs.get(a).scaled_demand(k) - d * k).abs() < 1e-9,
            "case {case}"
        );
        assert!((fs.get(b).scaled_demand(k) - d).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn leafspine_candidate_paths_are_consistent() {
    cases(32, |g, case| {
        let leaves = g.usize_in(2, 4);
        let spines = g.usize_in(1, 4);
        let hpl = g.usize_in(1, 3);
        let sa = g.usize_in(0, 63);
        let sb = g.usize_in(0, 63);
        let ls = LeafSpine::new(leaves, spines, hpl, 1000.0);
        let hosts = ls.host_list();
        let a = hosts[sa % hosts.len()];
        let b = hosts[sb % hosts.len()];
        if a == b {
            return;
        }
        let paths = ls.candidate_paths(a, b);
        let expected = if ls.host_leaf(a) == ls.host_leaf(b) {
            1
        } else {
            spines
        };
        assert_eq!(paths.len(), expected, "case {case}");
        for p in &paths {
            assert!(p.is_consistent(ls.topology()), "case {case}");
            assert_eq!(p.src(), a, "case {case}");
            assert_eq!(p.dst(), b, "case {case}");
        }
    });
}

#[test]
fn greedy_works_on_random_leafspine_instances() {
    cases(32, |g, case| {
        let seed = g.u64() % 1000;
        let n_flows = g.usize_in(1, 9);
        let ls = LeafSpine::new(3, 2, 3, 1000.0);
        let hosts = ls.host_list().to_vec();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut fs = FlowSet::new();
        for _ in 0..n_flows {
            let a = rng.index(hosts.len());
            let mut b = rng.index(hosts.len());
            while b == a {
                b = rng.index(hosts.len());
            }
            fs.add(
                hosts[a],
                hosts[b],
                rng.uniform_range(5.0, 100.0),
                FlowClass::LatencySensitive,
            );
        }
        let cfg = ConsolidationConfig::with_k(1.5);
        if let Ok(a) = GreedyConsolidator.consolidate(&ls, &fs, &cfg) {
            assert!(a.validate(&ls, &fs, &cfg).is_ok(), "case {case}");
        }
    });
}
