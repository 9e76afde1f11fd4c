//! Consolidation scalability: exact MILP vs. the greedy heuristic.
//!
//! Paper anchor (§IV-B): "the computation time of the linear programming
//! model can be more than 42 min on our platform, with 3000 flows in a
//! 4-ary Fat-tree topology. In real deployment, we design the heuristic
//! algorithm … to accelerate the latency-aware traffic consolidation."
//! This bench shows the same scaling gap in miniature: MILP solve time
//! explodes with the flow count while greedy stays near-linear.
//!
//! The `mesh_k8` kernels run one consolidation pass of a k=8 controller
//! day's flow set (16,384 flows) through a `PathArena`, as every epoch of
//! the k=8 perfbench days does: greedy at `K = 2`, and the aggregation
//! router on the mildest and the tightest preset. Before each is timed,
//! its assignment through the arena, which reads every flow's candidates
//! from its access class's table, is checked path for path against the
//! bare `FatTree`'s, which has no table.

use eprons_bench::harness::Runner;
use eprons_net::consolidate::path::build_path_model;
use eprons_net::consolidate::AggregationRouter;
use eprons_net::flow::{FlowId, FlowSet};
use eprons_net::{
    ConsolidationConfig, Consolidator, FlowClass, GreedyConsolidator, PathArena,
    PathMilpConsolidator,
};
use eprons_sim::SimRng;
use eprons_topo::{AggregationLevel, FatTree, MultipathTopology};
use eprons_workload::background::background_flows;
use std::hint::black_box;

fn random_flows(ft: &FatTree, n: usize, seed: u64) -> FlowSet {
    let hosts = ft.hosts().to_vec();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut fs = FlowSet::new();
    for _ in 0..n {
        let a = rng.index(hosts.len());
        let mut b = rng.index(hosts.len());
        while b == a {
            b = rng.index(hosts.len());
        }
        let sensitive = rng.bernoulli(0.7);
        let demand = if sensitive {
            rng.uniform_range(5.0, 30.0)
        } else {
            rng.uniform_range(50.0, 250.0)
        };
        fs.add(
            hosts[a],
            hosts[b],
            demand,
            if sensitive {
                FlowClass::LatencySensitive
            } else {
                FlowClass::LatencyTolerant
            },
        );
    }
    fs
}

/// A k=8 day's flows: one background elephant per host at 20% of its
/// link, plus the all-pairs query mesh at the egress-capped
/// 300/127 Mbps per flow — 128 + 128·127 = 16,384 flows.
fn day_mesh(ft: &FatTree) -> FlowSet {
    let hosts = ft.hosts();
    let mut fs = FlowSet::new();
    let mut rng = SimRng::seed_from_u64(7000);
    for bf in background_flows(ft, &mut rng, 0.2, 1000.0) {
        fs.add(bf.src, bf.dst, bf.demand_mbps, FlowClass::LatencyTolerant);
    }
    let query_mbps = 300.0 / (hosts.len() - 1) as f64;
    for &a in hosts {
        for &b in hosts {
            if a != b {
                fs.add(a, b, query_mbps, FlowClass::LatencySensitive);
            }
        }
    }
    fs
}

/// Asserts that `c` routes `flows` through `arena` exactly as through
/// the bare `ft`, path for path.
fn assert_same_paths(
    c: &dyn Consolidator,
    arena: &dyn MultipathTopology,
    ft: &FatTree,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
    what: &str,
) {
    let feasible = "the k=8 day mesh must be feasible, or the kernel times an early error";
    let a = c.consolidate(arena, flows, cfg).expect(feasible);
    let b = c.consolidate(ft, flows, cfg).expect(feasible);
    if let Some(i) = (0..flows.len()).find(|&i| a.path(FlowId(i)) != b.path(FlowId(i))) {
        panic!("{what}: flow {i} is routed differently through the arena");
    }
}

fn main() {
    let ft = FatTree::new(4, 1000.0);
    let cfg = ConsolidationConfig::with_k(2.0);
    let mut r = Runner::from_env();
    for n in [10usize, 50, 200, 1000] {
        let flows = random_flows(&ft, n, 7);
        r.bench(&format!("greedy/flows/{n}"), || {
            GreedyConsolidator.consolidate(black_box(&ft), black_box(&flows), &cfg)
        });
    }
    for n in [3usize, 6, 10] {
        let flows = random_flows(&ft, n, 7);
        let milp = PathMilpConsolidator::default();
        r.bench(&format!("path_milp/solve/{n}"), || {
            milp.consolidate(black_box(&ft), black_box(&flows), &cfg)
        });
        r.bench(&format!("path_milp/build_model/{n}"), || {
            build_path_model(black_box(&ft), black_box(&flows), &cfg)
        });
    }

    let ft8 = FatTree::new(8, 1000.0);
    let arena = PathArena::build(&ft8);
    let mesh = day_mesh(&ft8);
    assert_eq!(mesh.len(), 16_384);
    assert_same_paths(&GreedyConsolidator, &arena, &ft8, &mesh, &cfg, "greedy");
    r.bench("greedy/mesh_k8", || {
        GreedyConsolidator.consolidate(black_box(&arena), black_box(&mesh), &cfg)
    });
    for level in [AggregationLevel::Agg0, AggregationLevel::Agg3] {
        let router = AggregationRouter::for_level(&ft8, level);
        assert_same_paths(&router, &arena, &ft8, &mesh, &cfg, &format!("{level:?}"));
        r.bench(&format!("aggregation/agg{}/mesh_k8", level.index()), || {
            router.consolidate(black_box(&arena), black_box(&mesh), &cfg)
        });
    }
}
