//! Asymptotic curves over fat-tree size, and the pod-decomposition
//! head-to-head.
//!
//! * `scale_ladder/*` — four curves, bottom up: topology construction
//!   (`build`), candidate path materialization (`arena`), one greedy
//!   consolidation pass over an all-hosts antipodal flow set
//!   (`consolidate`), and one end-to-end joint optimizer epoch
//!   (`optimize`). The optimizer keeps the default `Auto` strategy, so
//!   k < 12 runs the monolithic consolidator and k >= 12 the
//!   pod-decomposed one, as the controller would at each size.
//! * `pod_decomp/optimize/{monolithic,decomposed}/k*` — the same epoch
//!   with the strategy pinned each way, so their ratio is the
//!   decomposition's win and nothing else.
//!
//! `EPRONS_QUICK=1` stops at k=8 (pod pair at k=8). A full run climbs to
//! k=24 for build, consolidate and optimize, k=16 for the arena, and
//! pins the pod pair at k=16. Points at k >= 16 and the pod pair are
//! timed once: a second iteration would double the wall clock for a
//! second point on a curve whose shape one point per k already fixes.

use eprons_bench::harness::{format_secs, Runner};
use eprons_bench::{quick, BASE_SEED};
use eprons_core::{
    optimize_total_power, ClusterConfig, ClusterRun, ConsolidateStrategy, ConsolidationSpec,
    ServerScheme,
};
use eprons_net::flow::FlowSet;
use eprons_net::{ConsolidationConfig, Consolidator, FlowClass, GreedyConsolidator, PathArena};
use eprons_topo::FatTree;
use std::hint::black_box;

/// One 50 Mbps flow per host to its antipodal peer, classes alternating:
/// every edge uplink carries traffic, so consolidation cannot shortcut,
/// yet `K = 2`-scaled demands stay far under capacity at every k.
fn antipodal_flows(ft: &FatTree) -> FlowSet {
    let hosts = ft.hosts();
    let n = hosts.len();
    let mut fs = FlowSet::new();
    for i in 0..n {
        let class = if i % 2 == 0 {
            FlowClass::LatencySensitive
        } else {
            FlowClass::LatencyTolerant
        };
        fs.add(hosts[i], hosts[(i + n / 2) % n], 50.0, class);
    }
    fs
}

/// A k-ary epoch config. The all-pairs query mesh grows as n² against a
/// fixed uplink budget, so the per-flow rate holds total egress per host
/// at 300 Mbps: the same epoch shape at every k, feasible at all of them.
fn epoch_cfg(k: usize, strategy: ConsolidateStrategy) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        fat_tree_k: k,
        consolidate_strategy: strategy,
        ..ClusterConfig::default()
    };
    let n = cfg.num_servers() as f64;
    cfg.query_flow_mbps = (300.0 / (n - 1.0)).min(10.0);
    cfg
}

const EPOCH: ClusterRun = ClusterRun {
    scheme: ServerScheme::EpronsServer,
    consolidation: ConsolidationSpec::AllOn,
    server_utilization: 0.3,
    background_util: 0.0,
    duration_s: 0.02,
    warmup_s: 0.0,
    seed: BASE_SEED,
};

fn main() {
    let mut r = Runner::from_env();
    let mut once = Runner::new(0.0, 1);
    let ladder_ks: &[usize] = if quick() {
        &[4, 8]
    } else {
        &[4, 8, 16, 20, 24]
    };
    let greedy_cfg = ConsolidationConfig::with_k(2.0);
    for &k in ladder_ks {
        r.bench(&format!("scale_ladder/build/k{k}"), || {
            FatTree::new(black_box(k), 1000.0).hosts().len()
        });
        let runner = if k >= 16 { &mut once } else { &mut r };
        let ft = FatTree::new(k, 1000.0);
        if k <= 16 {
            runner.bench(&format!("scale_ladder/arena/k{k}"), || {
                PathArena::build(black_box(&ft)).arena_bytes()
            });
        }
        let flows = antipodal_flows(&ft);
        runner.bench(&format!("scale_ladder/consolidate/k{k}"), || {
            GreedyConsolidator
                .consolidate(black_box(&ft), black_box(&flows), &greedy_cfg)
                .unwrap()
        });
    }
    let candidates = [ConsolidationSpec::GreedyK(2.0)];
    for &k in ladder_ks {
        let cfg = epoch_cfg(k, ConsolidateStrategy::Auto);
        let runner = if k >= 16 { &mut once } else { &mut r };
        runner.bench(&format!("scale_ladder/optimize/k{k}"), || {
            optimize_total_power(black_box(&cfg), &EPOCH, &candidates)
                .unwrap()
                .result
                .breakdown
                .total_w()
        });
    }

    let pd_k: usize = if quick() { 8 } else { 16 };
    let mut pod_s = Vec::new();
    for (name, strategy) in [
        ("monolithic", ConsolidateStrategy::Monolithic),
        ("decomposed", ConsolidateStrategy::PodDecomposed),
    ] {
        let cfg = epoch_cfg(pd_k, strategy);
        let s = once.bench(&format!("pod_decomp/optimize/{name}/k{pd_k}"), || {
            optimize_total_power(black_box(&cfg), &EPOCH, &candidates)
                .unwrap()
                .result
                .breakdown
                .total_w()
        });
        pod_s.push(s.min_s);
    }
    println!(
        "pod_decomp k{pd_k}: decomposed/monolithic {:.2}x ({} vs {})",
        pod_s[0] / pod_s[1],
        format_secs(pod_s[1]),
        format_secs(pod_s[0])
    );
}
