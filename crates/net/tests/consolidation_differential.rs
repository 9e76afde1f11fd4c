//! Differential tests: both per-flow selection loops stop scanning
//! candidates early, and must still choose exactly what a full scan over
//! `candidate_paths` chooses — the same path per flow, the same error on
//! an infeasible set.
//!
//! The references below are written from the selection rules alone:
//! greedy minimizes `(new_switches, idx)` over fitting candidates, and the
//! aggregation router keeps the first candidate unless a later one lowers
//! the bottleneck reservation by more than 1e-9.

use std::cell::Cell;
use std::ops::ControlFlow;

use eprons_net::consolidate::AggregationRouter;
use eprons_net::flow::{FlowId, FlowSet};
use eprons_net::links::direction_from;
use eprons_net::{
    ConsolidationConfig, ConsolidationError, Consolidator, FlowClass, GreedyConsolidator, PathArena,
};
use eprons_sim::SimRng;
use eprons_topo::{
    AggregationLevel, FatTree, LeafSpine, LinkId, MultipathTopology, NodeId, NodeKind, Path,
    PathRef, Topology,
};

type Outcome = Result<Vec<Path>, ConsolidationError>;

/// Full-scan greedy: largest scaled demand first, then the fitting
/// candidate with the fewest new switches, lowest index on ties.
fn reference_greedy(
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
) -> Outcome {
    let topo = net.topology();
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        let da = flows.flows()[a].scaled_demand(cfg.scale_k);
        let db = flows.flows()[b].scaled_demand(cfg.scale_k);
        db.partial_cmp(&da).unwrap().then(a.cmp(&b))
    });
    let mut reserved = vec![0.0; topo.num_links() * 2];
    let mut on = vec![false; topo.num_nodes()];
    let mut chosen: Vec<Option<Path>> = vec![None; flows.len()];
    for &fi in &order {
        let flow = &flows.flows()[fi];
        let demand = flow.scaled_demand(cfg.scale_k);
        let mut best: Option<(usize, usize)> = None;
        let cands = net.candidate_paths(flow.src, flow.dst);
        for (idx, p) in cands.iter().enumerate() {
            if p.nodes.iter().any(|n| cfg.excluded.contains(n)) {
                continue;
            }
            let fits = p.hops().all(|(from, _, l)| {
                let dir = direction_from(topo, l, from);
                let usable = cfg.usable_capacity(topo.link(l).capacity_mbps);
                reserved[l.0 * 2 + dir] + demand <= usable + 1e-9
            });
            if !fits {
                continue;
            }
            let new = p.interior().iter().filter(|n| !on[n.0]).count();
            if best.is_none_or(|b| (new, idx) < b) {
                best = Some((new, idx));
            }
        }
        let Some((_, idx)) = best else {
            return Err(ConsolidationError::NoFeasiblePath { flow: fi });
        };
        let p = cands[idx].clone();
        for (from, _, l) in p.hops() {
            reserved[l.0 * 2 + direction_from(topo, l, from)] += demand;
        }
        for n in &p.nodes {
            on[n.0] = true;
        }
        chosen[fi] = Some(p);
    }
    Ok(chosen.into_iter().map(Option::unwrap).collect())
}

/// Full-scan aggregation routing on a fixed active switch set.
fn reference_aggregation(
    net: &dyn MultipathTopology,
    active: &[NodeId],
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
) -> Outcome {
    let topo = net.topology();
    let allowed = |n: NodeId| {
        !topo.node(n).kind.is_switch() || (active.contains(&n) && !cfg.excluded.contains(&n))
    };
    let mut reserved = vec![0.0; topo.num_links() * 2];
    let mut chosen = Vec::new();
    for flow in flows.flows() {
        let demand = flow.scaled_demand(cfg.scale_k);
        let mut best: Option<(f64, usize)> = None;
        let cands = net.candidate_paths(flow.src, flow.dst);
        for (idx, p) in cands.iter().enumerate() {
            if !p.nodes.iter().all(|&n| allowed(n)) {
                continue;
            }
            let bottleneck = p
                .hops()
                .map(|(from, _, l)| reserved[l.0 * 2 + direction_from(topo, l, from)] + demand)
                .fold(0.0, f64::max);
            if best.is_none_or(|(b, _)| bottleneck < b - 1e-9) {
                best = Some((bottleneck, idx));
            }
        }
        let Some((_, idx)) = best else {
            return Err(ConsolidationError::NoFeasiblePath { flow: flow.id.0 });
        };
        let p = cands[idx].clone();
        for (from, _, l) in p.hops() {
            reserved[l.0 * 2 + direction_from(topo, l, from)] += demand;
        }
        chosen.push(p);
    }
    Ok(chosen)
}

fn run(
    c: &dyn Consolidator,
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
) -> Outcome {
    c.consolidate(net, flows, cfg).map(|a| {
        (0..flows.len())
            .map(|i| a.path(FlowId(i)).to_path())
            .collect()
    })
}

/// Demand regimes: `Spread` makes some sets infeasible for greedy,
/// `Ties` draws sums that collide within 1e-9 (0.1 + 0.2 vs 0.3, and
/// sub-1e-9 offsets) so the router's tolerance decides the winner.
#[derive(Clone, Copy, Debug)]
enum Demands {
    Spread,
    Ties,
}

fn random_flows(hosts: &[NodeId], n: usize, demands: Demands, rng: &mut SimRng) -> FlowSet {
    let mut fs = FlowSet::new();
    for _ in 0..n {
        let a = rng.index(hosts.len());
        let mut b = rng.index(hosts.len());
        while b == a {
            b = rng.index(hosts.len());
        }
        let demand = match demands {
            Demands::Spread => {
                if rng.bernoulli(0.7) {
                    rng.uniform_range(5.0, 60.0)
                } else {
                    rng.uniform_range(100.0, 400.0)
                }
            }
            Demands::Ties => [0.1, 0.2, 0.3, 10.0, 10.0 + 4e-10, 10.0 - 3e-10][rng.index(6)],
        };
        let class = if rng.bernoulli(0.5) {
            FlowClass::LatencySensitive
        } else {
            FlowClass::LatencyTolerant
        };
        fs.add(hosts[a], hosts[b], demand, class);
    }
    fs
}

/// Configs to try: `K` ∈ {1, 2, 3}, each without and with a random mask
/// of one to three switches.
fn configs(topo: &Topology, rng: &mut SimRng) -> Vec<ConsolidationConfig> {
    let sw = topo.switches();
    let mut out = Vec::new();
    for k in [1.0, 2.0, 3.0] {
        out.push(ConsolidationConfig::with_k(k));
        let masked: Vec<NodeId> = (0..1 + rng.index(3))
            .map(|_| sw[rng.index(sw.len())])
            .collect();
        out.push(ConsolidationConfig::with_k(k).with_excluded(masked));
    }
    out
}

/// Checks both consolidators against their references on `net` under
/// `cfg`, with `presets` as the router's active sets; returns how many
/// of the references were infeasible, (greedy, aggregation).
fn compare(
    net: &dyn MultipathTopology,
    presets: &[Vec<NodeId>],
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
    what: &str,
) -> (usize, usize) {
    let mut infeasible = (0, 0);
    let want = reference_greedy(net, flows, cfg);
    infeasible.0 += want.is_err() as usize;
    assert_eq!(
        run(&GreedyConsolidator, net, flows, cfg),
        want,
        "greedy {what} K={} mask={:?}",
        cfg.scale_k,
        cfg.excluded
    );
    for active in presets {
        let want = reference_aggregation(net, active, flows, cfg);
        infeasible.1 += want.is_err() as usize;
        let router = AggregationRouter {
            active: active.clone(),
        };
        assert_eq!(
            run(&router, net, flows, cfg),
            want,
            "aggregation {what} K={} mask={:?} active={}",
            cfg.scale_k,
            cfg.excluded,
            active.len()
        );
    }
    infeasible
}

/// [`compare`] under every config [`configs`] draws.
fn check(
    net: &dyn MultipathTopology,
    presets: &[Vec<NodeId>],
    flows: &FlowSet,
    rng: &mut SimRng,
    what: &str,
) -> (usize, usize) {
    let mut infeasible = (0, 0);
    for cfg in configs(net.topology(), rng) {
        let (g, a) = compare(net, presets, flows, &cfg, what);
        infeasible = (infeasible.0 + g, infeasible.1 + a);
    }
    infeasible
}

fn fat_tree_presets(ft: &FatTree) -> Vec<Vec<NodeId>> {
    AggregationLevel::ALL
        .iter()
        .map(|l| l.active_switches(ft))
        .collect()
}

#[test]
fn fat_trees_match_full_scan_direct_and_through_the_arena() {
    let mut rng = SimRng::seed_from_u64(18);
    let mut infeasible = (0, 0);
    for (k, sets, n) in [(4usize, 10usize, 48usize), (8, 3, 160)] {
        let ft = FatTree::new(k, 1000.0);
        let arena = PathArena::build(&ft);
        assert!(arena.is_shared());
        let presets = fat_tree_presets(&ft);
        for set in 0..sets {
            for demands in [Demands::Spread, Demands::Ties] {
                let flows = random_flows(ft.hosts(), n, demands, &mut rng);
                let what = format!("k={k} set={set} {demands:?}");
                let a = check(&ft, &presets, &flows, &mut rng, &format!("{what} direct"));
                let b = check(&arena, &presets, &flows, &mut rng, &format!("{what} arena"));
                infeasible = (infeasible.0 + a.0 + b.0, infeasible.1 + a.1 + b.1);
            }
        }
    }
    // The sets exercise the error paths too, not just placements.
    assert!(infeasible.0 > 0, "no infeasible greedy set was drawn");
    assert!(infeasible.1 > 0, "no infeasible aggregation set was drawn");
}

#[test]
fn leaf_spine_matches_full_scan() {
    let mut rng = SimRng::seed_from_u64(19);
    let ls = LeafSpine::new(4, 4, 4, 1000.0);
    let arena = PathArena::build(&ls);
    let sw = ls.topology().switches();
    // Every switch on, and every leaf with half the spines.
    let leaves: Vec<NodeId> = sw
        .iter()
        .copied()
        .filter(|&n| ls.topology().node(n).kind == NodeKind::EdgeSwitch)
        .collect();
    let mut half = leaves.clone();
    half.extend(
        sw.iter()
            .copied()
            .filter(|n| !leaves.contains(n))
            .step_by(2),
    );
    let presets = vec![sw, half];
    for set in 0..6 {
        for demands in [Demands::Spread, Demands::Ties] {
            let flows = random_flows(ls.host_list(), 40, demands, &mut rng);
            check(
                &ls,
                &presets,
                &flows,
                &mut rng,
                &format!("leaf-spine set={set} {demands:?} direct"),
            );
            check(
                &arena,
                &presets,
                &flows,
                &mut rng,
                &format!("leaf-spine set={set} {demands:?} arena"),
            );
        }
    }
}

/// Many flows in few access classes: every flow runs between a host
/// under one of three (source edge, destination edge) pairs, with
/// demands drawn from three values so equal-demand runs repeat within a
/// class. Greedy's dead-prefix cursor and the router's allowed lists are
/// per-class state; these sets reuse them across dozens of flows.
fn class_heavy_flows(ft: &FatTree, n: usize, rng: &mut SimRng) -> FlowSet {
    let half = ft.k() / 2;
    let pods = ft.num_pods();
    let edges: Vec<((usize, usize), (usize, usize))> = (0..3)
        .map(|_| {
            let sp = rng.index(pods);
            let mut dp = rng.index(pods);
            if rng.bernoulli(0.8) {
                while dp == sp {
                    dp = rng.index(pods);
                }
            }
            ((sp, rng.index(half)), (dp, rng.index(half)))
        })
        .collect();
    let mut fs = FlowSet::new();
    while fs.len() < n {
        let ((sp, se), (dp, de)) = edges[rng.index(edges.len())];
        let src = ft.host(sp, se, rng.index(half));
        let dst = ft.host(dp, de, rng.index(half));
        if src == dst {
            continue;
        }
        let demand = [40.0, 40.0, 90.0, 150.0][rng.index(4)];
        let class = if rng.bernoulli(0.5) {
            FlowClass::LatencySensitive
        } else {
            FlowClass::LatencyTolerant
        };
        fs.add(src, dst, demand, class);
    }
    fs
}

#[test]
fn greedy_cursor_resets_when_the_demand_drops() {
    let ft = FatTree::new(4, 1000.0);
    let arena = PathArena::build(&ft);
    let (a0, a1) = (ft.host(0, 0, 0), ft.host(0, 0, 1));
    let (b0, b1) = (ft.host(1, 0, 0), ft.host(1, 0, 1));
    assert_eq!(arena.access_class(a0, b0), arena.access_class(a1, b1));
    let mut fs = FlowSet::new();
    // Four 400 Mbps flows of one class: two fill candidate 0's
    // edge→agg link (candidate 1 shares it), so the next two fail
    // candidates 0 and 1 and move to candidate 2.
    for (s, d) in [(a0, b0), (a1, b1), (a0, b1), (a1, b0)] {
        fs.add(s, d, 400.0, FlowClass::LatencyTolerant);
    }
    // A smaller flow of the same class fits candidate 0 again.
    fs.add(a0, b0, 100.0, FlowClass::LatencyTolerant);
    let cfg = ConsolidationConfig::with_k(1.0);
    let want = reference_greedy(&arena, &fs, &cfg).unwrap();
    assert_eq!(
        run(&GreedyConsolidator, &arena, &fs, &cfg),
        Ok(want.clone())
    );
    assert_eq!(
        want[2],
        arena.candidate_paths(a0, b1)[2],
        "dead prefix skipped"
    );
    assert_eq!(
        want[4],
        arena.candidate_paths(a0, b0)[0],
        "the smaller demand starts from candidate 0"
    );
    compare(&arena, &fat_tree_presets(&ft), &fs, &cfg, "cursor reset");
}

#[test]
fn a_mask_that_kills_leading_candidates_matches_full_scan() {
    let mut rng = SimRng::seed_from_u64(21);
    for k in [4usize, 8] {
        let ft = FatTree::new(k, 1000.0);
        let arena = PathArena::build(&ft);
        let presets = fat_tree_presets(&ft);
        for set in 0..4 {
            let flows = class_heavy_flows(&ft, 24 * k, &mut rng);
            let src_pod = ft.host_pod(flows.flows()[0].src);
            // Candidates through aggregation 0 of the first flow's source
            // pod come first in its class; kill them, alone and with a
            // core of the next group.
            for mask in [
                vec![ft.agg(src_pod, 0)],
                vec![ft.agg(src_pod, 0), ft.core(1, 0)],
            ] {
                for kk in [1.0, 2.0, 3.0] {
                    let cfg = ConsolidationConfig::with_k(kk).with_excluded(mask.clone());
                    compare(&arena, &presets, &flows, &cfg, &format!("k={k} set={set}"));
                }
            }
        }
    }
}

#[test]
fn every_k8_preset_matches_full_scan_on_class_heavy_sets() {
    let mut rng = SimRng::seed_from_u64(22);
    let ft = FatTree::new(8, 1000.0);
    let arena = PathArena::build(&ft);
    let presets = fat_tree_presets(&ft);
    let mut infeasible = (0, 0);
    for set in 0..4 {
        let flows = class_heavy_flows(&ft, 240, &mut rng);
        let what = format!("k=8 set={set}");
        let (g, a) = check(&arena, &presets, &flows, &mut rng, &what);
        infeasible = (infeasible.0 + g, infeasible.1 + a);
    }
    // Dense classes saturate: the early host-link exit is exercised too.
    assert!(infeasible.0 > 0, "no infeasible greedy set was drawn");
}

/// Hosts `a`, `b` dual-homed to switches `s1` and `s2`, host `c`
/// single-homed to `s1`: the aggregation bound holds for no pair that
/// involves `a` or `b`, and the arena takes its per-pair store.
#[derive(Debug)]
struct DualHomed {
    topo: Topology,
    hosts: Vec<NodeId>,
}

impl DualHomed {
    fn new() -> Self {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Host, "a");
        let b = topo.add_node(NodeKind::Host, "b");
        let c = topo.add_node(NodeKind::Host, "c");
        let s1 = topo.add_node(NodeKind::EdgeSwitch, "s1");
        let s2 = topo.add_node(NodeKind::EdgeSwitch, "s2");
        topo.add_link(a, s1, 1000.0);
        topo.add_link(a, s2, 1000.0);
        topo.add_link(b, s1, 1000.0);
        topo.add_link(b, s2, 1000.0);
        topo.add_link(c, s1, 1000.0);
        DualHomed {
            topo,
            hosts: vec![a, b, c],
        }
    }
}

impl MultipathTopology for DualHomed {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn host_list(&self) -> &[NodeId] {
        &self.hosts
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        assert_ne!(src, dst);
        self.topo
            .switches()
            .into_iter()
            .filter_map(|sw| {
                Some(Path {
                    nodes: vec![src, sw, dst],
                    links: vec![
                        self.topo.link_between(src, sw)?,
                        self.topo.link_between(sw, dst)?,
                    ],
                })
            })
            .collect()
    }
}

#[test]
fn dual_homed_fabric_keeps_the_full_scan() {
    let fabric = DualHomed::new();
    let arena = PathArena::build(&fabric);
    assert!(!arena.is_shared());
    let presets = vec![fabric.topo.switches()];
    // Two equal a→b flows: the first takes s1, and the second must move
    // to s2 even though a's first link already carries the first flow.
    let (a, b) = (fabric.hosts[0], fabric.hosts[1]);
    let mut pair = FlowSet::new();
    pair.add(a, b, 100.0, FlowClass::LatencyTolerant);
    pair.add(a, b, 100.0, FlowClass::LatencyTolerant);
    let cfg = ConsolidationConfig::with_k(1.0);
    let want = reference_aggregation(&fabric, &presets[0], &pair, &cfg).unwrap();
    assert_ne!(want[0].nodes[1], want[1].nodes[1]);
    let router = AggregationRouter {
        active: presets[0].clone(),
    };
    for net in [&fabric as &dyn MultipathTopology, &arena] {
        assert_eq!(run(&router, net, &pair, &cfg), Ok(want.clone()));
    }
    let mut rng = SimRng::seed_from_u64(20);
    for set in 0..12 {
        for demands in [Demands::Spread, Demands::Ties] {
            let flows = random_flows(&fabric.hosts, 12, demands, &mut rng);
            check(
                &fabric,
                &presets,
                &flows,
                &mut rng,
                &format!("dual-homed set={set} {demands:?} direct"),
            );
            check(
                &arena,
                &presets,
                &flows,
                &mut rng,
                &format!("dual-homed set={set} {demands:?} arena"),
            );
        }
    }
}

/// Forwards to a topology and counts the candidates its visitor hands
/// out, so a test can see that a scan stopped early.
struct Counting<'a> {
    inner: &'a dyn MultipathTopology,
    visited: Cell<usize>,
}

impl MultipathTopology for Counting<'_> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn host_list(&self) -> &[NodeId] {
        self.inner.host_list()
    }

    fn candidate_paths(&self, src: NodeId, dst: NodeId) -> Vec<Path> {
        self.inner.candidate_paths(src, dst)
    }

    fn for_each_candidate(
        &self,
        src: NodeId,
        dst: NodeId,
        f: &mut dyn FnMut(PathRef<'_>) -> ControlFlow<()>,
    ) {
        self.inner.for_each_candidate(src, dst, &mut |p| {
            self.visited.set(self.visited.get() + 1);
            f(p)
        })
    }

    fn nth_candidate_into(
        &self,
        src: NodeId,
        dst: NodeId,
        idx: usize,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) -> bool {
        self.inner.nth_candidate_into(src, dst, idx, nodes, links)
    }
}

#[test]
fn both_scans_stop_before_the_last_candidate_on_a_mesh() {
    let ft = FatTree::new(4, 1000.0);
    let arena = PathArena::build(&ft);
    let hosts = ft.hosts();
    let mut mesh = FlowSet::new();
    for &s in hosts {
        for &d in hosts {
            if s != d {
                mesh.add(s, d, 1.0, FlowClass::LatencySensitive);
            }
        }
    }
    let total: usize = mesh
        .flows()
        .iter()
        .map(|f| arena.candidate_paths(f.src, f.dst).len())
        .sum();
    let cfg = ConsolidationConfig::with_k(2.0);
    let net = Counting {
        inner: &arena,
        visited: Cell::new(0),
    };
    GreedyConsolidator.consolidate(&net, &mesh, &cfg).unwrap();
    let greedy = net.visited.replace(0);
    AggregationRouter::for_level(&ft, AggregationLevel::Agg0)
        .consolidate(&net, &mesh, &cfg)
        .unwrap();
    let aggregation = net.visited.get();
    assert!(greedy < total / 2, "greedy visited {greedy} of {total}");
    assert!(
        aggregation < total,
        "aggregation visited {aggregation} of {total}"
    );
}
