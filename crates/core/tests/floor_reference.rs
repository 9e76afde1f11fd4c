//! The optimizer's candidate power floor against a reference written
//! from its definition alone.
//!
//! `candidate_power_floor_w` walks each access class once and counts
//! through flag vectors. The reference below intersects every flow's
//! candidates in hash sets (one walk per distinct host pair, or per
//! access pair on the shared-segment store) — the bound's earlier
//! implementation. Both must return the same `f64`, bit for bit, for
//! every candidate kind and failure mask: the pruned optimizer compares
//! these bounds against measured power, so a changed bit could change
//! which candidates it skips.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use eprons_core::scenario::{ScenarioContext, ScenarioSpec};
use eprons_core::{candidate_power_floor_w, ClusterConfig, ConsolidationSpec, ServerScheme};
use eprons_server::{AvgVpPolicy, DvfsPolicy};
use eprons_topo::{AggregationLevel, FatTree, LinkId, MultipathTopology, NodeId};

const SCHEME: ServerScheme = ServerScheme::EpronsServer;

/// The hash-set floor: server idle floor plus the network power of the
/// preset's exact active set, or of the elements every candidate of
/// some flow carries.
fn reference_floor(ctx: &ScenarioContext, spec: ConsolidationSpec, excluded: &[NodeId]) -> f64 {
    let cfg = ctx.cfg();
    let arena = ctx.arena();
    let ft: &FatTree = arena.inner();
    let topo = ft.topology();
    let masked: HashSet<NodeId> = excluded.iter().copied().collect();
    let core_floor = AvgVpPolicy::eprons()
        .idle_power_w()
        .unwrap_or_else(|| cfg.cpu.core_idle_w());
    let server_floor = ctx.num_servers() as f64 * cfg.cpu.server_w(core_floor);
    let net_floor = match spec {
        ConsolidationSpec::AllOn | ConsolidationSpec::Level(_) => {
            let level = match spec {
                ConsolidationSpec::Level(l) => l,
                _ => AggregationLevel::Agg0,
            };
            let on: HashSet<NodeId> = level
                .active_switches(ft)
                .into_iter()
                .filter(|n| !masked.contains(n))
                .collect();
            let is_on = |n: NodeId| !topo.node(n).kind.is_switch() || on.contains(&n);
            let links = topo
                .links()
                .filter(|(_, l)| is_on(l.a) && is_on(l.b))
                .count();
            cfg.net_power.power_w_for_counts(on.len(), links)
        }
        ConsolidationSpec::GreedyK(_) => {
            let mut m_sw: HashSet<NodeId> = HashSet::new();
            let mut m_ln: HashSet<LinkId> = HashSet::new();
            let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
            let shared = arena.is_shared();
            let mut class: HashMap<(NodeId, NodeId), (Vec<NodeId>, Vec<LinkId>)> = HashMap::new();
            let mut nodes_buf: Vec<NodeId> = Vec::new();
            let mut links_buf: Vec<LinkId> = Vec::new();
            for fl in ctx.flows().flows() {
                if !seen.insert((fl.src, fl.dst)) {
                    continue;
                }
                if shared
                    && arena.nth_candidate_into(fl.src, fl.dst, 0, &mut nodes_buf, &mut links_buf)
                    && nodes_buf.len() >= 3
                {
                    let acc = (nodes_buf[1], nodes_buf[nodes_buf.len() - 2]);
                    let (csw, cln) = class.entry(acc).or_insert_with(|| {
                        let mut sw: Vec<NodeId> = Vec::new();
                        let mut ln: Vec<LinkId> = Vec::new();
                        let mut first = true;
                        arena.for_each_candidate(fl.src, fl.dst, &mut |p| {
                            let interior_ln = &p.links[1..p.links.len() - 1];
                            if first {
                                sw.extend_from_slice(p.interior());
                                ln.extend_from_slice(interior_ln);
                                first = false;
                            } else {
                                let psw: HashSet<NodeId> = p.interior().iter().copied().collect();
                                let pln: HashSet<LinkId> = interior_ln.iter().copied().collect();
                                sw.retain(|x| psw.contains(x));
                                ln.retain(|x| pln.contains(x));
                            }
                            ControlFlow::Continue(())
                        });
                        (sw, ln)
                    });
                    m_sw.extend(csw.iter().copied());
                    m_ln.extend(cln.iter().copied());
                    m_ln.insert(links_buf[0]);
                    m_ln.insert(links_buf[links_buf.len() - 1]);
                    continue;
                }
                let mut sw: HashSet<NodeId> = HashSet::new();
                let mut ln: HashSet<LinkId> = HashSet::new();
                let mut first = true;
                arena.for_each_candidate(fl.src, fl.dst, &mut |p| {
                    if first {
                        sw.extend(p.interior().iter().copied());
                        ln.extend(p.hops().map(|(_, _, l)| l));
                        first = false;
                    } else {
                        let psw: HashSet<NodeId> = p.interior().iter().copied().collect();
                        let pln: HashSet<LinkId> = p.hops().map(|(_, _, l)| l).collect();
                        sw.retain(|x| psw.contains(x));
                        ln.retain(|x| pln.contains(x));
                    }
                    ControlFlow::Continue(())
                });
                m_sw.extend(sw);
                m_ln.extend(ln);
            }
            m_sw.retain(|n| !masked.contains(n));
            m_ln.retain(|&l| {
                let lk = topo.link(l);
                !masked.contains(&lk.a) && !masked.contains(&lk.b)
            });
            cfg.net_power.power_w_for_counts(m_sw.len(), m_ln.len())
        }
    };
    server_floor + net_floor
}

/// A context on a k-ary fat-tree with background traffic, so the flow
/// set holds repeated and one-way host pairs besides the query mesh.
fn context(k: usize, seed: u64) -> ScenarioContext {
    let cfg = ClusterConfig {
        fat_tree_k: k,
        ..ClusterConfig::default()
    };
    let spec = ScenarioSpec {
        server_utilization: 0.3,
        background_util: 0.4,
        duration_s: 0.02,
        warmup_s: 0.0,
        seed,
    };
    ScenarioContext::build(&cfg, &spec)
}

/// Masks: none, one core, one aggregation switch, one edge switch, and
/// a whole core group (every core behind aggregation index 0).
fn masks(ft: &FatTree) -> Vec<Vec<NodeId>> {
    let half = ft.k() / 2;
    vec![
        Vec::new(),
        vec![ft.core(half - 1, 0)],
        vec![ft.agg(1, 0)],
        vec![ft.edge(0, half - 1)],
        (0..half).map(|m| ft.core(0, m)).collect(),
    ]
}

fn specs() -> Vec<ConsolidationSpec> {
    let mut out = vec![ConsolidationSpec::AllOn, ConsolidationSpec::GreedyK(2.0)];
    out.extend(
        AggregationLevel::ALL
            .iter()
            .map(|&l| ConsolidationSpec::Level(l)),
    );
    out
}

fn check(k: usize, seed: u64) {
    let ctx = context(k, seed);
    assert!(ctx.arena().is_shared());
    for mask in masks(ctx.arena().inner()) {
        for spec in specs() {
            let got = candidate_power_floor_w(&ctx, SCHEME, spec, &mask);
            let want = reference_floor(&ctx, spec, &mask);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "k={k} seed={seed} {} mask={mask:?}: {got} vs {want}",
                spec.label()
            );
        }
    }
}

#[test]
fn floor_matches_the_hash_set_reference_on_k4() {
    for seed in [1, 2, 3] {
        check(4, seed);
    }
}

#[test]
fn floor_matches_the_hash_set_reference_on_k8() {
    check(8, 7000);
}
