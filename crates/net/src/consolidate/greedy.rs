//! Greedy bin-packing consolidation — the paper's deployable heuristic
//! (§IV-B, "similar to the greedy bin-packing algorithm in \[2\]"
//! i.e. ElasticTree).
//!
//! Flows are placed largest-scaled-demand first. For each flow, the
//! candidate path chosen is the one that (1) fits the scaled demand under
//! every link's usable capacity, (2) activates the fewest *new* switches,
//! and (3) among ties prefers the leftmost (lowest-index) candidate — the
//! deterministic bias that concentrates traffic on a minimal subtree.
//! The first fitting candidate that activates no new switch is therefore
//! the winner, and the scan stops there.
//!
//! On a topology with access classes
//! ([`MultipathTopology::access_class`]) a flow's candidates are read
//! straight from its class's table: the two host hops are tested once,
//! and each candidate's interior switches and directed hops are checked
//! against the reservations without assembling a path. The scan also
//! starts late: a class's leading candidates that failed the mask or
//! their fit for an earlier flow of the class at the same demand still
//! fail, because reservations only grow, so they are skipped.

use std::ops::ControlFlow;

use eprons_topo::{MultipathTopology, NodeId, PathRef};

use super::{
    Assignment, ClassFlow, ConsolidationConfig, ConsolidationError, Consolidator, PathCollector,
};
use crate::flow::FlowSet;
use crate::links::direction_from;

/// Greedy first-fit-decreasing consolidator.
///
/// ```
/// use eprons_net::flow::FlowSet;
/// use eprons_net::{ConsolidationConfig, Consolidator, FlowClass, GreedyConsolidator};
/// use eprons_topo::FatTree;
///
/// let ft = FatTree::new(4, 1000.0);
/// let mut flows = FlowSet::new();
/// flows.add(ft.host(0, 0, 0), ft.host(1, 0, 0), 200.0, FlowClass::LatencySensitive);
/// let cfg = ConsolidationConfig::with_k(2.0); // reserve 2× headroom
/// let a = GreedyConsolidator.consolidate(&ft, &flows, &cfg).unwrap();
/// // One cross-pod flow: 2 edges + 2 aggs + 1 core active.
/// assert_eq!(a.active_switch_count(&ft), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreedyConsolidator;

impl Consolidator for GreedyConsolidator {
    fn consolidate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<Assignment, ConsolidationError> {
        let _t = eprons_obs::Timer::scoped("net.consolidate.greedy_s");
        let mut sp = eprons_obs::Span::enter("net.consolidate");
        if eprons_obs::enabled() {
            sp.note(format!("algo=greedy flows={}", flows.len()));
        }
        let topo = net.topology();
        // Largest scaled demand first; ties broken by flow id so the
        // placement is deterministic.
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| {
            let da = flows.flows()[a].scaled_demand(cfg.scale_k);
            let db = flows.flows()[b].scaled_demand(cfg.scale_k);
            db.partial_cmp(&da)
                .expect("demands are finite")
                .then(a.cmp(&b))
        });

        let mut reserved = vec![0.0; topo.num_links() * 2];
        let usable: Vec<f64> = topo
            .links()
            .map(|(_, l)| cfg.usable_capacity(l.capacity_mbps))
            .collect();
        let mut switch_active = vec![false; topo.num_nodes()];
        let mut chosen = PathCollector::for_flows(flows.len());
        let mut nbuf = Vec::new();
        let mut lbuf = Vec::new();
        let mut candidates = 0u64;
        // Per access class: the dead-prefix cursor and the demand bits it
        // advanced under. Every candidate below the cursor failed its
        // interior fit or the mask for an earlier flow of the class at
        // that demand; reservations only grow and the mask is fixed, so
        // it still fails. A slot tagged with another demand reads as 0.
        let mut dead: Vec<(u32, u64)> = vec![(0, 0); net.access_classes()];
        let infeasible = |candidates: u64, fi: usize| {
            if eprons_obs::enabled() {
                let reg = eprons_obs::registry();
                reg.counter("net.consolidate.candidates").add(candidates);
                reg.counter("net.consolidate.infeasible").inc();
            }
            Err(ConsolidationError::NoFeasiblePath { flow: fi })
        };

        for &fi in &order {
            let flow = &flows.flows()[fi];
            let demand = flow.scaled_demand(cfg.scale_k);
            // Does `demand` fit on the directed hop `link * 2 + dir`?
            let fits = |hop: usize| reserved[hop] + demand <= usable[hop >> 1] + 1e-9;
            // The fitting candidate with the fewest new switches, lowest
            // index on ties. Indices only grow, so a fitting candidate
            // that powers nothing new is the minimum: stop there.
            let mut best: Option<(usize, usize)> = None; // (new_switches, idx)
            let mut keep = |new_switches: usize, this: usize| {
                if best.is_none_or(|b| (new_switches, this) < b) {
                    best = Some((new_switches, this));
                }
                if new_switches == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            if let Some(cf) = ClassFlow::of(net, flow.src, flow.dst) {
                // Every candidate of a class shares both endpoints and
                // both host hops: test them once, and if one fails no
                // candidate fits.
                if cfg.is_excluded(flow.src)
                    || cfg.is_excluded(flow.dst)
                    || !fits(cf.up)
                    || !fits(cf.down)
                {
                    return infeasible(candidates, fi);
                }
                let t = cf.table;
                let start = match dead[cf.class] {
                    (c, bits) if bits == demand.to_bits() => c as usize,
                    _ => 0,
                };
                let mut cursor = start;
                for c in start..t.len() {
                    candidates += 1;
                    let interior = t.interior(c);
                    let live = !interior
                        .iter()
                        .any(|&n| cfg.is_excluded(NodeId(n as usize)))
                        && t.hops(c).iter().all(|&h| fits(h as usize));
                    if !live {
                        if c == cursor {
                            cursor += 1;
                        }
                        continue;
                    }
                    let new_switches = interior
                        .iter()
                        .filter(|&&n| !switch_active[n as usize])
                        .count();
                    if keep(new_switches, c).is_break() {
                        break;
                    }
                }
                dead[cf.class] = (cursor as u32, demand.to_bits());
                let Some((_, c)) = best else {
                    return infeasible(candidates, fi);
                };
                cf.reserve(c, &mut reserved, demand);
                for &n in t.interior(c) {
                    switch_active[n as usize] = true;
                }
                chosen.set_class(fi, &cf, c);
                continue;
            }
            // No class: walk the candidates as borrowed slices (no
            // allocation per path); only the winner is materialized.
            let mut idx = 0usize;
            net.for_each_candidate(flow.src, flow.dst, &mut |p| {
                let this = idx;
                idx += 1;
                candidates += 1;
                let live = !p.nodes.iter().any(|&n| cfg.is_excluded(n))
                    && p.hops()
                        .all(|(from, _, l)| fits(l.0 * 2 + direction_from(topo, l, from)));
                if !live {
                    return ControlFlow::Continue(());
                }
                let new_switches = p
                    .interior()
                    .iter()
                    .filter(|&&n| !switch_active[n.0])
                    .count();
                keep(new_switches, this)
            });
            let Some((_, idx)) = best else {
                return infeasible(candidates, fi);
            };
            assert!(
                net.nth_candidate_into(flow.src, flow.dst, idx, &mut nbuf, &mut lbuf),
                "index valid"
            );
            let p = PathRef {
                nodes: &nbuf,
                links: &lbuf,
            };
            for (from, _, l) in p.hops() {
                reserved[l.0 * 2 + direction_from(topo, l, from)] += demand;
            }
            for &n in p.nodes {
                switch_active[n.0] = true;
            }
            chosen.set(fi, p);
        }

        let assignment = Assignment::from_collector(net, flows, chosen);
        if eprons_obs::enabled() {
            let reg = eprons_obs::registry();
            reg.counter("net.consolidate.candidates").add(candidates);
            reg.counter("net.consolidate.passes").inc();
            eprons_obs::record(eprons_obs::Event::ConsolidationPass {
                algo: "greedy".into(),
                flows: flows.len() as u64,
                placed: flows.len() as u64,
                active_switches: assignment.active_switch_count(net) as u64,
            });
        }
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowClass, FlowId, FlowSet};
    use eprons_topo::FatTree;

    /// The paper's Fig. 2 scenario: 1 Gbps links, 50 Mbps margin, one
    /// 900 Mbps elephant plus two 20 Mbps latency-sensitive flows.
    fn fig2_flows(ft: &FatTree) -> FlowSet {
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            900.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 1),
            ft.host(1, 0, 1),
            20.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.host(0, 1, 0),
            ft.host(1, 1, 0),
            20.0,
            FlowClass::LatencySensitive,
        );
        fs
    }

    #[test]
    fn fig2_k1_minimal_switches() {
        // K=1: 900 + 20 + 20 = 940 <= 950 — everything shares one path
        // tree; minimal active switches (Fig. 2a).
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let a = GreedyConsolidator
            .consolidate(&ft, &fs, &ConsolidationConfig::with_k(1.0))
            .unwrap();
        a.validate(&ft, &fs, &ConsolidationConfig::with_k(1.0))
            .unwrap();
        // src edges: edge(0,0) and edge(0,1); dst edges: edge(1,0), edge(1,1);
        // plus 1 agg per pod + 1 core = 7 switches minimum.
        assert_eq!(a.active_switch_count(&ft), 7);
        // The inter-pod links carry all three flows → shared core.
        let core_of = |f: usize| a.path(FlowId(f)).nodes[3];
        assert_eq!(core_of(0), core_of(1));
    }

    #[test]
    fn fig2_k2_splits_one_query_off() {
        // K=2: sensitive flows reserve 40 each; 900+40+40 = 980 > 950, so
        // at least one query flow moves to a new path (Fig. 2b).
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let cfg = ConsolidationConfig::with_k(2.0);
        let a = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        let k1 = GreedyConsolidator
            .consolidate(&ft, &fs, &ConsolidationConfig::with_k(1.0))
            .unwrap();
        assert!(
            a.active_switch_count(&ft) > k1.active_switch_count(&ft),
            "K=2 must activate more switches than K=1"
        );
    }

    #[test]
    fn fig2_k3_splits_both_queries_off() {
        // K=3: each query reserves 60; 900+60 = 960 > 950, so *neither*
        // query can share the elephant's links (Fig. 2c).
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let cfg = ConsolidationConfig::with_k(3.0);
        let a = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        let elephant = a.path(FlowId(0));
        for f in [1usize, 2] {
            let q = a.path(FlowId(f));
            assert!(
                q.links.iter().all(|l| !elephant.links.contains(l)),
                "flow {f} still shares a link with the elephant at K=3"
            );
        }
        let k2 = GreedyConsolidator
            .consolidate(&ft, &fs, &ConsolidationConfig::with_k(2.0))
            .unwrap();
        assert!(a.active_switch_count(&ft) >= k2.active_switch_count(&ft));
    }

    #[test]
    fn active_switches_grow_monotonically_with_k() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let mut prev = 0usize;
        for k in [1.0, 2.0, 3.0] {
            let a = GreedyConsolidator
                .consolidate(&ft, &fs, &ConsolidationConfig::with_k(k))
                .unwrap();
            let n = a.active_switch_count(&ft);
            assert!(n >= prev, "K={k}: switches decreased");
            prev = n;
        }
    }

    #[test]
    fn infeasible_when_demand_exceeds_capacity() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        // Two 600 Mbps flows from one host: its single uplink can't hold
        // 1200 Mbps.
        fs.add(
            ft.host(0, 0, 0),
            ft.host(1, 0, 0),
            600.0,
            FlowClass::LatencyTolerant,
        );
        fs.add(
            ft.host(0, 0, 0),
            ft.host(2, 0, 0),
            600.0,
            FlowClass::LatencyTolerant,
        );
        let r = GreedyConsolidator.consolidate(&ft, &fs, &ConsolidationConfig::with_k(1.0));
        assert!(matches!(r, Err(ConsolidationError::NoFeasiblePath { .. })));
    }

    #[test]
    fn many_flows_consolidate_to_subtree() {
        // 16 small cross-pod flows, K=1: all fit on a minimal subtree of
        // shared switches rather than spreading across all cores.
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        for p in 0..4usize {
            for i in 0..2 {
                for h in 0..2 {
                    let src = ft.host(p, i, h);
                    let dst = ft.host((p + 1) % 4, i, h);
                    fs.add(src, dst, 10.0, FlowClass::LatencySensitive);
                }
            }
        }
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        // All 8 edges stay active (flows originate everywhere), but only
        // one agg per pod and one core are needed: 8 + 4 + 1 = 13.
        assert_eq!(a.active_switch_count(&ft), 13);
    }

    #[test]
    fn deterministic_across_runs() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let cfg = ConsolidationConfig::with_k(2.0);
        let a = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        let b = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
        for f in 0..fs.len() {
            assert_eq!(a.path(FlowId(f)).nodes, b.path(FlowId(f)).nodes);
        }
    }
}
