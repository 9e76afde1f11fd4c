//! The faithful arc-based MILP of paper eqs. 2–9.
//!
//! Variables, as in the paper:
//!
//! * `X_{u,v}` — link on/off (eq. 7 makes it symmetric; we model one
//!   variable per undirected link);
//! * `Y_u`   — switch on/off;
//! * `Z_i(u,v)` — flow `i` uses arc `u→v` (binary, eq. 9: no splitting, so
//!   `f_i(u,v) = K·d_i·Z_i(u,v)`);
//! * flow conservation (eq. 5), skew symmetry (eq. 4, implicit in the
//!   directed-arc encoding), capacity with the scale factor (eq. 3),
//!   link→switch coupling (eq. 7) and switch shutdown (eq. 8).
//!
//! This is the exact model the paper hands to CPLEX. It is exponential in
//! practice (the paper: 42 min for 3000 flows), so it is exercised on small
//! instances and cross-validated against [`super::path`], which is the
//! tractable equivalent on fat-trees.

use eprons_lp::{solve_milp, Cmp, MilpOptions, Model, Sense, SolveError, VarId};
use eprons_topo::{LinkId, MultipathTopology, Path};

use super::{Assignment, ConsolidationConfig, ConsolidationError, Consolidator};
use crate::flow::FlowSet;

/// Tiny per-arc cost that suppresses gratuitous cycles (a cycle on already
/// active links would otherwise cost nothing).
const ARC_EPS: f64 = 1e-3;

/// Exact arc-based consolidator (paper eqs. 2–9).
#[derive(Debug, Clone)]
pub struct ArcMilpConsolidator {
    /// Branch-and-bound options.
    pub options: MilpOptions,
}

impl Default for ArcMilpConsolidator {
    fn default() -> Self {
        ArcMilpConsolidator {
            options: MilpOptions {
                max_nodes: 50_000,
                ..Default::default()
            },
        }
    }
}

/// The built arc MILP plus variable handles, mirroring
/// [`super::path::PathModel`].
struct ArcModel {
    /// The MILP.
    model: Model,
    /// Z variable per (flow, link, direction), row-major.
    z: Vec<VarId>,
    /// Link count (stride for `z` indexing).
    nl: usize,
}

impl ArcModel {
    /// The Z selector of flow `fi` on link `l`, direction `dir`.
    fn z_at(&self, fi: usize, l: LinkId, dir: usize) -> VarId {
        self.z[(fi * self.nl + l.0) * 2 + dir]
    }
}

/// Builds the arc-based consolidation MILP (paper eqs. 2–9).
fn build_arc_model(
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
) -> ArcModel {
    let topo = net.topology();
    let mut model = Model::new(Sense::Minimize);

    // X per undirected link (eq. 7 collapses the two directions).
    let x: Vec<VarId> = topo
        .links()
        .map(|(id, _)| model.add_var(format!("X[{}]", id.0), 0.0, 1.0, cfg.power.link_w))
        .collect();
    // Y per switch. Masked (failed) switches get an upper bound of 0:
    // eq. 7's Y ≥ X then forces their links off, and eq. 9's X ≥ Z
    // keeps every flow away from them.
    let mut y = vec![None; topo.num_nodes()];
    for (id, n) in topo.nodes() {
        if n.kind.is_switch() {
            let ub = if cfg.is_excluded(id) { 0.0 } else { 1.0 };
            y[id.0] = Some(model.add_var(format!("Y[{}]", n.name), 0.0, ub, cfg.power.switch_w));
        }
    }

    // Z_i per directed arc. Arc (l, dir): dir 0 = a→b, dir 1 = b→a.
    let nf = flows.len();
    let nl = topo.num_links();
    let mut z: Vec<VarId> = Vec::with_capacity(nf * nl * 2);
    for flow in flows.flows() {
        for (lid, _) in topo.links() {
            for dir in 0..2 {
                z.push(model.add_binary(format!("Z[{},{},{}]", flow.id.0, lid.0, dir), ARC_EPS));
            }
        }
    }
    let z_at = |fi: usize, l: LinkId, dir: usize| z[(fi * nl + l.0) * 2 + dir];

    // Flow conservation (eq. 5): Σ_h f_i(u,h) = K·d_i at the source,
    // −K·d_i at the sink, 0 elsewhere. Dividing by K·d_i it becomes a
    // unit-flow constraint on the Z indicators.
    for (fi, flow) in flows.flows().iter().enumerate() {
        for (nid, _) in topo.nodes() {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &(nbr, l) in topo.neighbors(nid) {
                let link = topo.link(l);
                // dir 0 is a→b: outgoing from nid iff nid == link.a.
                let (out_dir, in_dir) = if nid == link.a { (0, 1) } else { (1, 0) };
                let _ = nbr;
                terms.push((z_at(fi, l, out_dir), 1.0));
                terms.push((z_at(fi, l, in_dir), -1.0));
            }
            let rhs = if nid == flow.src {
                1.0
            } else if nid == flow.dst {
                -1.0
            } else {
                0.0
            };
            model.add_constraint(
                format!("cons[{},{}]", flow.id.0, nid.0),
                terms,
                Cmp::Eq,
                rhs,
            );
        }
    }

    // Capacity (eq. 3) per direction, and activation X >= Z.
    for (lid, link) in topo.links() {
        let usable = cfg.usable_capacity(link.capacity_mbps);
        for dir in 0..2 {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for (fi, flow) in flows.flows().iter().enumerate() {
                let zv = z_at(fi, lid, dir);
                terms.push((zv, flow.scaled_demand(cfg.scale_k)));
                model.add_constraint(
                    format!("act[{},{},{}]", fi, lid.0, dir),
                    vec![(x[lid.0], 1.0), (zv, -1.0)],
                    Cmp::Ge,
                    0.0,
                );
            }
            model.add_constraint(format!("cap[{},{}]", lid.0, dir), terms, Cmp::Le, usable);
        }
    }

    // Link→switch coupling (eq. 7) and shutdown (eq. 8).
    for (lid, link) in topo.links() {
        for endpoint in [link.a, link.b] {
            if let Some(ys) = y[endpoint.0] {
                model.add_constraint(
                    format!("on[{},{}]", lid.0, endpoint.0),
                    vec![(ys, 1.0), (x[lid.0], -1.0)],
                    Cmp::Ge,
                    0.0,
                );
            }
        }
    }
    for (nid, n) in topo.nodes() {
        if let Some(ys) = y[nid.0] {
            let _ = n;
            let mut terms = vec![(ys, 1.0)];
            for &(_, l) in topo.neighbors(nid) {
                terms.push((x[l.0], -1.0));
            }
            model.add_constraint(format!("shut[{}]", nid.0), terms, Cmp::Le, 0.0);
        }
    }

    let _ = nf;
    ArcModel { model, z, nl }
}

impl Consolidator for ArcMilpConsolidator {
    fn consolidate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<Assignment, ConsolidationError> {
        let topo = net.topology();
        let am = build_arc_model(net, flows, cfg);
        let nf = flows.len();
        let sol = match solve_milp(&am.model, &self.options) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err(ConsolidationError::Infeasible),
            Err(e) => return Err(ConsolidationError::SolverFailed(e.to_string())),
        };

        // Trace each flow's path by walking the chosen arcs from src.
        let mut chosen: Vec<Path> = Vec::with_capacity(nf);
        for (fi, flow) in flows.flows().iter().enumerate() {
            let mut nodes = vec![flow.src];
            let mut links = Vec::new();
            let mut cur = flow.src;
            let mut guard = 0;
            while cur != flow.dst {
                guard += 1;
                if guard > topo.num_nodes() {
                    return Err(ConsolidationError::SolverFailed(
                        "cyclic arc solution".into(),
                    ));
                }
                let mut advanced = false;
                for &(nbr, l) in topo.neighbors(cur) {
                    let link = topo.link(l);
                    let out_dir = if cur == link.a { 0 } else { 1 };
                    if sol.value(am.z_at(fi, l, out_dir)) > 0.5 && !links.contains(&l) {
                        nodes.push(nbr);
                        links.push(l);
                        cur = nbr;
                        advanced = true;
                        break;
                    }
                }
                if !advanced {
                    return Err(ConsolidationError::SolverFailed(
                        "broken arc solution".into(),
                    ));
                }
            }
            chosen.push(Path { nodes, links });
        }
        Ok(Assignment::from_paths(net, flows, chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::path::PathMilpConsolidator;
    use crate::flow::{FlowClass, FlowSet};
    use crate::power::NetworkPowerModel;
    use eprons_topo::FatTree;

    #[test]
    fn k2_single_flow_routes_minimally() {
        // k=2 fat-tree: 2 hosts, 5 switches, 6 links; the only path is
        // h0-e0-a0-c-a1-e1-h1 — all 5 switches on.
        let ft = FatTree::new(2, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.hosts()[0],
            ft.hosts()[1],
            100.0,
            FlowClass::LatencySensitive,
        );
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = ArcMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        assert_eq!(a.active_switch_count(&ft), 5);
        assert_eq!(a.iter_paths().next().unwrap().hop_count(), 6);
    }

    #[test]
    fn k2_infeasible_when_over_capacity() {
        let ft = FatTree::new(2, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.hosts()[0],
            ft.hosts()[1],
            990.0, // > 950 usable
            FlowClass::LatencySensitive,
        );
        let r =
            ArcMilpConsolidator::default().consolidate(&ft, &fs, &ConsolidationConfig::with_k(1.0));
        assert_eq!(r.unwrap_err(), ConsolidationError::Infeasible);
    }

    #[test]
    fn k4_same_pod_flow_matches_path_model() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.host(0, 0, 0),
            ft.host(0, 1, 0),
            200.0,
            FlowClass::LatencySensitive,
        );
        let cfg = ConsolidationConfig::with_k(1.0);
        let arc = ArcMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        let path = PathMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        let power = NetworkPowerModel::default();
        let pa = arc.network_power_w(&ft, &power);
        let pp = path.network_power_w(&ft, &power);
        assert!(
            (pa - pp).abs() < 1e-6,
            "arc model ({pa} W) and path model ({pp} W) must agree"
        );
        // Same-pod route: 3 switches (2 edges + 1 agg), 4 hops.
        assert_eq!(arc.active_switch_count(&ft), 3);
        arc.validate(&ft, &fs, &cfg).unwrap();
    }

    #[test]
    fn k2_two_flows_share_the_subtree() {
        // Two small flows in opposite directions share all links.
        let ft = FatTree::new(2, 1000.0);
        let mut fs = FlowSet::new();
        fs.add(
            ft.hosts()[0],
            ft.hosts()[1],
            100.0,
            FlowClass::LatencySensitive,
        );
        fs.add(
            ft.hosts()[1],
            ft.hosts()[0],
            100.0,
            FlowClass::LatencySensitive,
        );
        let cfg = ConsolidationConfig::with_k(2.0);
        let a = ArcMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        assert_eq!(a.active_switch_count(&ft), 5);
    }
}
