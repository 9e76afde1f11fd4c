//! Path-based MILP consolidation.
//!
//! An exact reformulation of the paper's eqs. 2–9 specialized to fat-trees:
//! because every minimal route is an up/down ECMP path, the per-arc flow
//! variables `f_i(u,v)` and no-split indicators `Z_i(u,v)` collapse into a
//! single binary *path selector* `z_{i,p}` per flow × candidate path. Link
//! (`X`) and switch (`Y`) on/off indicators can then stay continuous: the
//! constraints `X_l ≥ z_{i,p}` (for every path `p` crossing `l`) and
//! `Y_s ≥ X_l` (for every link adjacent to `s`) pin them to 1 whenever used,
//! and the minimized power objective pins them to 0 otherwise. The optimum
//! therefore equals the arc model's at a fraction of the binaries.

use eprons_lp::{solve_milp, Cmp, MilpOptions, Model, Sense, SolveError, VarId};
use eprons_topo::{MultipathTopology, Path};

use super::{Assignment, ConsolidationConfig, ConsolidationError, Consolidator};
use crate::flow::FlowSet;

/// Exact MILP consolidator over ECMP candidate paths.
#[derive(Debug, Clone, Default)]
pub struct PathMilpConsolidator {
    /// Branch-and-bound options.
    pub options: MilpOptions,
}

/// The built model plus handles, exposed so benches can time model
/// construction and solving separately.
pub struct PathModel {
    /// The MILP.
    pub model: Model,
    /// Candidate paths per flow (same order as the z variables).
    pub candidates: Vec<Vec<Path>>,
    /// z variable per (flow, candidate index).
    pub z: Vec<Vec<VarId>>,
    /// X variable per link (indexed by `LinkId`).
    pub x: Vec<VarId>,
    /// Y variable per node (`None` for hosts), indexed by `NodeId`.
    pub y: Vec<Option<VarId>>,
}

/// Builds the path-based consolidation MILP.
pub fn build_path_model(
    net: &dyn MultipathTopology,
    flows: &FlowSet,
    cfg: &ConsolidationConfig,
) -> PathModel {
    let topo = net.topology();
    let mut model = Model::new(Sense::Minimize);

    // X per link, Y per switch (continuous in [0,1]; see module docs).
    let x: Vec<VarId> = topo
        .links()
        .map(|(id, _)| model.add_var(format!("X[{}]", id.0), 0.0, 1.0, cfg.power.link_w))
        .collect();
    let mut y = vec![None; topo.num_nodes()];
    for (id, n) in topo.nodes() {
        if n.kind.is_switch() {
            y[id.0] = Some(model.add_var(format!("Y[{}]", n.name), 0.0, 1.0, cfg.power.switch_w));
        }
    }

    // Y_s >= X_l for each link adjacent to switch s (paper eq. 7).
    for (lid, link) in topo.links() {
        for endpoint in [link.a, link.b] {
            if let Some(ys) = y[endpoint.0] {
                model.add_constraint(
                    format!("on[{}->{}]", lid.0, endpoint.0),
                    vec![(ys, 1.0), (x[lid.0], -1.0)],
                    Cmp::Ge,
                    0.0,
                );
            }
        }
    }

    // Path selectors.
    let mut candidates = Vec::with_capacity(flows.len());
    let mut z: Vec<Vec<VarId>> = Vec::with_capacity(flows.len());
    // Per-(link, direction) capacity terms, accumulated across flows
    // (full-duplex links contend per direction).
    let mut cap_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.num_links() * 2];
    for flow in flows.flows() {
        // Candidates through masked (failed) switches are dropped; a flow
        // left with none surfaces as an empty (infeasible) route
        // constraint, which the solver reports as Infeasible.
        let paths: Vec<Path> = net
            .candidate_paths(flow.src, flow.dst)
            .into_iter()
            .filter(|p| !p.nodes.iter().any(|&n| cfg.is_excluded(n)))
            .collect();
        let demand = flow.scaled_demand(cfg.scale_k);
        let mut zf = Vec::with_capacity(paths.len());
        for (pi, p) in paths.iter().enumerate() {
            let zv = model.add_binary(format!("z[{},{}]", flow.id.0, pi), 0.0);
            for (from, _, l) in p.hops() {
                // X_l >= z (activation, eq. 9's Z→link coupling).
                model.add_constraint(
                    format!("use[{},{},{}]", flow.id.0, pi, l.0),
                    vec![(x[l.0], 1.0), (zv, -1.0)],
                    Cmp::Ge,
                    0.0,
                );
                let dir = crate::links::direction_from(topo, l, from);
                cap_terms[l.0 * 2 + dir].push((zv, demand));
            }
            zf.push(zv);
        }
        // Exactly one path per flow (eqs. 5, 6, 9: conservation + no split).
        model.add_constraint(
            format!("route[{}]", flow.id.0),
            zf.iter().map(|&v| (v, 1.0)).collect(),
            Cmp::Eq,
            1.0,
        );
        candidates.push(paths);
        z.push(zf);
    }

    // Capacity with safety margin (eq. 3), per direction.
    for (lid, link) in topo.links() {
        for dir in 0..2 {
            if cap_terms[lid.0 * 2 + dir].is_empty() {
                continue;
            }
            model.add_constraint(
                format!("cap[{},{}]", lid.0, dir),
                cap_terms[lid.0 * 2 + dir].clone(),
                Cmp::Le,
                cfg.usable_capacity(link.capacity_mbps),
            );
        }
    }

    PathModel {
        model,
        candidates,
        z,
        x,
        y,
    }
}

impl Consolidator for PathMilpConsolidator {
    fn consolidate(
        &self,
        net: &dyn MultipathTopology,
        flows: &FlowSet,
        cfg: &ConsolidationConfig,
    ) -> Result<Assignment, ConsolidationError> {
        let pm = build_path_model(net, flows, cfg);
        // A flow whose every candidate crosses a masked switch has an
        // empty route constraint; report it before solving.
        if let Some(fi) = pm.candidates.iter().position(|c| c.is_empty()) {
            return Err(ConsolidationError::NoFeasiblePath { flow: fi });
        }
        let sol = match solve_milp(&pm.model, &self.options) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err(ConsolidationError::Infeasible),
            Err(e) => return Err(ConsolidationError::SolverFailed(e.to_string())),
        };
        let mut chosen = Vec::with_capacity(flows.len());
        for (fi, zf) in pm.z.iter().enumerate() {
            let pi = zf
                .iter()
                .position(|&zv| sol.value(zv) > 0.5)
                .expect("route constraint guarantees one chosen path");
            chosen.push(pm.candidates[fi][pi].clone());
        }
        Ok(Assignment::from_paths(net, flows, chosen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::greedy::GreedyConsolidator;
    use crate::flow::{FlowClass, FlowSet};
    use crate::power::NetworkPowerModel;
    use eprons_topo::FatTree;

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
    fn fig2_k1_optimal_is_seven_switches() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let cfg = ConsolidationConfig::with_k(1.0);
        let a = PathMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        assert_eq!(a.active_switch_count(&ft), 7);
    }

    #[test]
    fn fig2_scale_factor_progression() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let milp = PathMilpConsolidator::default();
        let mut prev = 0usize;
        for k in [1.0, 2.0, 3.0] {
            let cfg = ConsolidationConfig::with_k(k);
            let a = milp.consolidate(&ft, &fs, &cfg).unwrap();
            a.validate(&ft, &fs, &cfg).unwrap();
            let n = a.active_switch_count(&ft);
            assert!(n >= prev, "K={k} shrank the active set");
            prev = n;
        }
        assert!(prev > 7, "K=3 must use more than the K=1 minimum");
    }

    #[test]
    fn milp_never_worse_than_greedy() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let power = NetworkPowerModel::default();
        for k in [1.0, 2.0, 3.0] {
            let cfg = ConsolidationConfig::with_k(k);
            let opt = PathMilpConsolidator::default()
                .consolidate(&ft, &fs, &cfg)
                .unwrap();
            let heur = GreedyConsolidator.consolidate(&ft, &fs, &cfg).unwrap();
            let p_opt = opt.network_power_w(&ft, &power);
            let p_heur = heur.network_power_w(&ft, &power);
            assert!(
                p_opt <= p_heur + 1e-6,
                "K={k}: MILP ({p_opt} W) worse than greedy ({p_heur} W)"
            );
        }
    }

    #[test]
    fn milp_detects_infeasibility() {
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
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
        let r = PathMilpConsolidator::default().consolidate(
            &ft,
            &fs,
            &ConsolidationConfig::with_k(1.0),
        );
        assert_eq!(r.unwrap_err(), ConsolidationError::Infeasible);
    }

    #[test]
    fn model_dimensions_scale_with_flows() {
        let ft = FatTree::new(4, 1000.0);
        let fs = fig2_flows(&ft);
        let pm = build_path_model(&ft, &fs, &ConsolidationConfig::with_k(1.0));
        // 48 X + 20 Y + z variables (4 candidates per cross-pod flow × 3).
        assert_eq!(pm.model.num_vars(), 48 + 20 + 12);
        assert_eq!(pm.z.iter().map(|z| z.len()).sum::<usize>(), 12);
    }

    #[test]
    fn larger_instance_solves() {
        // 8 cross-pod query flows; optimal packing uses a single core.
        let ft = FatTree::new(4, 1000.0);
        let mut fs = FlowSet::new();
        for p in 0..4usize {
            for h in 0..2 {
                fs.add(
                    ft.host(p, 0, h),
                    ft.host((p + 2) % 4, 0, h),
                    15.0,
                    FlowClass::LatencySensitive,
                );
            }
        }
        let cfg = ConsolidationConfig::with_k(2.0);
        let a = PathMilpConsolidator::default()
            .consolidate(&ft, &fs, &cfg)
            .unwrap();
        a.validate(&ft, &fs, &cfg).unwrap();
        // 4 edges (only edge 0 of each pod is used) + 4 aggs + 1 core = 9.
        assert_eq!(a.active_switch_count(&ft), 9);
    }
}
