//! Branch-and-bound for mixed-integer programs.
//!
//! The consolidation model's on/off indicators (`X` links, `Y` switches,
//! `Z`/path selectors — paper eqs. 7–9) are binary. This module wraps the
//! LP relaxation from [`crate::standard`] in a best-first branch-and-bound:
//! most-fractional branching, incumbent pruning, and a node budget.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::model::{Model, Sense, VarId};
use crate::simplex::SolveError;
use crate::standard::{solve_lp, Solution};

/// Branch-and-bound tuning knobs.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of LP relaxations to solve before giving up. When the
    /// budget runs out with an incumbent in hand, the incumbent is returned
    /// (it is feasible, possibly sub-optimal) — mirroring how the paper
    /// falls back to a heuristic when CPLEX is too slow.
    pub max_nodes: usize,
    /// Tolerance within which a relaxation value counts as integral.
    pub int_tol: f64,
    /// Relative optimality gap at which search stops early.
    pub rel_gap: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 20_000,
            int_tol: 1e-6,
            rel_gap: 1e-9,
        }
    }
}

/// A search node: bound overrides accumulated along the branch, plus the
/// parent relaxation bound used for best-first ordering.
struct Node {
    overrides: Vec<(VarId, f64, f64)>,
    bound_key: f64, // minimization key (lower is more promising)
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound_key == other.bound_key
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest key first.
        other
            .bound_key
            .partial_cmp(&self.bound_key)
            .unwrap_or(Ordering::Equal)
    }
}

/// Solves a mixed-integer program by branch-and-bound.
///
/// Returns the optimal (or, on node-budget exhaustion, the best incumbent)
/// solution. Errors mirror the LP relaxation: `Infeasible` when no integral
/// point exists, `Unbounded` when the relaxation is unbounded at the root,
/// `IterationLimit` when the budget is exhausted without any incumbent.
///
/// Each node's relaxation is a fresh [`solve_lp`] of the model under
/// that branch's bounds.
pub fn solve_milp(model: &Model, opts: &MilpOptions) -> Result<Solution, SolveError> {
    // Minimization key: +objective for Minimize, -objective for Maximize.
    let key_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    let int_vars: Vec<VarId> = model
        .vars()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.integer)
        .map(|(i, _)| VarId(i))
        .collect();

    // Pure LP: answer directly.
    if int_vars.is_empty() {
        return solve_lp(model);
    }
    let mut milp_span = eprons_obs::Span::enter("lp.milp");

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        overrides: Vec::new(),
        bound_key: f64::NEG_INFINITY,
    });

    let mut incumbent: Option<Solution> = None;
    let mut incumbent_key = f64::INFINITY;
    let mut nodes = 0usize;
    let mut root_infeasible = true;
    // Fetched once: handles are lock-free, lookups are not.
    let node_counter =
        eprons_obs::enabled().then(|| eprons_obs::registry().counter("lp.milp.nodes"));

    while let Some(node) = heap.pop() {
        if nodes >= opts.max_nodes {
            break;
        }
        // Bound-based pruning (parent bound may already be dominated).
        if node.bound_key >= incumbent_key - opts.rel_gap * incumbent_key.abs().max(1.0) {
            continue;
        }
        nodes += 1;
        if let Some(c) = &node_counter {
            c.inc();
        }

        // Apply branch bounds to a scratch copy of the model.
        let mut scratch = model.clone();
        for &(v, lo, hi) in &node.overrides {
            if lo > hi {
                continue; // empty box — infeasible branch
            }
            scratch.set_bounds(v, lo, hi);
        }
        if node.overrides.iter().any(|&(_, lo, hi)| lo > hi) {
            continue;
        }

        let relax = match solve_lp(&scratch) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => continue,
            Err(SolveError::Unbounded) if node.overrides.is_empty() => {
                return Err(SolveError::Unbounded);
            }
            Err(SolveError::Unbounded) => continue,
            Err(e) => return Err(e),
        };
        root_infeasible = false;
        let relax_key = key_sign * relax.objective;
        if relax_key >= incumbent_key - opts.rel_gap * incumbent_key.abs().max(1.0) {
            continue; // cannot beat the incumbent
        }

        // Find the most fractional integer variable (largest distance to
        // the nearest integer; 0.5 is maximally fractional).
        let mut branch: Option<VarId> = None;
        let mut best_frac = opts.int_tol;
        for &v in &int_vars {
            let x = relax.values[v.index()];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch = Some(v);
            }
        }

        match branch {
            None => {
                // Integral: snap and accept as incumbent if better.
                let mut vals = relax.values.clone();
                for &v in &int_vars {
                    vals[v.index()] = vals[v.index()].round();
                }
                let obj = model.objective_value(&vals);
                let key = key_sign * obj;
                if key < incumbent_key {
                    incumbent_key = key;
                    incumbent = Some(Solution {
                        objective: obj,
                        values: vals,
                    });
                }
            }
            Some(v) => {
                let x = relax.values[v.index()];
                let var = &model.vars()[v.index()];
                // Current effective bounds along this branch.
                let (mut lo, mut hi) = (var.lower, var.upper);
                for &(w, l, h) in &node.overrides {
                    if w == v {
                        lo = l;
                        hi = h;
                    }
                }
                // Down child: x <= floor(x).
                let mut down = node.overrides.clone();
                down.push((v, lo, x.floor()));
                heap.push(Node {
                    overrides: down,
                    bound_key: relax_key,
                });
                // Up child: x >= ceil(x).
                let mut up = node.overrides.clone();
                up.push((v, x.ceil(), hi));
                heap.push(Node {
                    overrides: up,
                    bound_key: relax_key,
                });
            }
        }
    }

    if eprons_obs::enabled() {
        milp_span.note(format!("nodes={nodes} found={}", incumbent.is_some()));
    }
    match incumbent {
        Some(sol) => Ok(sol),
        None if root_infeasible => Err(SolveError::Infeasible),
        None if nodes >= opts.max_nodes => Err(SolveError::IterationLimit),
        None => Err(SolveError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cmp;

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binaries.
        // Best: a + c = 17 (3+2 <= 6 and 10+7); b+c = 20 (4+2=6, 13+7=20). → 20
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 10.0);
        let b = m.add_binary("b", 13.0);
        let c = m.add_binary("c", 7.0);
        m.add_constraint("cap", vec![(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!(sol.value(b) > 0.5 && sol.value(c) > 0.5 && sol.value(a) < 0.5);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 7, x integer → x = 3 (LP gives 3.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, 2.0)], Cmp::Le, 7.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn classic_ip() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, integers.
        // LP optimum (3, 1.5); IP optimum: x=4,y=0 → 20 or x=3,y=1 → 19; check 6*4=24 ok → 20.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_int_var("x", 0.0, f64::INFINITY, 5.0);
        let y = m.add_int_var("y", 0.0, f64::INFINITY, 4.0);
        m.add_constraint("c1", vec![(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_ip() {
        // 0.4 <= x <= 0.6 with x integer.
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_int_var("x", 0.4, 0.6, 1.0);
        assert!(matches!(
            solve_milp(&m, &MilpOptions::default()),
            Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y s.t. y >= x - 0.5, y >= 0.5 - x, x binary → x∈{0,1}, y = 0.5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 0.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c1", vec![(y, 1.0), (x, -1.0)], Cmp::Ge, -0.5);
        m.add_constraint("c2", vec![(y, 1.0), (x, 1.0)], Cmp::Ge, 0.5);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-6);
        let xv = sol.value(x);
        assert!(xv.abs() < 1e-6 || (xv - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, 4.0, 2.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_charge_structure() {
        // A tiny version of the paper's structure: route demand d over one
        // of two links; opening link i costs s_i; capacity c_i.
        // min 10*y1 + 3*y2 s.t. f1 <= 5*y1, f2 <= 5*y2, f1 + f2 = 4,
        // no-split: f1 = 4*z1, f2 = 4*z2, z1 + z2 = 1 (z binary).
        // → choose link 2 (cost 3).
        let mut m = Model::new(Sense::Minimize);
        let y1 = m.add_binary("y1", 10.0);
        let y2 = m.add_binary("y2", 3.0);
        let z1 = m.add_binary("z1", 0.0);
        let z2 = m.add_binary("z2", 0.0);
        let f1 = m.add_var("f1", 0.0, f64::INFINITY, 0.0);
        let f2 = m.add_var("f2", 0.0, f64::INFINITY, 0.0);
        m.add_constraint("cap1", vec![(f1, 1.0), (y1, -5.0)], Cmp::Le, 0.0);
        m.add_constraint("cap2", vec![(f2, 1.0), (y2, -5.0)], Cmp::Le, 0.0);
        m.add_constraint("demand", vec![(f1, 1.0), (f2, 1.0)], Cmp::Eq, 4.0);
        m.add_constraint("nosplit1", vec![(f1, 1.0), (z1, -4.0)], Cmp::Eq, 0.0);
        m.add_constraint("nosplit2", vec![(f2, 1.0), (z2, -4.0)], Cmp::Eq, 0.0);
        m.add_constraint("choose", vec![(z1, 1.0), (z2, 1.0)], Cmp::Eq, 1.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!(sol.value(y2) > 0.5 && sol.value(z2) > 0.5);
        assert!((sol.value(f2) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn node_budget_returns_incumbent_or_limit() {
        // A problem big enough to need branching but trivially bounded.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_binary(format!("x{i}"), (i + 1) as f64))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint("cap", terms, Cmp::Le, 3.0);
        // Best: pick the three largest → 8+7+6 = 21.
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!((sol.objective - 21.0).abs() < 1e-6);
        // With a tiny node budget we still either get *a* feasible point or
        // a limit error — never a wrong "optimal".
        let tiny = MilpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        match solve_milp(&m, &tiny) {
            Ok(sol) => assert!(m.is_feasible(&sol.values, 1e-6)),
            Err(SolveError::IterationLimit) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn solution_is_feasible_in_original_model() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_int_var("x", 0.0, 10.0, 1.0);
        let y = m.add_int_var("y", 0.0, 10.0, 2.0);
        m.add_constraint("c1", vec![(x, 2.0), (y, 3.0)], Cmp::Ge, 12.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], Cmp::Le, 3.0);
        let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
    }
}
