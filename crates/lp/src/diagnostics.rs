//! Solution diagnostics: which constraints bind at a solution.
//!
//! When a consolidation model comes back with a surprising active set, the
//! first question is *which capacity constraints are binding*.
//! [`binding_constraints`] evaluates a solution against a model row by row.

use crate::model::{Cmp, Constraint, Model};
use crate::standard::Solution;

/// Slack of `c` at `values` toward the constraint boundary: non-negative
/// when satisfied; `rhs − lhs` for `≤`, `lhs − rhs` for `≥`,
/// `−|lhs − rhs|` for `=` deviations.
fn slack(c: &Constraint, values: &[f64]) -> f64 {
    let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
    match c.cmp {
        Cmp::Le => c.rhs - lhs,
        Cmp::Ge => lhs - c.rhs,
        Cmp::Eq => -(lhs - c.rhs).abs(),
    }
}

/// The names of the constraints whose slack at `solution` is within
/// `tol` (the bottlenecks).
pub(crate) fn binding_constraints(model: &Model, solution: &Solution, tol: f64) -> Vec<String> {
    model
        .constraints()
        .iter()
        .filter(|c| slack(c, &solution.values).abs() <= tol)
        .map(|c| c.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::standard::solve_lp;

    #[test]
    fn identifies_the_binding_row() {
        // max 3x + 2y s.t. x + y <= 4 (binding), x + 3y <= 6 (slack).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint("weighted", vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let sol = solve_lp(&m).unwrap(); // x=4, y=0
        assert_eq!(binding_constraints(&m, &sol, 1e-9), vec!["sum".to_string()]);
        // x+3y=4 < 6 has slack 2.
        assert!((slack(&m.constraints()[1], &sol.values) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_deviation_is_negative_slack() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint("fix", vec![(x, 1.0)], Cmp::Eq, 3.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(binding_constraints(&m, &sol, 1e-9), vec!["fix".to_string()]);
        assert!(slack(&m.constraints()[0], &sol.values).abs() < 1e-9);
        // A point violating the equality shows negative slack.
        let fake = Solution {
            objective: 5.0,
            values: vec![5.0],
        };
        assert!(slack(&m.constraints()[0], &fake.values) < -1.9);
        assert!(binding_constraints(&m, &fake, 1e-9).is_empty());
    }

    #[test]
    fn ge_slack_orientation() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint("atleast", vec![(x, 1.0)], Cmp::Ge, 2.0);
        let sol = solve_lp(&m).unwrap(); // x = 2 (binding)
        assert_eq!(
            binding_constraints(&m, &sol, 1e-6),
            vec!["atleast".to_string()]
        );
        let loose = Solution {
            objective: 7.0,
            values: vec![7.0],
        };
        assert!((slack(&m.constraints()[0], &loose.values) - 5.0).abs() < 1e-9);
    }
}
