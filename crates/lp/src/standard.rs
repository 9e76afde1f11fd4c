//! Conversion of a [`Model`] to standard form and solution recovery.
//!
//! Standard form is `min c·y` subject to `A·y = b`, `y ≥ 0`, `b ≥ 0` —
//! the shape the crate's two-phase simplex (the private `simplex`
//! module) consumes.
//! Variable bounds are handled by substitution:
//!
//! * finite lower bound `l`: `x = l + y` (and a row `y ≤ u − l` if the
//!   upper bound is finite too);
//! * only a finite upper bound `u`: `x = u − y` (mirrored);
//! * free: `x = y⁺ − y⁻`.

use crate::model::{Cmp, Model, Sense};
use crate::simplex::{self, SolveError};
use eprons_obs as obs;

/// How an original variable maps onto standard-form column(s).
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = offset + y[col]`
    Shifted { col: usize, offset: f64 },
    /// `x = offset − y[col]`
    Mirrored { col: usize, offset: f64 },
    /// `x = y[pos] − y[neg]`
    Split { pos: usize, neg: usize },
}

/// A solved LP/MILP.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value in the *original* model's sense.
    pub objective: f64,
    /// Value of each original model variable, indexed by [`crate::VarId`].
    pub values: Vec<f64>,
}

impl Solution {
    /// Value of a variable.
    #[inline]
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }
}

/// A standard-form program plus the mapping back to model variables.
pub(crate) struct Standardized {
    /// Constraint matrix, `m × n`, flat row-major: the layout the dense
    /// tableau copies its rows from.
    a: Vec<f64>,
    /// Right-hand sides, all non-negative.
    b: Vec<f64>,
    /// Objective coefficients (always minimize).
    c: Vec<f64>,
    /// Constant objective offset introduced by the substitutions.
    c0: f64,
    /// `true` if the original model maximized (objective negated here).
    negated: bool,
    /// Per-row: the column of a slack usable as the initial basis, if any.
    slack_basis: Vec<Option<usize>>,
    maps: Vec<VarMap>,
}

impl Standardized {
    /// Converts a model, ignoring integrality (the LP relaxation).
    pub(crate) fn from_model(model: &Model) -> Self {
        let negated = model.sense == Sense::Maximize;
        let sign = if negated { -1.0 } else { 1.0 };

        // Assign standard-form columns to variables.
        let mut maps = Vec::with_capacity(model.vars.len());
        let mut n = 0usize;
        // Rows for finite upper bounds of shifted variables: (col, ub-lb).
        let mut ub_rows: Vec<(usize, f64)> = Vec::new();
        for v in &model.vars {
            let (lb, ub) = (v.lower, v.upper);
            if lb.is_finite() {
                let col = n;
                n += 1;
                maps.push(VarMap::Shifted { col, offset: lb });
                if ub.is_finite() {
                    ub_rows.push((col, ub - lb));
                }
            } else if ub.is_finite() {
                let col = n;
                n += 1;
                maps.push(VarMap::Mirrored { col, offset: ub });
            } else {
                let pos = n;
                let neg = n + 1;
                n += 2;
                maps.push(VarMap::Split { pos, neg });
            }
        }

        // Objective in terms of standard-form columns.
        let mut c = vec![0.0; n];
        let mut c0 = 0.0;
        for (v, map) in model.vars.iter().zip(&maps) {
            let coeff = sign * v.obj;
            match *map {
                VarMap::Shifted { col, offset } => {
                    c[col] += coeff;
                    c0 += coeff * offset;
                }
                VarMap::Mirrored { col, offset } => {
                    c[col] -= coeff;
                    c0 += coeff * offset;
                }
                VarMap::Split { pos, neg } => {
                    c[pos] += coeff;
                    c[neg] -= coeff;
                }
            }
        }

        // Build rows: model constraints + upper-bound rows. Slacks are
        // appended after all structural columns.
        struct Row {
            coeffs: Vec<(usize, f64)>,
            cmp: Cmp,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(model.constraints.len() + ub_rows.len());
        for con in &model.constraints {
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(con.terms.len() + 1);
            let mut rhs = con.rhs;
            for &(vid, a) in &con.terms {
                match maps[vid.index()] {
                    VarMap::Shifted { col, offset } => {
                        coeffs.push((col, a));
                        rhs -= a * offset;
                    }
                    VarMap::Mirrored { col, offset } => {
                        coeffs.push((col, -a));
                        rhs -= a * offset;
                    }
                    VarMap::Split { pos, neg } => {
                        coeffs.push((pos, a));
                        coeffs.push((neg, -a));
                    }
                }
            }
            rows.push(Row {
                coeffs,
                cmp: con.cmp,
                rhs,
            });
        }
        for &(col, ub) in &ub_rows {
            rows.push(Row {
                coeffs: vec![(col, 1.0)],
                cmp: Cmp::Le,
                rhs: ub,
            });
        }

        // Allocate slack/surplus columns and emit the matrix as
        // `(row, col, value)` triplets with non-negative rhs.
        let m = rows.len();
        let mut slack_cols = 0usize;
        let mut nnz_guess = 0usize;
        for row in &rows {
            if row.cmp != Cmp::Eq {
                slack_cols += 1;
                nnz_guess += 1;
            }
            nnz_guess += row.coeffs.len();
        }
        let total = n + slack_cols;
        let mut trip: Vec<(u32, u32, f64)> = Vec::with_capacity(nnz_guess);
        let mut b = vec![0.0; m];
        let mut slack_basis = vec![None; m];
        let mut next_slack = n;
        for (i, row) in rows.iter().enumerate() {
            // Sign-normalize so rhs >= 0 (flips Le<->Ge).
            let (flip, rhs) = if row.rhs < 0.0 {
                (true, -row.rhs)
            } else {
                (false, row.rhs)
            };
            let cmp = match (row.cmp, flip) {
                (Cmp::Eq, _) => Cmp::Eq,
                (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
                (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            };
            let s = if flip { -1.0 } else { 1.0 };
            for &(col, coef) in &row.coeffs {
                trip.push((i as u32, col as u32, s * coef));
            }
            b[i] = rhs;
            match cmp {
                Cmp::Le => {
                    trip.push((i as u32, next_slack as u32, 1.0));
                    slack_basis[i] = Some(next_slack);
                    next_slack += 1;
                }
                Cmp::Ge => {
                    trip.push((i as u32, next_slack as u32, -1.0));
                    next_slack += 1;
                }
                Cmp::Eq => {}
            }
        }
        let a = scatter_row_major(m, total, trip);

        // Slack columns carry zero cost.
        c.resize(total, 0.0);

        Standardized {
            a,
            b,
            c,
            c0,
            negated,
            slack_basis,
            maps,
        }
    }

    /// Number of structural + slack columns.
    pub(crate) fn num_cols(&self) -> usize {
        self.c.len()
    }

    /// Number of rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.b.len()
    }

    /// Solves the standard-form program with the two-phase simplex and maps
    /// the solution back onto the original model's variables, also
    /// returning the pivot count.
    pub(crate) fn solve(&self) -> Result<(Solution, u64), SolveError> {
        let (y, pivots) = simplex::solve_flat(
            &self.a,
            self.num_rows(),
            self.num_cols(),
            &self.b,
            &self.c,
            &self.slack_basis,
        )?;
        if obs::enabled() {
            obs::registry().counter("lp.pivots").add(pivots);
        }
        Ok((self.recover(&y), pivots))
    }

    /// Maps a standard-form point back onto the original model variables.
    fn recover(&self, y: &[f64]) -> Solution {
        let mut values = vec![0.0; self.maps.len()];
        for (i, map) in self.maps.iter().enumerate() {
            values[i] = match *map {
                VarMap::Shifted { col, offset } => offset + y[col],
                VarMap::Mirrored { col, offset } => offset - y[col],
                VarMap::Split { pos, neg } => y[pos] - y[neg],
            };
        }
        let mut objective = self.c0 + self.c.iter().zip(y).map(|(c, y)| c * y).sum::<f64>();
        if self.negated {
            objective = -objective;
        }
        Solution { objective, values }
    }
}

/// Scatters `(row, col, value)` triplets into a flat row-major `m × n`
/// matrix, summing duplicate coordinates. The triplets are sorted by
/// `(col, row)` first and duplicates summed in that sorted order: this
/// fixes the bits of every coefficient assembled from several terms, and
/// they are the bits the figure goldens were produced with.
///
/// # Panics
/// Panics when a triplet indexes outside `m × n`.
fn scatter_row_major(m: usize, n: usize, mut trip: Vec<(u32, u32, f64)>) -> Vec<f64> {
    trip.sort_unstable_by_key(|&(r, c, _)| (c, r));
    let mut flat = vec![0.0; m * n];
    let mut last: Option<(u32, u32)> = None;
    for (r, c, v) in trip {
        assert!((r as usize) < m && (c as usize) < n, "triplet out of range");
        let cell = &mut flat[r as usize * n + c as usize];
        if last == Some((c, r)) {
            *cell += v;
        } else {
            *cell = v;
        }
        last = Some((c, r));
    }
    flat
}

/// Solves the LP relaxation of `model` (integrality ignored).
///
/// With telemetry enabled this times the solve (`lp.solve_s`), counts
/// successes/failures, and journals an `LpSolve` event carrying pivot
/// counts and the binding constraints of the optimum.
pub fn solve_lp(model: &Model) -> Result<Solution, SolveError> {
    let std_form = Standardized::from_model(model);
    if !obs::enabled() {
        return std_form.solve().map(|(sol, _)| sol);
    }
    let _t = obs::Timer::scoped("lp.solve_s");
    let mut sp = obs::Span::enter("lp.solve");
    match std_form.solve() {
        Ok((sol, pivots)) => {
            sp.note(format!(
                "rows={} cols={} pivots={pivots}",
                std_form.num_rows(),
                std_form.num_cols(),
            ));
            obs::registry().counter("lp.solve.ok").inc();
            obs::record(obs::Event::LpSolve {
                rows: std_form.num_rows() as u64,
                cols: std_form.num_cols() as u64,
                iters: pivots,
                binding_constraints: crate::diagnostics::binding_constraints(model, &sol, 1e-7),
            });
            Ok(sol)
        }
        Err(e) => {
            sp.note(format!("error={e}"));
            obs::registry().counter("lp.solve.err").inc();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn simple_minimization() {
        // min x + y  s.t. x + y >= 2, x >= 0, y >= 0  → obj 2
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
        assert!(m.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6  → x=4, y=0, obj 12
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 12.0).abs() < 1e-9);
        assert!((sol.value(x) - 4.0).abs() < 1e-9);
        assert!(sol.value(y).abs() < 1e-9);
    }

    #[test]
    fn classic_textbook_lp() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 → x=3, y=1.5, obj 21
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 5.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 4.0);
        m.add_constraint("c1", vec![(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 21.0).abs() < 1e-9);
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
        assert!((sol.value(y) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 24
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint("diff", vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.value(x) - 6.0).abs() < 1e-9);
        assert!((sol.value(y) - 4.0).abs() < 1e-9);
        assert!((sol.objective - 24.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("c", vec![(x, 1.0)], Cmp::Ge, 5.0);
        assert!(matches!(solve_lp(&m), Err(SolveError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, 1.0)], Cmp::Ge, 0.0);
        assert!(matches!(solve_lp(&m), Err(SolveError::Unbounded)));
    }

    #[test]
    fn bounds_are_respected() {
        // min -x with 0 <= x <= 7 → x = 7
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 7.0, -1.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-9);
        assert!((sol.objective + 7.0).abs() < 1e-9);
    }

    #[test]
    fn shifted_lower_bound() {
        // min x with x >= 3 → x = 3
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 3.0, f64::INFINITY, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mirrored_variable_upper_bound_only() {
        // max x with x <= 5 (no lower bound) → x = 5
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 5.0, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.value(x) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_split() {
        // min |shape|: min x s.t. x >= -4 is unbounded-free? Use:
        // min x s.t. x + y = 0, y <= 3, y >= 0, x free → x = -3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, 3.0, 0.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 0.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.value(x) + 3.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // min x + y s.t. -x - y <= -2  (i.e. x + y >= 2)
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, -1.0), (y, -1.0)], Cmp::Le, -2.0);
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn triplets_merge_duplicates() {
        let flat = scatter_row_major(
            2,
            2,
            vec![(0, 0, 1.0), (1, 1, 2.0), (0, 0, 3.0), (1, 0, 0.5)],
        );
        assert_eq!(flat, vec![4.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // A classically degenerate problem (multiple ties in ratio test).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = m.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = m.add_var("z", 0.0, f64::INFINITY, 0.02);
        let w = m.add_var("w", 0.0, f64::INFINITY, -6.0);
        m.add_constraint(
            "r1",
            vec![(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Cmp::Le,
            0.0,
        );
        m.add_constraint(
            "r2",
            vec![(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Cmp::Le,
            0.0,
        );
        m.add_constraint("r3", vec![(z, 1.0)], Cmp::Le, 1.0);
        // Beale's cycling example; optimal objective is 0.05.
        let sol = solve_lp(&m).unwrap();
        assert!((sol.objective - 0.05).abs() < 1e-9);
    }
}
