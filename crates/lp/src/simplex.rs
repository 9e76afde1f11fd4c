//! Dense two-phase primal simplex.
//!
//! Operates on standard form: `min c·y` s.t. `A·y = b`, `y ≥ 0`, `b ≥ 0`.
//! Phase 1 introduces artificial variables for rows without a ready slack
//! basis and minimizes their sum; phase 2 optimizes the true objective.
//! Pivoting uses Dantzig's rule, falling back permanently to Bland's rule
//! after a run of non-improving (degenerate) iterations so the method
//! provably terminates (Beale's cycling example is a unit test in
//! [`crate::standard`]).
//!
//! The tableau lives in a single flat row-major buffer (`m × (n+1)`
//! doubles, stride `n+1`) rather than a `Vec<Vec<f64>>`: one allocation,
//! no per-row pointer chase, and the pivot's row updates walk contiguous
//! memory.

// Dense-tableau pivoting is clearer with explicit indices than with
// iterator adapters; silence the style lint for this module.
#![allow(clippy::needless_range_loop)]

/// Solver failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below (for minimization).
    Unbounded,
    /// The pivot limit was exhausted (should not happen with Bland's rule;
    /// kept as a defensive backstop).
    IterationLimit,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit reached"),
        }
    }
}

impl std::error::Error for SolveError {}

const TOL: f64 = 1e-9;
/// Consecutive degenerate pivots tolerated before switching to Bland's rule.
const DEGENERATE_LIMIT: u32 = 32;

/// The working tableau: one flat row-major buffer, stride `n+1` (last
/// column is the rhs), plus the reduced-cost row.
struct Tableau {
    /// `m × (n+1)` values, row-major; entry `(i, j)` is `data[i*(n+1)+j]`.
    data: Vec<f64>,
    /// Reduced-cost row, length `n+1`; last entry is `-objective`.
    cost: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Total columns excluding rhs (the row stride is `n+1`).
    n: usize,
    /// Row count.
    m: usize,
    /// Pivots performed so far (all phases).
    pivots: u64,
    /// Reusable snapshot of the pivot row (avoids a per-pivot allocation).
    scratch: Vec<f64>,
}

impl Tableau {
    /// `m × (n+1)` zero tableau.
    fn zeroed(m: usize, n: usize) -> Self {
        Tableau {
            data: vec![0.0; m * (n + 1)],
            cost: vec![0.0; n + 1],
            basis: vec![0; m],
            n,
            m,
            pivots: 0,
            scratch: vec![0.0; n + 1],
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * (self.n + 1) + j]
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        let s = self.n + 1;
        &self.data[i * s..(i + 1) * s]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let s = self.n + 1;
        &mut self.data[i * s..(i + 1) * s]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.at(row, col);
        debug_assert!(piv.abs() > TOL, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        for v in self.row_mut(row).iter_mut() {
            *v *= inv;
        }
        // Snapshot the pivot row to avoid aliasing while updating others.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.copy_from_slice(self.row(row));
        for i in 0..self.m {
            if i == row {
                continue;
            }
            let factor = self.at(i, col);
            if factor.abs() > 0.0 {
                let r = self.row_mut(i);
                for (v, &p) in r.iter_mut().zip(&scratch) {
                    *v -= factor * p;
                }
                r[col] = 0.0; // kill round-off exactly
            }
        }
        let factor = self.cost[col];
        if factor.abs() > 0.0 {
            for (v, &p) in self.cost.iter_mut().zip(&scratch) {
                *v -= factor * p;
            }
            self.cost[col] = 0.0;
        }
        self.scratch = scratch;
        self.basis[row] = col;
    }

    /// Subtracts `cb ×` row `i` from the cost row (reduced-cost setup).
    fn price_out(&mut self, i: usize, cb: f64) {
        let s = self.n + 1;
        let (head, tail) = self.data.split_at(i * s);
        let _ = head;
        let row = &tail[..s];
        for (v, &p) in self.cost.iter_mut().zip(row) {
            *v -= cb * p;
        }
    }

    /// Runs the simplex loop to optimality on the current cost row.
    /// `allowed` masks columns that may enter the basis.
    fn optimize(&mut self, allowed: &[bool]) -> Result<(), SolveError> {
        let m = self.m;
        let max_iters = 50_000 + 200 * (self.n + m);
        let mut degenerate_run = 0u32;
        let mut bland = false;
        let mut last_obj = self.cost[self.n];
        for _ in 0..max_iters {
            // Entering column.
            let mut enter: Option<usize> = None;
            if bland {
                for j in 0..self.n {
                    if allowed[j] && self.cost[j] < -TOL {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -TOL;
                for j in 0..self.n {
                    if allowed[j] && self.cost[j] < best {
                        best = self.cost[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(()); // optimal
            };

            // Ratio test (Bland tie-break: smallest basis column).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = self.at(i, col);
                if a > TOL {
                    let ratio = self.at(i, self.n) / a;
                    let better = ratio < best_ratio - TOL
                        || (ratio < best_ratio + TOL
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(row) = leave else {
                return Err(SolveError::Unbounded);
            };

            self.pivot(row, col);

            // Degeneracy watch: cost[n] is -objective and should be
            // non-decreasing as the objective falls.
            let obj = self.cost[self.n];
            if (obj - last_obj).abs() <= TOL {
                degenerate_run += 1;
                if degenerate_run >= DEGENERATE_LIMIT {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }
            last_obj = obj;
        }
        Err(SolveError::IterationLimit)
    }
}

/// Solves `min c·y` s.t. `A·y = b`, `y ≥ 0` over a flat row-major
/// `m × n` matrix and returns the optimal `y` with the pivot count (both
/// phases; `LpSolve` journal events carry it).
///
/// `slack_basis[i]`, when present, names a column of row `i` whose
/// coefficient is `+1` and which appears in no other row — a ready-made
/// initial basic variable (the `≤`-row slack emitted by
/// [`crate::standard`]). Rows without one receive a phase-1 artificial.
///
/// # Panics
/// Panics on dimension mismatches or negative `b`.
pub(crate) fn solve_flat(
    a_flat: &[f64],
    m: usize,
    n: usize,
    b: &[f64],
    c: &[f64],
    slack_basis: &[Option<usize>],
) -> Result<(Vec<f64>, u64), SolveError> {
    assert_eq!(a_flat.len(), m * n, "flat matrix size mismatch");
    assert_eq!(b.len(), m, "b length mismatch");
    assert_eq!(c.len(), n, "c length mismatch");
    assert_eq!(slack_basis.len(), m, "slack_basis length mismatch");
    assert!(b.iter().all(|&v| v >= 0.0), "standard form requires b >= 0");

    // Count artificials.
    let artificials: Vec<usize> = (0..m).filter(|&i| slack_basis[i].is_none()).collect();
    let n_art = artificials.len();
    let total = n + n_art;

    let mut tab = Tableau::zeroed(m, total);
    {
        let mut next_art = n;
        for i in 0..m {
            let src = &a_flat[i * n..(i + 1) * n];
            let r = tab.row_mut(i);
            r[..n].copy_from_slice(src);
            r[total] = b[i];
            match slack_basis[i] {
                Some(col) => tab.basis[i] = col,
                None => {
                    tab.row_mut(i)[next_art] = 1.0;
                    tab.basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
    }

    // ---- Phase 1: minimize the sum of artificials. ----
    if n_art > 0 {
        for j in n..total {
            tab.cost[j] = 1.0;
        }
        // Make reduced costs of the basic artificials zero.
        for i in 0..m {
            if tab.basis[i] >= n {
                tab.price_out(i, 1.0);
            }
        }
        let allowed = vec![true; total];
        tab.optimize(&allowed)?;
        // cost[total] = -objective; feasible iff objective ≈ 0.
        if -tab.cost[total] > 1e-7 {
            return Err(SolveError::Infeasible);
        }
        // Drive any artificial still basic (at zero) out of the basis.
        for i in 0..m {
            if tab.basis[i] >= n {
                let col = (0..n).find(|&j| tab.at(i, j).abs() > 1e-7);
                if let Some(j) = col {
                    tab.pivot(i, j);
                }
                // If no structural column is available the row is redundant
                // (all-zero); the artificial stays basic at value 0, which
                // is harmless because artificials are barred from phase 2.
            }
        }
    }

    // ---- Phase 2: the true objective. ----
    tab.cost.fill(0.0);
    tab.cost[..n].copy_from_slice(c);
    for i in 0..m {
        let bcol = tab.basis[i];
        let cb = if bcol < n { c[bcol] } else { 0.0 };
        if cb != 0.0 {
            tab.price_out(i, cb);
        }
    }
    let mut allowed = vec![true; total];
    for j in n..total {
        allowed[j] = false; // artificials may not re-enter
    }
    tab.optimize(&allowed)?;

    // Extract the solution.
    let mut y = vec![0.0; n];
    for i in 0..m {
        if tab.basis[i] < n {
            y[tab.basis[i]] = tab.at(i, total);
        }
    }
    Ok((y, tab.pivots))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`solve_flat`] over a slice-of-rows matrix, discarding the pivot
    /// count.
    fn solve(
        a: &[Vec<f64>],
        b: &[f64],
        c: &[f64],
        slack_basis: &[Option<usize>],
    ) -> Result<Vec<f64>, SolveError> {
        let flat: Vec<f64> = a.concat();
        solve_flat(&flat, a.len(), c.len(), b, c, slack_basis).map(|(y, _)| y)
    }

    /// min -x1 - 2x2 s.t. x1 + x2 + s = 3  → x2 = 3, obj -6.
    #[test]
    fn single_le_row() {
        let a = vec![vec![1.0, 1.0, 1.0]];
        let b = vec![3.0];
        let c = vec![-1.0, -2.0, 0.0];
        let y = solve(&a, &b, &c, &[Some(2)]).unwrap();
        assert!((y[1] - 3.0).abs() < 1e-9);
        assert!(y[0].abs() < 1e-9);
    }

    /// Equality row forcing phase 1.
    #[test]
    fn equality_needs_artificial() {
        // min x1 + x2 s.t. x1 + x2 = 4 → obj 4.
        let a = vec![vec![1.0, 1.0]];
        let b = vec![4.0];
        let c = vec![1.0, 1.0];
        let y = solve(&a, &b, &c, &[None]).unwrap();
        assert!((y[0] + y[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_system() {
        // x1 = 2 and x1 = 3 simultaneously.
        let a = vec![vec![1.0], vec![1.0]];
        let b = vec![2.0, 3.0];
        let c = vec![0.0];
        assert_eq!(
            solve(&a, &b, &c, &[None, None]),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn unbounded_problem() {
        // min -x1 s.t. x1 - s = 0 (x1 >= 0 unbounded upward).
        let a = vec![vec![1.0, -1.0]];
        let b = vec![0.0];
        let c = vec![-1.0, 0.0];
        assert_eq!(solve(&a, &b, &c, &[None]), Err(SolveError::Unbounded));
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        // x1 + x2 = 2 stated twice.
        let a = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let b = vec![2.0, 2.0];
        let c = vec![1.0, 0.0];
        let y = solve(&a, &b, &c, &[None, None]).unwrap();
        assert!(y[0].abs() < 1e-9);
        assert!((y[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counted_solve_reports_pivots() {
        let a = [1.0, 1.0, 1.0];
        let c = [-1.0, -2.0, 0.0];
        let (y, pivots) = solve_flat(&a, 1, 3, &[3.0], &c, &[Some(2)]).unwrap();
        assert!((y[1] - 3.0).abs() < 1e-9);
        assert!(pivots >= 1, "at least one pivot expected");
    }

    #[test]
    fn solution_satisfies_constraints() {
        // Random-ish 3x5 feasible system, checked for Ax=b.
        let a = vec![
            vec![1.0, 2.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 1.0],
            vec![2.0, 0.0, 1.0, 0.0, 0.0],
        ];
        let b = vec![4.0, 3.0, 5.0];
        let c = vec![1.0, 1.0, 1.0, 0.1, 0.1];
        let y = solve(&a, &b, &c, &[None, None, None]).unwrap();
        for (row, &bi) in a.iter().zip(&b) {
            let lhs: f64 = row.iter().zip(&y).map(|(a, y)| a * y).sum();
            assert!((lhs - bi).abs() < 1e-7, "row violated: {lhs} vs {bi}");
        }
        assert!(y.iter().all(|&v| v >= -1e-9));
    }
}
