//! Linear/mixed-integer program builder.
//!
//! The network crate builds the paper's consolidation model (eqs. 2–9) with
//! this API: continuous flow variables `f_i(u,v)`, binary on/off indicators
//! `X`, `Y`, `Z`, capacity and flow-conservation constraints, and a power
//! objective.

use std::fmt;

/// Handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The variable's index in the model (also its index in
    /// [`crate::Solution::values`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the paper's eq. 2 minimizes total power).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

/// A model variable.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
    /// Objective coefficient.
    pub obj: f64,
    /// Whether branch-and-bound must drive this variable integral.
    pub integer: bool,
}

/// A linear constraint `Σ aᵢxᵢ (≤|≥|=) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Sparse terms `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear or mixed-integer program.
///
/// ```
/// use eprons_lp::{Cmp, Model, Sense, solve_milp, MilpOptions};
/// // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6, x/y integer.
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.add_int_var("x", 0.0, f64::INFINITY, 5.0);
/// let y = m.add_int_var("y", 0.0, f64::INFINITY, 4.0);
/// m.add_constraint("c1", vec![(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
/// m.add_constraint("c2", vec![(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
/// let sol = solve_milp(&m, &MilpOptions::default()).unwrap();
/// assert!((sol.objective - 20.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimization direction.
    #[inline]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The variables.
    #[inline]
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The constraints.
    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and
    /// objective coefficient `obj`.
    ///
    /// # Panics
    /// Panics if `lower > upper` or any value is NaN.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64, obj: f64) -> VarId {
        self.push_var(name.into(), lower, upper, obj, false)
    }

    /// Adds an integer variable with bounds `[lower, upper]`.
    ///
    /// # Panics
    /// Panics if `lower > upper` or any value is NaN.
    pub fn add_int_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> VarId {
        self.push_var(name.into(), lower, upper, obj, true)
    }

    /// Adds a binary (0/1) variable — the paper's switch/link/path on-off
    /// indicators.
    pub fn add_binary(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.push_var(name.into(), 0.0, 1.0, obj, true)
    }

    fn push_var(&mut self, name: String, lower: f64, upper: f64, obj: f64, integer: bool) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan() && !obj.is_nan(),
            "NaN in variable"
        );
        assert!(
            lower <= upper,
            "variable {name}: lower bound exceeds upper bound"
        );
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name,
            lower,
            upper,
            obj,
            integer,
        });
        id
    }

    /// Adds a constraint. Terms referencing the same variable repeatedly
    /// are summed.
    ///
    /// # Panics
    /// Panics if a term references an unknown variable or contains NaN.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) {
        let name = name.into();
        assert!(!rhs.is_nan(), "constraint {name}: NaN rhs");
        for &(v, c) in &terms {
            assert!(v.0 < self.vars.len(), "constraint {name}: unknown variable");
            assert!(!c.is_nan(), "constraint {name}: NaN coefficient");
        }
        // Merge duplicate variables so the standard-form matrix is clean.
        let mut merged: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            if let Some(slot) = merged.iter_mut().find(|(w, _)| *w == v) {
                slot.1 += c;
            } else {
                merged.push((v, c));
            }
        }
        self.constraints.push(Constraint {
            name,
            terms: merged,
            cmp,
            rhs,
        });
    }

    /// Overrides the bounds of an existing variable (used by
    /// branch-and-bound to impose branching decisions).
    ///
    /// # Panics
    /// Panics if `lower > upper`.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(lower <= upper, "set_bounds: lower exceeds upper");
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// Evaluates the objective at a point (ignores feasibility).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Checks whether `x` satisfies every constraint and bound to within
    /// `tol`. Useful in tests and for validating heuristic solutions.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lower - tol || xi > v.upper + tol {
                return false;
            }
            if v.integer && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {} vars, {} constraints",
            match self.sense {
                Sense::Minimize => "minimize:",
                Sense::Maximize => "maximize:",
            },
            self.vars.len(),
            self.constraints.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_binary("y", 5.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 2.0)], Cmp::Le, 8.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.constraints().len(), 1);
        assert!(m.vars()[y.index()].integer);
        assert_eq!(m.vars()[y.index()].upper, 1.0);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint("c", vec![(x, 1.0), (x, 2.0)], Cmp::Le, 3.0);
        assert_eq!(m.constraints()[0].terms.len(), 1);
        assert_eq!(m.constraints()[0].terms[0].1, 3.0);
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        assert!(m.is_feasible(&[2.0, 0.0], 1e-9));
        assert!(m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 0.0], 1e-9)); // violates c1
        assert!(!m.is_feasible(&[6.0, 0.0], 1e-9)); // violates bound
        assert!(!m.is_feasible(&[2.0, 0.5], 1e-9)); // y not integral
        assert!(!m.is_feasible(&[2.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_eval() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_var("x", 0.0, 1.0, 3.0);
        let _y = m.add_var("y", 0.0, 1.0, -1.0);
        assert_eq!(m.objective_value(&[2.0, 4.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn invalid_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_variable_panics() {
        let mut m = Model::new(Sense::Minimize);
        m.add_constraint("c", vec![(VarId(3), 1.0)], Cmp::Le, 0.0);
    }
}
