//! Linear-programming substrate for the EPRONS reproduction, built from
//! scratch.
//!
//! The paper formulates latency-aware traffic consolidation as a linear
//! program (eqs. 2–9) and solves it with CPLEX (§IV-B). Mature LP crates
//! being unavailable in this environment (see DESIGN.md), this crate
//! provides the exact oracle in-house, on one path:
//!
//! * [`model`] — a problem builder: variables with bounds (continuous or
//!   integer/binary), linear constraints, minimize/maximize objective.
//! * [`standard`] — conversion to standard form (`min c·x`, `Ax = b`,
//!   `x ≥ 0`) with slack/surplus variables and bound shifting, and
//!   [`standard::solve_lp`] for the LP relaxation.
//! * a dense two-phase primal simplex (flat row-major tableau) with
//!   Bland's anti-cycling rule.
//! * [`milp`] — branch-and-bound over the integer variables (the paper's
//!   X/Y/Z on-off indicators are binary), with most-fractional branching
//!   and incumbent pruning.
//! * a constraint-activity analysis that names the constraints binding
//!   at the optimum (the `LpSolve` journal event's bottlenecks).
//!
//! The paper's own data point is that the exact model is *slow* (42 min
//! for 3000 flows on CPLEX) and a greedy heuristic is used in deployment
//! — reproduced in `eprons-net::consolidate`. The exact model is solved
//! only on small instances: the fig02 table, fig15's k=2 cross-check and
//! the tests that hold the heuristics against it.

#![warn(missing_docs)]

mod diagnostics;
pub mod milp;
pub mod model;
mod simplex;
pub mod standard;

pub use milp::{solve_milp, MilpOptions};
pub use model::{Cmp, Model, Sense, VarId};
pub use simplex::SolveError;
pub use standard::Solution;
