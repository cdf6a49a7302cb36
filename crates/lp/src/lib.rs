//! # arrow-lp — linear & mixed-integer programming toolkit
//!
//! The ARROW paper solves its traffic-engineering formulations with Gurobi.
//! This crate is the from-scratch substitute: a model builder plus three
//! solver backends, all in safe Rust with zero dependencies.
//!
//! * [`simplex`] — bounded-variable two-phase revised simplex. Exact; the
//!   workhorse for problems up to a few thousand rows.
//! * [`pdhg`] — PDLP-style restarted primal–dual hybrid gradient. Scales to
//!   very large LPs (ARROW Phase I with many LotteryTickets × scenarios);
//!   converges to a relative KKT tolerance.
//! * [`milp`] — LP-based branch & bound for the small integer formulations
//!   (Appendix A.5 ticket selection, exact RWA on toy instances).
//!
//! The usual entry point is [`solver::solve`], which auto-selects a backend:
//!
//! ```
//! use arrow_lp::model::{LinExpr, Model, Objective, Sense};
//!
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 4.0, "x");
//! let y = m.add_nonneg("y");
//! m.add_con(LinExpr::new().add(x, 3.0).add(y, 2.0), Sense::Le, 18.0, "cap");
//! m.set_objective(LinExpr::new().add(x, 3.0).add(y, 5.0), Objective::Maximize);
//! let sol = arrow_lp::solver::solve_default(&m);
//! assert!(sol.status.is_optimal());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod milp;
pub mod model;
pub mod mps;
pub mod pdhg;
pub mod simplex;
pub mod solution;
pub mod solver;
pub mod sparse;
pub mod warm;

pub use model::{ConId, LinExpr, Model, Objective, Sense, VarId, INF};
pub use solution::{Solution, SolveStats, Status};
pub use solver::{solve, solve_default, solve_with, Backend, SolverConfig};
pub use warm::{BackendKind, Basis, ColStatus, PrimalDual, WarmEvent, WarmStart};
