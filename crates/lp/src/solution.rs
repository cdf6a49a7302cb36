//! Solver-independent solution and status types.

use crate::model::{Model, VarId};
use crate::warm::{BackendKind, Basis, PrimalDual, WarmEvent, WarmStart};

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal (within tolerance) solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
    /// The time limit was reached before convergence.
    TimeLimit,
    /// The solver lost numerical accuracy and could not recover.
    NumericalTrouble,
}

impl Status {
    /// `true` for [`Status::Optimal`].
    pub fn is_optimal(self) -> bool {
        matches!(self, Status::Optimal)
    }

    /// `true` when the returned point is meaningful: either optimal or the
    /// best iterate at an iteration/time limit (approximately optimal for
    /// the first-order backend). Infeasible/unbounded/numerical failures
    /// return no usable point.
    pub fn is_usable(self) -> bool {
        matches!(self, Status::Optimal | Status::IterationLimit | Status::TimeLimit)
    }
}

/// Counters describing how hard the solver worked and what it worked on.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Simplex pivots or PDHG iterations performed.
    pub iterations: usize,
    /// Wall-clock seconds spent inside the solver.
    pub solve_seconds: f64,
    /// Branch-and-bound nodes explored (MILP only).
    pub nodes: usize,
    /// Constraint rows of the solved standard form.
    pub rows: usize,
    /// Structural variables of the solved standard form.
    pub cols: usize,
    /// Nonzero constraint coefficients of the solved standard form.
    pub nnz: usize,
    /// Which backend actually executed the solve.
    pub backend: BackendKind,
    /// What happened to the warm start, if one was supplied.
    pub warm: WarmEvent,
    /// Adaptive restarts performed (PDHG only).
    pub restarts: usize,
    /// Basis refactorizations performed (simplex only).
    pub refactors: usize,
}

/// The result of solving a model.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Primal values, indexed by [`VarId::index`]. Empty on failure.
    pub x: Vec<f64>,
    /// Objective value in the *user's* optimization direction.
    pub objective: f64,
    /// Dual values per constraint row, in the user's direction (a positive
    /// dual on a `<=` row of a maximization means the row is binding and
    /// relaxing it by one unit gains that much objective). Empty on failure
    /// or for backends that do not produce duals.
    pub duals: Vec<f64>,
    /// Final simplex basis (optimal simplex solves only); feed it back via
    /// [`Solution::warm_start`] to accelerate the next related solve.
    pub basis: Option<Basis>,
    /// Work counters.
    pub stats: SolveStats,
}

impl Solution {
    /// A failure placeholder carrying only the status.
    pub fn failed(status: Status, num_vars: usize, _num_cons: usize) -> Self {
        Solution {
            status,
            x: vec![0.0; num_vars],
            objective: f64::NAN,
            duals: Vec::new(),
            basis: None,
            stats: SolveStats::default(),
        }
    }

    /// Packages this solution as a [`WarmStart`] for a follow-up solve of a
    /// structurally identical model (same rows/columns/coefficients; bounds
    /// and right-hand sides may differ). Returns `None` when the solve left
    /// no usable point.
    pub fn warm_start(&self) -> Option<WarmStart> {
        if !self.status.is_usable() || self.x.is_empty() {
            return None;
        }
        Some(WarmStart {
            basis: self.basis.clone(),
            point: Some(PrimalDual { x: self.x.clone(), y: self.duals.clone() }),
        })
    }

    /// Value of a variable in this solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.index()]
    }

    /// Worst constraint/bound violation of this solution against `model`.
    pub fn violation(&self, model: &Model) -> f64 {
        model.max_violation(&self.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_solution_has_nan_objective() {
        let s = Solution::failed(Status::Infeasible, 3, 2);
        assert_eq!(s.status, Status::Infeasible);
        assert!(s.objective.is_nan());
        assert_eq!(s.x.len(), 3);
        assert!(!s.status.is_optimal());
        assert!(Status::Optimal.is_optimal());
    }

    #[test]
    fn failed_solution_yields_no_warm_start() {
        assert!(Solution::failed(Status::Infeasible, 3, 2).warm_start().is_none());
    }
}
