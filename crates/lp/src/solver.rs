//! Backend selection: one entry point for every LP/MILP in the workspace.
//!
//! Formulation code builds a [`Model`](crate::model::Model) and calls
//! [`solve`]; the backend is chosen by problem size unless pinned. The
//! crossover threshold favours the exact simplex for anything it can finish
//! quickly and the first-order PDHG solver beyond that.

use crate::milp::{self, MilpConfig};
use crate::model::Model;
use crate::pdhg::{self, PdhgConfig};
use crate::simplex::{self, SimplexConfig};
use crate::solution::{Solution, SolveStats};
use crate::warm::{BackendKind, WarmEvent, WarmStart};

/// Which algorithm executes the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick by size: simplex below [`SolverConfig::auto_threshold`] rows,
    /// PDHG above. Models with integer variables always use branch & bound.
    #[default]
    Auto,
    /// Dense two-phase simplex (exact; small/medium problems).
    Simplex,
    /// Restarted averaged PDHG (approximate to tolerance; large problems).
    Pdhg,
}

/// Combined solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Backend choice.
    pub backend: Backend,
    /// Row-count threshold for [`Backend::Auto`].
    pub auto_threshold: usize,
    /// Simplex knobs.
    pub simplex: SimplexConfig,
    /// PDHG knobs.
    pub pdhg: PdhgConfig,
    /// Branch-and-bound knobs (integer models).
    pub milp: MilpConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            backend: Backend::Auto,
            auto_threshold: 1200,
            simplex: SimplexConfig::default(),
            pdhg: PdhgConfig::default(),
            milp: MilpConfig::default(),
        }
    }
}

impl SolverConfig {
    /// A configuration pinned to the exact simplex backend.
    pub fn exact() -> Self {
        SolverConfig { backend: Backend::Simplex, ..Default::default() }
    }

    /// A configuration pinned to the PDHG backend with the given tolerance.
    pub fn first_order(tol: f64) -> Self {
        let mut cfg = SolverConfig { backend: Backend::Pdhg, ..Default::default() };
        cfg.pdhg.tol = tol;
        cfg
    }
}

/// Solves `model` with the configured backend, timing the call.
pub fn solve(model: &Model, cfg: &SolverConfig) -> Solution {
    solve_with(model, cfg, None)
}

/// [`solve`] with an optional [`WarmStart`] from a previous solve of a
/// structurally identical model.
///
/// Each backend consumes the component it understands — simplex the basis,
/// PDHG the primal–dual point — and records a hit/miss in
/// [`SolveStats`](crate::solution::SolveStats). The MILP backend ignores
/// warm starts.
pub fn solve_with(model: &Model, cfg: &SolverConfig, warm: Option<&WarmStart>) -> Solution {
    let _span = arrow_obs::span!(
        "lp.solve",
        "rows" => model.num_cons(),
        "cols" => model.num_vars(),
        "warm" => warm.is_some(),
        "backend" => backend_label(model, cfg),
    );
    // arrow-lint: allow(wall-clock-in-core) — solve wall time reported in SolveStats; iteration counts, not time, bound the solve
    let start = std::time::Instant::now();
    let mut sol = solve_inner(model, cfg, warm);
    sol.stats.solve_seconds = start.elapsed().as_secs_f64();
    lp_metrics().record(&sol.stats);
    sol
}

/// Process-global work counters, flushed once per solve (never per pivot —
/// the hot loops accumulate locally in [`SolveStats`]).
struct LpMetrics {
    solves: arrow_obs::Counter,
    solve_seconds: arrow_obs::Histogram,
    simplex_iterations: arrow_obs::Counter,
    simplex_refactors: arrow_obs::Counter,
    pdhg_iterations: arrow_obs::Counter,
    pdhg_restarts: arrow_obs::Counter,
    milp_nodes: arrow_obs::Counter,
    warm_hit: arrow_obs::Counter,
    warm_miss: arrow_obs::Counter,
    warm_cold: arrow_obs::Counter,
}

impl LpMetrics {
    /// Flushes one solve: count, latency sample, backend work, warm event.
    fn record(&self, stats: &SolveStats) {
        self.solves.inc();
        self.solve_seconds.observe(stats.solve_seconds);
        match stats.backend {
            BackendKind::Simplex => {
                self.simplex_iterations.add(stats.iterations as u64);
                self.simplex_refactors.add(stats.refactors as u64);
            }
            BackendKind::Pdhg => {
                self.pdhg_iterations.add(stats.iterations as u64);
                self.pdhg_restarts.add(stats.restarts as u64);
            }
            BackendKind::Milp => self.milp_nodes.add(stats.nodes as u64),
            BackendKind::None => {}
        }
        match stats.warm {
            WarmEvent::Hit => self.warm_hit.inc(),
            WarmEvent::Miss => self.warm_miss.inc(),
            WarmEvent::Cold => self.warm_cold.inc(),
        }
    }
}

fn lp_metrics() -> &'static LpMetrics {
    static METRICS: std::sync::OnceLock<LpMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| LpMetrics {
        solves: arrow_obs::metrics::counter("lp.solves"),
        solve_seconds: arrow_obs::metrics::histogram(
            "lp.solve.seconds",
            &[1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0],
        ),
        simplex_iterations: arrow_obs::metrics::counter("lp.simplex.iterations"),
        simplex_refactors: arrow_obs::metrics::counter("lp.simplex.refactors"),
        pdhg_iterations: arrow_obs::metrics::counter("lp.pdhg.iterations"),
        pdhg_restarts: arrow_obs::metrics::counter("lp.pdhg.restarts"),
        milp_nodes: arrow_obs::metrics::counter("lp.milp.nodes"),
        warm_hit: arrow_obs::metrics::counter("lp.warm.hit"),
        warm_miss: arrow_obs::metrics::counter("lp.warm.miss"),
        warm_cold: arrow_obs::metrics::counter("lp.warm.cold"),
    })
}

/// The backend label a solve of `model` under `cfg` will use, for span
/// attribution (`lp.solve{backend=...}`): branch & bound for integer
/// models, otherwise the resolved [`Backend`].
fn backend_label(model: &Model, cfg: &SolverConfig) -> &'static str {
    if model.num_int_vars() > 0 {
        return "milp";
    }
    match concrete_backend(cfg, model.num_cons()) {
        Backend::Simplex => "simplex",
        Backend::Pdhg => "pdhg",
        Backend::Auto => "auto",
    }
}

/// Resolves [`Backend::Auto`] by row count; pinned backends pass through.
fn concrete_backend(cfg: &SolverConfig, rows: usize) -> Backend {
    match cfg.backend {
        Backend::Auto => {
            if rows <= cfg.auto_threshold {
                Backend::Simplex
            } else {
                Backend::Pdhg
            }
        }
        b => b,
    }
}

fn solve_inner(model: &Model, cfg: &SolverConfig, warm: Option<&WarmStart>) -> Solution {
    if model.num_int_vars() > 0 {
        let mut s = milp::solve(model, &cfg.milp);
        s.stats.backend = BackendKind::Milp;
        s.stats.rows = model.num_cons();
        s.stats.cols = model.num_vars();
        s.stats.nnz = model.nnz();
        return s;
    }
    let lp = model.to_standard();
    let backend = concrete_backend(cfg, lp.num_cons());
    let sol = if backend == Backend::Pdhg {
        pdhg::solve_warm(&lp, &cfg.pdhg, warm.and_then(|w| w.point.as_ref()))
    } else {
        simplex::solve_warm(&lp, &cfg.simplex, warm.and_then(|w| w.basis.as_ref()))
    };
    // Auto mode falls back to the first-order method when the simplex
    // loses numerical accuracy (rare, but recoverable).
    if cfg.backend == Backend::Auto
        && backend == Backend::Simplex
        && sol.status == crate::solution::Status::NumericalTrouble
    {
        pdhg::solve_warm(&lp, &cfg.pdhg, warm.and_then(|w| w.point.as_ref()))
    } else {
        sol
    }
}

/// Solves with default configuration.
pub fn solve_default(model: &Model) -> Solution {
    solve(model, &SolverConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Objective, Sense};
    use crate::solution::Status;

    fn tiny_model() -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::new().add(x, 1.0).add(y, 1.0), Sense::Le, 6.0, "cap");
        m.set_objective(LinExpr::new().add(x, 2.0).add(y, 1.0), Objective::Maximize);
        m
    }

    #[test]
    fn auto_picks_simplex_for_tiny_model() {
        let s = solve_default(&tiny_model());
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn pinned_backends_agree() {
        let m = tiny_model();
        let a = solve(&m, &SolverConfig::exact());
        let b = solve(&m, &SolverConfig::first_order(1e-8));
        assert_eq!(a.status, Status::Optimal);
        assert_eq!(b.status, Status::Optimal);
        assert!((a.objective - b.objective).abs() < 1e-4);
    }

    #[test]
    fn integer_model_routes_to_milp() {
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 9.0, "x");
        m.add_con(LinExpr::term(x, 2.0), Sense::Le, 7.0, "cap");
        m.set_objective(LinExpr::term(x, 1.0), Objective::Maximize);
        let s = solve_default(&m);
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!(s.stats.nodes >= 1);
    }

    #[test]
    fn solve_records_wall_time() {
        let s = solve_default(&tiny_model());
        assert!(s.stats.solve_seconds >= 0.0);
    }

    #[test]
    fn solve_flushes_obs_counters() {
        let before = arrow_obs::metrics::snapshot();
        let s = solve(&tiny_model(), &SolverConfig::exact());
        let after = arrow_obs::metrics::snapshot();
        // The simplex always refactorizes at least once (initial basis).
        assert!(s.stats.refactors >= 1);
        assert!(after.counter("lp.solves") > before.counter("lp.solves"));
        assert!(after.counter("lp.warm.cold") > before.counter("lp.warm.cold"));
        assert!(
            after.counter("lp.simplex.refactors")
                >= before.counter("lp.simplex.refactors") + s.stats.refactors as u64
        );
        let hist = after.histogram("lp.solve.seconds").expect("registered");
        assert!(hist.count > before.histogram("lp.solve.seconds").map_or(0, |h| h.count));
    }
}
