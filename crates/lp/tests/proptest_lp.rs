//! Property-based tests of the LP toolkit on randomly generated programs.

use arrow_lp::model::{LinExpr, Model, Objective, Sense};
use arrow_lp::{SolverConfig, Status};
use proptest::prelude::*;

/// A random box-constrained LP with `m` dense `<=` rows built so that the
/// origin-ish corner is always feasible (nonnegative rhs).
fn random_lp(
    n: usize,
    coeffs: &[f64],
    rhs: &[f64],
    costs: &[f64],
) -> (Model, Vec<arrow_lp::VarId>) {
    let mut model = Model::new();
    let vars: Vec<_> = (0..n).map(|j| model.add_var(0.0, 10.0, format!("x{j}"))).collect();
    let m = rhs.len();
    for i in 0..m {
        let mut e = LinExpr::new();
        for (j, &v) in vars.iter().enumerate() {
            e.add_term(v, coeffs[i * n + j]);
        }
        model.add_con(e, Sense::Le, rhs[i].abs() + 1.0, format!("c{i}"));
    }
    let obj = LinExpr::sum(vars.iter().copied().zip(costs.iter().copied()));
    model.set_objective(obj, Objective::Maximize);
    (model, vars)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The simplex always terminates with an optimal, feasible point on
    /// feasible bounded LPs, and PDHG agrees with it.
    #[test]
    fn backends_agree_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m.min(seed_rhs.len())], &seed_rhs[..m], &seed_costs[..n]);
        let exact = arrow_lp::solve(&model, &SolverConfig::exact());
        prop_assert_eq!(exact.status, Status::Optimal);
        prop_assert!(exact.violation(&model) < 1e-6, "simplex infeasible point");
        let fo = arrow_lp::solve(&model, &SolverConfig::first_order(1e-7));
        prop_assert!(fo.status.is_usable());
        if fo.status == Status::Optimal {
            let scale = 1.0 + exact.objective.abs();
            prop_assert!(
                (exact.objective - fo.objective).abs() / scale < 2e-3,
                "simplex {} vs pdhg {}", exact.objective, fo.objective
            );
        }
    }

    /// Weak duality spot-check: the simplex duals price the optimum
    /// (strong duality holds at optimality: c'x* = y'b + bound terms).
    #[test]
    fn duals_price_binding_rows(
        cap1 in 1.0f64..20.0,
        cap2 in 1.0f64..20.0,
    ) {
        // max x + y s.t. x <= cap1, y <= cap2 with x,y in [0, 10].
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::term(x, 1.0), Sense::Le, cap1, "c1");
        m.add_con(LinExpr::term(y, 1.0), Sense::Le, cap2, "c2");
        m.set_objective(LinExpr::new().add(x, 1.0).add(y, 1.0), Objective::Maximize);
        let sol = arrow_lp::solve(&m, &SolverConfig::exact());
        prop_assert_eq!(sol.status, Status::Optimal);
        // Row binding iff cap < 10; its dual must be 1 there, else 0.
        for (i, cap) in [cap1, cap2].into_iter().enumerate() {
            if cap < 10.0 - 1e-6 {
                prop_assert!((sol.duals[i] - 1.0).abs() < 1e-6, "dual {i_} = {v}", i_ = i, v = sol.duals[i]);
            } else if cap > 10.0 + 1e-6 {
                prop_assert!(sol.duals[i].abs() < 1e-6);
            }
        }
    }

    /// Warm-started simplex re-solves reach the same objective as cold
    /// ones — both on the unchanged LP (where the start is the optimum)
    /// and after a rhs/bound perturbation (where it is merely a good
    /// guess, or rejected as infeasible and re-solved cold).
    #[test]
    fn simplex_warm_equals_cold_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
        bump in -0.5f64..2.0,
    ) {
        let (model, vars) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let cfg = SolverConfig::exact();
        let first = arrow_lp::solve(&model, &cfg);
        prop_assert_eq!(first.status, Status::Optimal);
        let warm_start = first.warm_start().expect("optimal solve yields warm start");
        prop_assert!(warm_start.basis.is_some());

        // Same LP: warm must hit and reproduce the optimum.
        let rewarm = arrow_lp::solve_with(&model, &cfg, Some(&warm_start));
        prop_assert_eq!(rewarm.status, Status::Optimal);
        prop_assert_eq!(rewarm.stats.warm, arrow_lp::WarmEvent::Hit);
        let scale = 1.0 + first.objective.abs();
        prop_assert!(
            (first.objective - rewarm.objective).abs() / scale < 1e-9,
            "warm {} vs cold {}", rewarm.objective, first.objective
        );

        // Perturbed LP (diurnal-demand analogue: bounds shift, pattern
        // fixed): warm and cold must agree wherever they land.
        let mut shifted = model.clone();
        shifted.set_bounds(vars[0], 0.0, (10.0 + bump).max(0.0));
        let cold = arrow_lp::solve(&shifted, &cfg);
        let warm = arrow_lp::solve_with(&shifted, &cfg, Some(&warm_start));
        prop_assert_eq!(cold.status, Status::Optimal);
        prop_assert_eq!(warm.status, Status::Optimal);
        let scale = 1.0 + cold.objective.abs();
        prop_assert!(
            (cold.objective - warm.objective).abs() / scale < 1e-9,
            "perturbed warm {} vs cold {}", warm.objective, cold.objective
        );
        prop_assert!(warm.violation(&shifted) < 1e-6);
    }

    /// PDHG warm starts (primal–dual point) agree with cold PDHG solves.
    #[test]
    fn pdhg_warm_equals_cold_on_random_lps(
        n in 2usize..6,
        m in 1usize..5,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 30),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 5),
        seed_costs in proptest::collection::vec(-1.0f64..3.0, 6),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let cfg = SolverConfig::first_order(1e-8);
        let cold = arrow_lp::solve(&model, &cfg);
        prop_assert!(cold.status.is_usable());
        if cold.status != Status::Optimal {
            return Ok(()); // tolerance-limited run: nothing to compare
        }
        let warm_start = cold.warm_start().expect("usable solve yields warm start");
        let warm = arrow_lp::solve_with(&model, &cfg, Some(&warm_start));
        prop_assert_eq!(warm.status, Status::Optimal);
        prop_assert_eq!(warm.stats.warm, arrow_lp::WarmEvent::Hit);
        prop_assert!(warm.stats.iterations <= cold.stats.iterations);
        let scale = 1.0 + cold.objective.abs();
        prop_assert!(
            (cold.objective - warm.objective).abs() / scale < 1e-4,
            "pdhg warm {} vs cold {}", warm.objective, cold.objective
        );
    }

    /// The MPS writer always produces a parseable section skeleton with one
    /// column entry per objective/constraint coefficient.
    #[test]
    fn mps_structure_is_complete(
        n in 1usize..5,
        m in 1usize..4,
        seed_coeffs in proptest::collection::vec(-2.0f64..2.0, 20),
        seed_rhs in proptest::collection::vec(0.0f64..20.0, 4),
        seed_costs in proptest::collection::vec(0.5f64..3.0, 5),
    ) {
        let (model, _) = random_lp(n, &seed_coeffs[..n * m], &seed_rhs[..m], &seed_costs[..n]);
        let mps = arrow_lp::mps::to_mps(&model, "prop");
        prop_assert!(mps.starts_with("* Generated by arrow-lp"));
        prop_assert!(mps.trim_end().ends_with("ENDATA"));
        for i in 0..m {
            let row = format!(" L  c{i}");
            prop_assert!(mps.contains(&row));
        }
        // Every variable has an objective entry (costs are nonzero).
        for j in 0..n {
            let col = format!("x{j}  OBJ");
            prop_assert!(mps.contains(&col));
        }
    }
}
