//! Golden objectives of the relaxed RWA LPs the offline stage solves on
//! IBM: the `scenario_sweep --smoke` universe (64 scenarios of `ibm(17)`)
//! under the lottery's default RWA settings, solved by the default
//! (simplex-routed) solver.
//!
//! The values were recorded with the dense-inverse simplex that preceded
//! the eta-file basis. Any change to the simplex's linear algebra may move
//! a degenerate LP to another optimal vertex, but never its objective.

use arrow_core::lottery::LotteryConfig;
use arrow_lp::{BackendKind, Status};
use arrow_optical::rwa::build_relaxed;
use arrow_topology::{compile_universe, ibm, UniverseConfig};

/// Optimal objectives (restored Gbps) in universe order.
const GOLDEN: [f64; 64] = [
    5500.0,
    5100.0,
    7000.0,
    7000.0,
    7000.0,
    5300.0,
    7600.0,
    5800.0,
    3800.0,
    4300.0,
    5300.0,
    5200.0,
    6400.0,
    2200.0,
    3600.0,
    5900.0,
    6600.0,
    10600.000000000002,
    3700.0,
    12500.0,
    7899.999999999999,
    7400.0,
    3700.0,
    12100.00000000001,
    10800.000000000004,
    10400.000000000002,
    11700.0,
    9100.000000000004,
    12500.000000000004,
    8000.000000000002,
    6099.999999999999,
    7700.0,
    4600.0,
    10400.0,
    10800.0,
    1600.0,
    10999.999999999998,
    6499.999999999999,
    8700.0,
    11900.0,
    8400.0,
    12100.0,
    9199.999999999998,
    9100.0,
    10700.000000000002,
    12200.0,
    8300.0,
    8200.0,
    11100.0,
    8200.0,
    11500.0,
    8600.0,
    7900.000000000001,
    9199.999999999998,
    12700.0,
    12200.0,
    12499.999999999998,
    7500.0,
    15800.0,
    15099.999999999984,
    5700.000000000002,
    10299.999999999998,
    8000.0,
    14799.999999999996,
];

#[test]
fn offline_ibm_relaxed_rwa_objectives_match_golden() {
    let wan = ibm(17);
    let universe = compile_universe(
        &wan,
        &UniverseConfig {
            max_k: 3,
            cutoff: 1e-5,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            max_scenarios: 64,
            ..Default::default()
        },
    );
    assert_eq!(universe.len(), GOLDEN.len());
    let rwa = LotteryConfig::default().rwa;
    for (i, (scen, &want)) in universe.failure_scenarios().iter().zip(&GOLDEN).enumerate() {
        let lp = build_relaxed(&wan.optical, &scen.cut_fibers, &rwa);
        let sol = arrow_lp::solve(&lp.model, &rwa.solver);
        assert_eq!(sol.status, Status::Optimal, "scenario {i}");
        assert_eq!(sol.stats.backend, BackendKind::Simplex, "scenario {i}");
        let gap = (sol.objective - want).abs() / want.abs().max(1.0);
        assert!(
            gap <= 1e-9,
            "scenario {i}: objective {} vs golden {want} (gap {gap:e})",
            sol.objective
        );
    }
}
