//! The `offline.scenario` span covers the whole per-scenario unit of work,
//! the relaxed-RWA solve included.
//!
//! Kept in its own test binary: the trace subscriber is process-global, and
//! tests that call `solve_relaxed` directly would emit `lp.solve` spans with
//! no scenario around them.

use std::collections::HashMap;
use std::sync::Arc;

use arrow_core::lottery::{
    generate_tickets_universe, generate_tickets_with_threads, LotteryConfig,
};
use arrow_obs::{RecordKind, RingSubscriber};
use arrow_topology::{b4, compile_universe, UniverseConfig};

#[test]
fn every_ticket_generation_solve_runs_inside_a_scenario_span() {
    let wan = b4(17);
    let uni = compile_universe(
        &wan,
        &UniverseConfig { max_k: 2, cutoff: 1e-4, max_scenarios: 20, ..Default::default() },
    );
    let scens: Vec<_> = uni.scenarios.iter().take(6).map(|c| c.scenario.clone()).collect();
    let cfg = LotteryConfig { num_tickets: 4, ..Default::default() };

    let ring = Arc::new(RingSubscriber::new(1 << 16));
    arrow_obs::trace::install(ring.clone());
    // Both offline paths: the chunked universe path and the flat
    // one-scenario-per-item pool.
    let (_, universe_stats) = generate_tickets_universe(&wan, &uni, &cfg);
    let (_, flat_stats) = generate_tickets_with_threads(&wan, &scens, &cfg, 2);
    arrow_obs::trace::uninstall();

    let records = ring.records();
    let spans: HashMap<u64, (&str, Option<u64>)> = records
        .iter()
        .filter(|r| r.kind == RecordKind::SpanStart)
        .map(|r| (r.span_id, (r.name, r.parent_id)))
        .collect();
    let scenario_ancestor = |mut id: Option<u64>| -> Option<u64> {
        while let Some(i) = id {
            let (name, parent) = spans.get(&i)?;
            if *name == "offline.scenario" {
                return Some(i);
            }
            id = *parent;
        }
        None
    };

    let solves = ring.finished_spans("lp.solve");
    let scenario_spans = ring.finished_spans("offline.scenario");
    assert_eq!(scenario_spans.len(), uni.len() + scens.len(), "one span per scenario");
    assert!(solves.len() >= scenario_spans.len(), "every scenario solves its relaxed RWA");
    let durations: HashMap<u64, u64> =
        scenario_spans.iter().map(|r| (r.span_id, r.duration_nanos.unwrap_or(0))).collect();
    for solve in &solves {
        let owner = scenario_ancestor(solve.parent_id);
        let owner =
            owner.unwrap_or_else(|| panic!("lp.solve span {} has no scenario", solve.span_id));
        assert!(solve.duration_nanos.unwrap_or(0) <= durations[&owner], "solve outlasts its span");
    }

    // The stats clock covers the same work: RWA time is part of the total.
    for s in universe_stats.per_scenario.iter().chain(&flat_stats.per_scenario) {
        assert!(s.rwa_seconds > 0.0 && s.rwa_seconds <= s.seconds, "{s:?}");
    }
}
