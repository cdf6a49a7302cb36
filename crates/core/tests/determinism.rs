//! Determinism regression tests for the parallel offline stage.
//!
//! The contract (see `LotteryConfig::seed` and `par`): ticket generation
//! depends only on `(seed, scenario, scenario_index, config)` — never on
//! the worker-thread count or scheduling. These tests pin
//! `generate_tickets` at 1, 2, and N threads against each other and
//! against the documented serial reference `generate_tickets_serial`.

use arrow_core::lottery::{
    derive_seed, generate_tickets, generate_tickets_serial, generate_tickets_shard,
    generate_tickets_universe, generate_tickets_with_threads, LotteryConfig, ShardSpec,
};
use arrow_lp::SolverConfig;
use arrow_optical::rwa::RwaConfig;
use arrow_te::TicketSet;
use arrow_topology::{
    b4, compile_universe, generate_failures, ibm, FailureConfig, FailureScenario, UniverseConfig,
    Wan,
};

fn setup(max_scenarios: usize) -> (Wan, Vec<FailureScenario>) {
    let wan = b4(17);
    let failures = generate_failures(&wan, &FailureConfig { max_scenarios, ..Default::default() });
    (wan, failures.failure_scenarios().to_vec())
}

#[test]
fn ticket_sets_identical_across_thread_counts() {
    let (wan, scens) = setup(8);
    let default_cfg = LotteryConfig { num_tickets: 10, ..Default::default() };
    // Pinning PDHG routes every relaxed-RWA LP through the first-order
    // backend, whose iterates must be just as schedule-independent.
    let pdhg_cfg = LotteryConfig {
        rwa: RwaConfig { solver: SolverConfig::first_order(1e-6), ..default_cfg.rwa.clone() },
        ..default_cfg.clone()
    };
    for cfg in [default_cfg, pdhg_cfg] {
        let reference = generate_tickets_serial(&wan, &scens, &cfg);

        // The reference itself must be non-trivial or the test proves nothing.
        assert_eq!(reference.per_scenario.len(), scens.len());
        assert!(reference.total_tickets() > scens.len(), "want multiple tickets somewhere");

        for threads in [1, 2, 3, 4, 8, 32] {
            let (set, stats) = generate_tickets_with_threads(&wan, &scens, &cfg, threads);
            assert_eq!(set, reference, "TicketSet diverged at {threads} threads");
            assert_eq!(set.digest(), reference.digest(), "digest diverged at {threads} threads");
            assert_eq!(stats.per_scenario.len(), scens.len());
            assert_eq!(stats.total_kept(), set.total_tickets());
        }

        // The default entry point (pool sized by the environment) agrees too.
        assert_eq!(generate_tickets(&wan, &scens, &cfg), reference);
    }
}

#[test]
fn ticket_sets_identical_across_thread_counts_on_ibm() {
    // IBM's denser surrogate-path structure once exposed a hash-order
    // dependence in the relaxed RWA (constraint rows emitted in HashMap
    // order, now a BTreeMap) that B4 never tripped — keep both topologies
    // in the regression.
    let wan = ibm(17);
    let failures =
        generate_failures(&wan, &FailureConfig { max_scenarios: 8, ..Default::default() });
    let scens = failures.failure_scenarios().to_vec();
    let cfg = LotteryConfig { num_tickets: 12, ..Default::default() };
    let reference = generate_tickets_serial(&wan, &scens, &cfg);
    for threads in [2, 4, 8] {
        let (set, _) = generate_tickets_with_threads(&wan, &scens, &cfg, threads);
        assert_eq!(set, reference, "TicketSet diverged at {threads} threads");
    }
}

#[test]
fn repeated_runs_are_bitwise_stable() {
    let (wan, scens) = setup(5);
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let a = generate_tickets(&wan, &scens, &cfg);
    let b = generate_tickets(&wan, &scens, &cfg);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn seed_changes_the_tickets() {
    let (wan, scens) = setup(5);
    let base = LotteryConfig { num_tickets: 10, feasibility_filter: false, ..Default::default() };
    let other = LotteryConfig { seed: base.seed + 1, ..base.clone() };
    let a = generate_tickets(&wan, &scens, &base);
    let b = generate_tickets(&wan, &scens, &other);
    assert_ne!(a.digest(), b.digest(), "different master seeds should explore differently");
}

#[test]
fn derived_seeds_are_distinct_per_scenario() {
    // Not a statistical test — just that the per-scenario streams cannot
    // collide for any realistic scenario count.
    let mut seen = std::collections::HashSet::new();
    for idx in 0..10_000u64 {
        assert!(seen.insert(derive_seed(41, idx)), "seed collision at scenario {idx}");
    }
    assert_ne!(derive_seed(41, 0), derive_seed(42, 0));
}

#[test]
fn relaxed_rwa_is_stable_across_runs_and_threads() {
    // The relaxed RWA feeds ticket generation; its LP rows must be emitted
    // in a fixed order (BTreeMap, not HashMap) or solutions drift between
    // processes. `Debug` for f64 round-trips, so equal renderings mean
    // bitwise-equal solutions.
    use arrow_optical::rwa::solve_relaxed;
    use arrow_optical::FiberId;
    let wan = ibm(17);
    let cfg = RwaConfig::default();
    let cuts: Vec<FiberId> = (0..wan.optical.num_fibers().min(6)).map(FiberId).collect();
    let reference: Vec<String> =
        cuts.iter().map(|&f| format!("{:?}", solve_relaxed(&wan.optical, &[f], &cfg))).collect();
    // Repeated in-process runs.
    for (i, &f) in cuts.iter().enumerate() {
        assert_eq!(
            format!("{:?}", solve_relaxed(&wan.optical, &[f], &cfg)),
            reference[i],
            "RWA solution drifted on repeat for fiber {f:?}"
        );
    }
    // Concurrent runs on fresh threads (a thread-seeded hash order would
    // diverge here even when repeats in one thread agree).
    let handles: Vec<_> = cuts
        .iter()
        .map(|&f| {
            let net = wan.optical.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || format!("{:?}", solve_relaxed(&net, &[f], &cfg)))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join().unwrap(), reference[i], "RWA solution diverged across threads");
    }
}

/// A small correlated universe on IBM for the shard-merge contract tests.
fn ibm_universe() -> (Wan, arrow_topology::ScenarioUniverse) {
    let wan = ibm(17);
    let uni = compile_universe(
        &wan,
        &UniverseConfig {
            max_k: 2,
            cutoff: 1e-4,
            auto_srlg_size: 3,
            auto_srlg_probability: 1e-3,
            maintenance_window: 2,
            maintenance_probability: 5e-4,
            max_scenarios: 10,
            ..Default::default()
        },
    );
    assert!(uni.len() >= 6, "universe too small to exercise sharding: {}", uni.len());
    (wan, uni)
}

#[test]
fn sharded_generation_merges_to_unsharded_bitwise_on_ibm() {
    // The shard/merge contract: for any shard count, generating each
    // shard independently and merging reproduces the single-shard run
    // byte for byte (same TicketSet, same digest) — scenario RNG streams
    // key off *global* universe indices, so the shard layout is
    // invisible in the output.
    let (wan, uni) = ibm_universe();
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let (full, _) = generate_tickets_universe(&wan, &uni, &cfg);
    assert!(full.is_full(), "single-shard run must cover 0..n in order");
    assert_eq!(full.per_scenario.len(), uni.len());

    for of in [1usize, 2, 3, 7] {
        let shards: Vec<TicketSet> = (0..of)
            .map(|index| generate_tickets_shard(&wan, &uni, &cfg, ShardSpec { index, of }).0)
            .collect();
        // Shards partition the universe.
        let covered: usize = shards.iter().map(|s| s.per_scenario.len()).sum();
        assert_eq!(covered, uni.len(), "shards {of}-way don't partition the universe");

        let merged = TicketSet::merge_all(shards.clone()).expect("honest shards must merge");
        assert_eq!(merged, full, "merged TicketSet diverged at {of} shards");
        assert_eq!(merged.digest(), full.digest(), "digest diverged at {of} shards");

        // Merge order must not matter either.
        let reversed =
            TicketSet::merge_all(shards.into_iter().rev()).expect("reverse merge must succeed");
        assert_eq!(reversed.digest(), full.digest(), "merge order changed bytes at {of} shards");
    }
}

#[test]
fn merge_is_commutative_and_associative_on_digests() {
    let (wan, uni) = ibm_universe();
    let cfg = LotteryConfig { num_tickets: 4, ..Default::default() };
    let shard = |index| generate_tickets_shard(&wan, &uni, &cfg, ShardSpec { index, of: 3 }).0;
    let (a, b, c) = (shard(0), shard(1), shard(2));

    // Commutativity.
    let ab = a.merge(&b).expect("a+b");
    let ba = b.merge(&a).expect("b+a");
    assert_eq!(ab.digest(), ba.digest(), "merge is not commutative");
    assert_eq!(ab, ba);

    // Associativity.
    let ab_c = ab.merge(&c).expect("(a+b)+c");
    let bc = b.merge(&c).expect("b+c");
    let a_bc = a.merge(&bc).expect("a+(b+c)");
    assert_eq!(ab_c.digest(), a_bc.digest(), "merge is not associative");
    assert_eq!(ab_c, a_bc);

    // Idempotence on overlap: merging a shard with itself is the shard.
    let aa = a.merge(&a).expect("a+a");
    assert_eq!(aa.digest(), a.digest(), "self-merge must dedup to the shard");
}

/// Pins the ticket bytes of the `scenario_sweep --smoke` run: the 64-scenario
/// correlated B4 universe with six tickets per scenario. Both digests are
/// also the committed `BENCH_scenarios.json` baselines, so a solver or
/// scheduling change that moves a single ticket fails here first.
#[test]
fn smoke_universe_ticket_digest_is_pinned() {
    let wan = b4(17);
    let uni = compile_universe(
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
    assert_eq!(format!("{:016x}", uni.digest()), "60c821a7a33430e3", "universe moved");
    let cfg = LotteryConfig { num_tickets: 6, ..Default::default() };
    let (set, _) = generate_tickets_universe(&wan, &uni, &cfg);
    assert_eq!(format!("{:016x}", set.digest()), "6468505d030497d7", "tickets moved");
}

#[test]
fn scenario_tickets_do_not_depend_on_neighbours() {
    // Dropping a scenario from the slice must not change the tickets of
    // the scenarios that keep their indices (prefix stability) — this is
    // what makes parallel scheduling irrelevant.
    let (wan, scens) = setup(6);
    let cfg = LotteryConfig { num_tickets: 8, ..Default::default() };
    let full = generate_tickets_serial(&wan, &scens, &cfg);
    let prefix = generate_tickets_serial(&wan, &scens[..4], &cfg);
    assert_eq!(&full.per_scenario[..4], &prefix.per_scenario[..]);
}
