//! `online-b4-diurnal`: a closed loop of `plan_epoch` calls on B4 along
//! the diurnal demand curve, plus the side-by-side decomposition of
//! `plan_epoch` that the traced runs of both online workloads use.

use std::time::Instant;

use arrow_wan::core::{
    generate_tickets_universe, ArrowController, ControllerConfig, LotteryConfig, PlanError, TePlan,
};
use arrow_wan::lp::{BackendKind, SolveStats, WarmEvent};
use arrow_wan::te::{build_instance, Arrow, ArrowOnline, TeInstance, TunnelConfig};
use arrow_wan::topology::{
    b4, generate_failures, gravity_matrices, CompiledScenario, FailureConfig, FailureScenario,
    ScenarioId, ScenarioSource, ScenarioUniverse, TrafficConfig, TrafficMatrix, UniverseStats, Wan,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checks::{admitted, agreement_problems, plan_problems, Checks};
use crate::offline::{finish_trace, layer_metrics, replay};
use crate::speed::{Speed, Timed};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{batch_counters, fill_times, streams, sub_seed, units, Outcome, Params, TOPOLOGY_SEED};

/// Diurnal scale factors of `online_sweep`: a day sampled every ~2.7 h.
pub const DIURNAL: [f64; 9] = [0.60, 0.75, 0.95, 1.10, 1.15, 1.05, 0.90, 0.72, 0.62];

/// Base demand multiplier on the gravity matrix.
pub const DEMAND_SCALE: f64 = 3.0;

/// Epoch slots per simulated day: the nine diurnal ticks, then one
/// re-plan of the last demand, as an event with no new demand (a fiber
/// cut notification) triggers.
pub const SLOTS_PER_DAY: usize = DIURNAL.len() + 1;

/// Why an epoch was planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The first epoch of a controller: builds tunnels and the skeleton.
    Cold,
    /// A demand change.
    Tick,
    /// A re-plan with unchanged demand (cut, repair).
    Event,
}

/// Telemetry-noise amplitude on each tick's demand. Kept small: at ±5%
/// the quartile spread of the epoch tail over five seeds was 26%.
pub const JITTER: f64 = 0.01;

/// Epochs one controller plans (3 days), counting its cold first epoch.
pub const LIFETIME: usize = 3 * SLOTS_PER_DAY;

/// The loop's demand sequence: the diurnal curve with seeded jitter on
/// every tick after the cold first epoch; an event repeats the previous
/// tick's demand.
pub struct Curve {
    rng: StdRng,
    scale: f64,
    next: usize,
}

impl Curve {
    /// The sequence of controller lifetime `k` under the run's traffic
    /// seed, starting at the cold epoch.
    pub fn new(seed: u64, k: u64) -> Curve {
        let rng = StdRng::seed_from_u64(sub_seed(sub_seed(seed, streams::TRAFFIC), k));
        Curve { rng, scale: DIURNAL[0], next: 0 }
    }

    /// The next epoch's index, demand scale and kind.
    pub fn next_epoch(&mut self) -> (usize, f64, Kind) {
        let i = self.next;
        self.next += 1;
        let slot = i % SLOTS_PER_DAY;
        let kind = match slot {
            _ if i == 0 => Kind::Cold,
            s if s < DIURNAL.len() => Kind::Tick,
            _ => Kind::Event,
        };
        if kind == Kind::Tick {
            self.scale = DIURNAL[slot] * (1.0 + JITTER * self.rng.gen_range(-1.0..1.0));
        }
        (i, self.scale, kind)
    }
}

fn tickets(p: &Params) -> usize {
    if p.tiny {
        4
    } else {
        40
    }
}

/// The controller settings: default lottery seed and solver (`Auto`), 4
/// tunnels per flow. The lottery seed stays fixed: it changes the ticket
/// set and so the Phase I LP (1609 to 1853 rows over five seeds).
pub fn controller_config(tickets: usize) -> ControllerConfig {
    ControllerConfig {
        lottery: LotteryConfig { num_tickets: tickets, ..Default::default() },
        tunnels: TunnelConfig { tunnels_per_flow: 4, ..Default::default() },
        ..Default::default()
    }
}

/// The default gravity matrix scaled by [`DEMAND_SCALE`]. Its seed stays
/// fixed: other site weights move the epoch median fourfold.
pub fn traffic(wan: &Wan) -> TrafficMatrix {
    let cfg = TrafficConfig { num_matrices: 1, ..Default::default() };
    gravity_matrices(wan, &cfg)[0].scaled(DEMAND_SCALE)
}

/// The topology's 4 most probable failure scenarios, as a universe the
/// ticket generator accepts.
pub fn failures(wan: &Wan) -> ScenarioUniverse {
    let model = generate_failures(wan, &FailureConfig { max_scenarios: 4, ..Default::default() });
    let scenarios: Vec<CompiledScenario> = model
        .failure_scenarios()
        .iter()
        .map(|s| CompiledScenario {
            id: ScenarioId::of_cut(&s.cut_fibers),
            source: ScenarioSource::KCut,
            scenario: s.clone(),
        })
        .collect();
    let failing: f64 = scenarios.iter().map(|c| c.scenario.probability).sum();
    ScenarioUniverse {
        fiber_prob: model.fiber_prob.clone(),
        healthy_probability: (1.0 - failing).max(0.0),
        stats: UniverseStats { kept: scenarios.len(), ..Default::default() },
        scenarios,
    }
}

/// Everything one online plan needs besides the controller.
pub struct Setup {
    /// The controller, after its first (cold) epoch.
    pub ctl: ArrowController,
    /// Base traffic matrix (scaled per epoch by [`Curve`]).
    pub tm: TrafficMatrix,
    /// The cold epoch's result.
    pub first: Result<TePlan, PlanError>,
    /// Batch groups and lanes the offline stage moved.
    pub batch: (u64, u64),
}

/// Untraced set-up: topology, traffic, scenarios, tickets, and the first
/// cold epoch. Returns the set-up and its wall seconds.
pub fn setup(tickets: usize) -> (Setup, f64) {
    let cfg = controller_config(tickets);
    let t0 = Instant::now();
    let wan = b4(TOPOLOGY_SEED);
    let tm = traffic(&wan);
    let universe = failures(&wan);
    let before = batch_counters();
    let (set, _) = generate_tickets_universe(&wan, &universe, &cfg.lottery);
    let after = batch_counters();
    let mut ctl = ArrowController::with_tickets(wan, universe.failure_scenarios(), set, cfg);
    let first = ctl.plan_epoch(&tm.scaled(DIURNAL[0]), None).map(|(plan, _)| plan);
    let setup_s = t0.elapsed().as_secs_f64();
    let batch = (after.0 - before.0, after.1 - before.1);
    (Setup { ctl, tm, first, batch }, setup_s)
}

/// Checks one epoch's result (one operation).
pub fn check_epoch(
    checks: &mut Checks,
    what: &str,
    ctl: &ArrowController,
    res: &Result<TePlan, PlanError>,
) {
    let problems = match res {
        Ok(plan) => plan_problems(plan, &ctl.offline().scenarios, &ctl.offline().tickets),
        Err(e) => vec![e.to_string()],
    };
    checks.op(what, problems);
}

/// Re-plans `tm` cold on a fresh controller built from `ctl`'s offline
/// state and checks that it agrees with the warm result (one operation).
pub fn check_cold_replan(
    checks: &mut Checks,
    ctl: &ArrowController,
    tm: &TrafficMatrix,
    warm: (&[usize], f64),
) {
    let off = ctl.offline();
    let mut fresh = ArrowController::with_tickets(
        ctl.wan.clone(),
        off.scenarios.clone(),
        off.tickets.clone(),
        ctl.config.clone(),
    );
    let problems = match fresh.plan_epoch(tm, None) {
        Ok((cold, _)) => agreement_problems(warm, (&cold.outcome.winning, admitted(&cold))),
        Err(e) => vec![e.to_string()],
    };
    checks.op("cold re-plan of the last demand", problems);
}

fn backend_label(s: &SolveStats) -> &'static str {
    match s.backend {
        BackendKind::Pdhg => "pdhg",
        BackendKind::Simplex => "simplex",
        _ => "other",
    }
}

/// Kernel samples that set the speed factor of each timed operation.
const KERNEL_SAMPLES: usize = 3;

/// Seconds one controller lifetime takes at the nominal speed.
const NOMINAL_LIFETIME_S: f64 = 10.0;

/// Offline-stage timings per set-up. One takes about 15 ms; with 8 per
/// set-up the median of a run's 24 moved by 12% from seed to seed.
const OFFLINE_REPEATS: usize = 16;

/// Untraced run: as many controller lifetimes as fit in the run's seconds
/// at the nominal speed. Each is a timed set-up followed by [`LIFETIME`] −
/// 1 warm epochs, so set-ups are sampled across the whole run. Each
/// lifetime has its own jitter: tick epochs range from 15 ms to 850 ms, so
/// the median of one lifetime's 27 ticks moves from seed to seed, and a
/// run pools several.
pub fn run(p: &Params) -> Outcome {
    let ntickets = tickets(p);
    let lifetime = if p.tiny { SLOTS_PER_DAY } else { LIFETIME };
    let mut out = Outcome::default();
    let (mut setups, mut offs) = (Timed::default(), Timed::default());
    let (mut epochs, mut ticks, mut events) =
        (Timed::default(), Timed::default(), Timed::default());
    let mut gbps = Vec::new();
    let (mut hits1, mut hits2) = (0usize, 0usize);
    let mut shape = String::new();
    let mut batch = (0, 0);
    let mut speed = Speed::default();
    for lifetime_no in 0..units(p.seconds, NOMINAL_LIFETIME_S) {
        for _ in 0..KERNEL_SAMPLES {
            speed.sample();
        }
        let factor = speed.recent_factor(KERNEL_SAMPLES);
        let (s, secs) = setup(ntickets);
        setups.push(secs, factor);
        batch = s.batch;
        // The offline stage takes milliseconds here; repeat it so its
        // median is steady. It runs on every worker thread, so each
        // timing takes its speed from the parallel kernel samples just
        // before and after it.
        let universe = failures(&s.ctl.wan);
        speed.sample_parallel();
        for _ in 0..OFFLINE_REPEATS {
            let t = Instant::now();
            let _ = generate_tickets_universe(&s.ctl.wan, &universe, &s.ctl.config.lottery);
            let secs = t.elapsed().as_secs_f64();
            speed.sample_parallel();
            offs.push(secs, speed.recent_parallel_factor(2));
        }
        check_epoch(&mut out.checks, "cold epoch", &s.ctl, &s.first);
        let Setup { mut ctl, tm, .. } = s;

        let mut last_plan: Option<(Vec<usize>, f64, TrafficMatrix)> = None;
        let mut curve = Curve::new(p.seed, lifetime_no as u64);
        curve.next_epoch();
        for _ in 1..lifetime {
            let (i, scale, kind) = curve.next_epoch();
            let demand = tm.scaled(scale);
            let t = Instant::now();
            let res = ctl.plan_epoch(&demand, None).map(|(plan, _)| plan);
            let secs = t.elapsed().as_secs_f64();
            // The last three samples straddle this epoch.
            speed.sample();
            let factor = speed.recent_factor(KERNEL_SAMPLES);
            epochs.push(secs, factor);
            match kind {
                Kind::Event => events.push(secs, factor),
                _ => ticks.push(secs, factor),
            }
            check_epoch(&mut out.checks, &format!("epoch {i}"), &ctl, &res);
            if let Ok(plan) = res {
                let o = &plan.outcome;
                hits1 += usize::from(o.phase1_stats.warm == WarmEvent::Hit);
                hits2 += usize::from(o.phase2_stats.warm == WarmEvent::Hit);
                gbps.push(admitted(&plan));
                shape = format!(
                    "phase1={}:{}x{} phase2={}:{}x{}",
                    backend_label(&o.phase1_stats),
                    o.phase1_stats.rows,
                    o.phase1_stats.cols,
                    backend_label(&o.phase2_stats),
                    o.phase2_stats.rows,
                    o.phase2_stats.cols
                );
                last_plan = Some((o.winning.clone(), admitted(&plan), demand));
            }
        }
        // One cold re-plan per run: it costs a cold Phase I solve.
        if lifetime_no == 0 {
            if let Some((winning, gbps_warm, demand)) = &last_plan {
                check_cold_replan(&mut out.checks, &ctl, demand, (winning, *gbps_warm));
            }
        }
    }

    out.kernel = (speed.median_s(), speed.samples());
    let tail =
        fill_times(&mut out, &setups, &offs, &ticks, &events, (epochs.len() as f64, &epochs));
    out.metrics.insert("admitted_gbps", mean(&gbps));
    let n = epochs.len() as f64;
    out.character = format!(
        "{shape} warm_hit phase1={:.3} phase2={:.3} lp.batch.groups={} cut_replan_share={:.3} \
         epochs={} tail=p{} of {}",
        hits1 as f64 / n,
        hits2 as f64 / n,
        batch.0,
        events.len() as f64 / n,
        epochs.len(),
        tail.percentile,
        tail.samples
    );
    out
}

/// An `ArrowOnline` run beside the controller on the same instances, so
/// the traced run can split `plan_epoch` into its layers.
pub struct Side {
    base: TeInstance,
    online: ArrowOnline,
}

/// One traced epoch.
#[derive(Debug, Clone)]
pub struct EpochSample {
    /// Why the epoch was planned.
    pub kind: Kind,
    /// The controller's `plan_epoch` wall.
    pub plan_epoch_s: f64,
    /// The side replica's `with_demands` and `ArrowOnline::solve` walls.
    pub with_demands_s: f64,
    /// See `with_demands_s`.
    pub solve_s: f64,
    /// LP seconds of the side replica's two phases (reported by arrow-lp).
    pub side_lp_s: f64,
    /// The controller plan's Phase I / Phase II solver stats.
    pub p1: SolveStats,
    /// See `p1`.
    pub p2: SolveStats,
    /// Reconfiguration rules in the plan.
    pub rules: usize,
    /// Admitted Gbps of the plan.
    pub admitted: f64,
}

impl Side {
    /// Builds the replica's instance and Phase I skeleton (traced as
    /// `tunnels.build` and `arrow.skeleton`).
    pub fn new(tr: &mut Tracer, ctl: &ArrowController, tm: &TrafficMatrix) -> Side {
        let off = ctl.offline();
        let cfg = &ctl.config;
        let base = tr.span("tunnels.build", 0, || {
            build_instance(&ctl.wan, tm, &off.scenarios, &cfg.tunnels)
        });
        let arrow =
            Arrow { tickets: off.tickets.clone(), alpha: cfg.alpha, solver: cfg.solver.clone() };
        let online = tr.span("arrow.skeleton", 0, || ArrowOnline::new(arrow, &base));
        Side { base, online }
    }

    /// Plans epoch `e` on the controller and on the replica, each call in
    /// its own span under one `epoch` span, and checks both.
    pub fn epoch(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        ctl: &mut ArrowController,
        e: u64,
        tm: &TrafficMatrix,
        kind: Kind,
    ) -> Option<EpochSample> {
        let root = tr.enter("epoch", e);
        let res = tr.span("controller.plan_epoch", e, || ctl.plan_epoch(tm, None).map(|(p, _)| p));
        let inst = tr.span("tunnels.with_demands", e, || self.base.with_demands(tm));
        let side = tr.span("arrow.solve", e, || self.online.solve(&inst));
        tr.exit(root);
        let last = |name| tr.durations(name).last().copied().unwrap_or(0.0);
        check_epoch(checks, &format!("epoch {e}"), ctl, &res);
        let plan = res.ok()?;
        let side_admitted = side.output.alloc.total_admitted();
        checks.op(
            &format!("epoch {e} replica agrees"),
            agreement_problems(
                (&plan.outcome.winning, admitted(&plan)),
                (&side.winning, side_admitted),
            ),
        );
        Some(EpochSample {
            kind,
            plan_epoch_s: last("controller.plan_epoch"),
            with_demands_s: last("tunnels.with_demands"),
            solve_s: last("arrow.solve"),
            side_lp_s: side.phase1_stats.solve_seconds + side.phase2_stats.solve_seconds,
            p1: plan.outcome.phase1_stats,
            p2: plan.outcome.phase2_stats,
            rules: plan.reconfig_rules.len(),
            admitted: admitted(&plan),
        })
    }
}

const PHASE1: [&str; 7] = [
    "lp.phase1.solve_s",
    "lp.phase1.iterations",
    "lp.phase1.rows",
    "lp.phase1.cols",
    "lp.phase1.nnz",
    "lp.phase1.backend",
    "lp.phase1.warm_hit_ratio",
];
const PHASE2: [&str; 7] = [
    "lp.phase2.solve_s",
    "lp.phase2.iterations",
    "lp.phase2.rows",
    "lp.phase2.cols",
    "lp.phase2.nnz",
    "lp.phase2.backend",
    "lp.phase2.warm_hit_ratio",
];

/// Per-layer metrics of the online layers from the warm traced epochs:
/// times are means per epoch, counts are totals over the traced epochs.
pub fn epoch_layer_metrics(out: &mut Outcome, tr: &Tracer, samples: &[EpochSample]) {
    let warm: Vec<&EpochSample> = samples.iter().filter(|s| s.kind != Kind::Cold).collect();
    let avg =
        |f: &dyn Fn(&EpochSample) -> f64| mean(&warm.iter().map(|s| f(s)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&EpochSample) -> usize| warm.iter().map(|s| f(s)).sum::<usize>() as f64;
    let m = &mut out.metrics;
    type Get = fn(&EpochSample) -> SolveStats;
    let phases: [([&'static str; 7], Get); 2] =
        [(PHASE1, |s: &EpochSample| s.p1), (PHASE2, |s: &EpochSample| s.p2)];
    for ([solve_s, iterations, rows, cols, nnz, backend, warm_hit], get) in phases {
        m.insert(solve_s, avg(&|s| get(s).solve_seconds));
        m.insert(iterations, total(&|s| get(s).iterations));
        m.insert(rows, avg(&|s| get(s).rows as f64));
        m.insert(cols, avg(&|s| get(s).cols as f64));
        m.insert(nnz, avg(&|s| get(s).nnz as f64));
        m.insert(backend, avg(&|s| f64::from(u8::from(get(s).backend == BackendKind::Pdhg))));
        m.insert(warm_hit, avg(&|s| f64::from(u8::from(get(s).warm == WarmEvent::Hit))));
    }
    m.insert("lp.pdhg.restarts", total(&|s| s.p1.restarts + s.p2.restarts));
    m.insert("lp.simplex.refactors", total(&|s| s.p1.refactors + s.p2.refactors));
    m.insert("tunnels.build_s", tr.total("tunnels.build"));
    m.insert("tunnels.with_demands_s", avg(&|s| s.with_demands_s));
    m.insert("arrow.skeleton_s", tr.total("arrow.skeleton"));
    m.insert("arrow.solve_s", avg(&|s| s.solve_s));
    m.insert("arrow.select_build_s", avg(&|s| s.solve_s - s.side_lp_s));
    // The replica's whole solve is as long as the controller's and noisier
    // than what is left, so the controller's own solve is taken as its LP
    // seconds plus the replica's select/build time.
    let covered = |s: &EpochSample| {
        s.with_demands_s + s.p1.solve_seconds + s.p2.solve_seconds + (s.solve_s - s.side_lp_s)
    };
    m.insert("controller.finish_s", avg(&|s| s.plan_epoch_s - covered(s)));
    m.insert("controller.rules", avg(&|s| s.rules as f64));
    let planned: f64 = warm.iter().map(|s| s.plan_epoch_s).sum();
    let covered: f64 = warm.iter().map(|s| covered(s)).sum();
    m.insert("obs.coverage", if planned > 0.0 { covered / planned } else { 0.0 });
    out.notes.push(format!(
        "warm plan_epoch wall {planned:.4} s; with_demands, both LP solves and select/build cover \
         {covered:.4} s; {:.4} s unattributed (controller.finish: splitting ratios, compile_rules)",
        planned - covered
    ));
}

/// Traced offline stage of a controller's tickets: replay the scenarios
/// serially and report the offline layers.
pub fn offline_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    ctl: &ArrowController,
    stats: &arrow_wan::core::OfflineStats,
    batch: (u64, u64),
    offline_s: f64,
) {
    let scens = &ctl.offline().scenarios;
    let indexed: Vec<(usize, &FailureScenario)> = scens.iter().enumerate().collect();
    let r = replay(tr, &ctl.wan, &indexed, &ctl.config.lottery);
    layer_metrics(out, tr, &r, stats, batch, offline_s);
}

/// Traced run: one untraced pass over a fixed number of epochs for the
/// overhead, then the same epochs traced with the side replica.
pub fn run_traced(p: &Params) -> Outcome {
    let ntickets = tickets(p);
    let mut out = Outcome::default();

    let epochs = if p.tiny { SLOTS_PER_DAY } else { LIFETIME };
    let (mut plain, _) = setup(ntickets);
    let mut untraced = 0.0;
    let mut curve = Curve::new(p.seed, 0);
    curve.next_epoch();
    for _ in 1..epochs {
        let demand = plain.tm.scaled(curve.next_epoch().1);
        let t = Instant::now();
        let _ = plain.ctl.plan_epoch(&demand, None);
        untraced += t.elapsed().as_secs_f64();
    }
    drop(plain);

    let mut tr = Tracer::default();
    let cfg = controller_config(ntickets);
    let wan = tr.span("topology.build", 0, || b4(TOPOLOGY_SEED));
    let tm = traffic(&wan);
    let universe = tr.span("topology.universe", 0, || failures(&wan));
    let before = batch_counters();
    let (set, stats) =
        tr.span("offline", 0, || generate_tickets_universe(&wan, &universe, &cfg.lottery));
    let after = batch_counters();
    let offline_s = tr.total("offline");
    let mut ctl = ArrowController::with_tickets(wan, universe.failure_scenarios(), set, cfg);
    check_offline_state(&mut out.checks, &ctl);
    offline_layers(
        &mut out,
        &mut tr,
        &ctl,
        &stats,
        (after.0 - before.0, after.1 - before.1),
        offline_s,
    );

    let mut side = Side::new(&mut tr, &ctl, &tm.scaled(DIURNAL[0]));
    let mut samples = Vec::new();
    let mut curve = Curve::new(p.seed, 0);
    for _ in 0..epochs {
        let (i, scale, kind) = curve.next_epoch();
        samples.extend(side.epoch(
            &mut tr,
            &mut out.checks,
            &mut ctl,
            i as u64,
            &tm.scaled(scale),
            kind,
        ));
    }
    epoch_layer_metrics(&mut out, &tr, &samples);
    let traced: f64 = samples.iter().filter(|s| s.kind != Kind::Cold).map(|s| s.plan_epoch_s).sum();
    let m = &mut out.metrics;
    m.insert("topology.build_s", tr.total("topology.build"));
    m.insert("topology.universe_s", tr.total("topology.universe"));
    m.insert("topology.scenarios", universe.len() as f64);
    m.insert("obs.trace_overhead_s", traced - untraced);
    out.character = character(&samples, after.0 - before.0);
    finish_trace(&mut out, &tr, p, "online-b4-diurnal");
    out
}

/// Checks the offline state a controller plans from: one operation per
/// scenario.
pub fn check_offline_state(checks: &mut Checks, ctl: &ArrowController) {
    let off = ctl.offline();
    crate::offline::check_tickets(
        checks,
        &ctl.wan,
        &off.scenarios,
        &off.tickets,
        &ctl.config.lottery,
    );
}

/// The character line of a traced online loop.
pub fn character(samples: &[EpochSample], batch_groups: u64) -> String {
    let warm: Vec<&EpochSample> = samples.iter().filter(|s| s.kind != Kind::Cold).collect();
    let n = warm.len().max(1) as f64;
    let share = |f: &dyn Fn(&EpochSample) -> bool| warm.iter().filter(|s| f(s)).count() as f64 / n;
    let shape = warm.last().map_or(String::new(), |s| {
        format!(
            "phase1={}:{}x{} phase2={}:{}x{}",
            backend_label(&s.p1),
            s.p1.rows,
            s.p1.cols,
            backend_label(&s.p2),
            s.p2.rows,
            s.p2.cols
        )
    });
    format!(
        "{shape} warm_hit phase1={:.3} phase2={:.3} lp.batch.groups={batch_groups} \
         cut_replan_share={:.3} epochs={} admitted_gbps={:.1}",
        share(&|s| s.p1.warm == WarmEvent::Hit),
        share(&|s| s.p2.warm == WarmEvent::Hit),
        share(&|s| s.kind == Kind::Event),
        warm.len(),
        mean(&warm.iter().map(|s| s.admitted).collect::<Vec<_>>()),
    )
}
