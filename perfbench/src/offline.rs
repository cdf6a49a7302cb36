//! `offline-ibm`: LotteryTicket generation over a correlated IBM universe,
//! plus the serial layer replay every traced run uses for its offline
//! stage.

use std::time::Instant;

use arrow_wan::core::lottery::round_once;
use arrow_wan::core::{
    derive_seed, generate_tickets_universe, naive_ticket, FractionalRestoration, LotteryConfig,
    OfflineStats,
};
use arrow_wan::optical::is_feasible;
use arrow_wan::optical::rwa::build_relaxed;
use arrow_wan::te::{RestorationTicket, TicketSet};
use arrow_wan::topology::{
    compile_universe, ibm, FailureScenario, ScenarioUniverse, UniverseConfig, Wan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::{scenario_problems, Checks};
use crate::speed::{Speed, Timed};
use crate::trace::Tracer;
use crate::{batch_counters, fill_times, streams, sub_seed, units, Outcome, Params, TOPOLOGY_SEED};

/// Scenarios and tickets per scenario of the full and the tiny workload.
fn size(p: &Params) -> (usize, usize) {
    if p.tiny {
        (4, 2)
    } else {
        (64, 12)
    }
}

/// The `scenario_sweep --smoke` universe: k-cuts up to 3 at cutoff 1e-5,
/// auto-SRLGs of 3 fibers, maintenance windows of 2, importance-sampled
/// down to `scenarios`. The universe seed stays at its default: other
/// seeds pick other scenarios, whose RWA LPs cost up to twice as much.
pub fn universe_config(scenarios: usize) -> UniverseConfig {
    UniverseConfig {
        max_k: 3,
        cutoff: 1e-5,
        auto_srlg_size: 3,
        auto_srlg_probability: 1e-3,
        maintenance_window: 2,
        maintenance_probability: 5e-4,
        max_scenarios: scenarios,
        ..Default::default()
    }
}

/// Default lottery settings with `tickets` per scenario and the run's
/// lottery seed.
pub fn lottery_config(seed: u64, tickets: usize) -> LotteryConfig {
    LotteryConfig {
        num_tickets: tickets,
        seed: sub_seed(seed, streams::LOTTERY),
        ..Default::default()
    }
}

/// Mean over scenarios of the largest kept ticket's restored capacity:
/// the capacity the offline stage offers Phase I after a cut.
pub fn restorable_gbps(tickets: &TicketSet) -> f64 {
    let best: Vec<f64> = tickets
        .per_scenario
        .iter()
        .map(|ts| ts.iter().map(RestorationTicket::total_gbps).fold(0.0, f64::max))
        .collect();
    crate::stats::mean(&best)
}

/// Checks every scenario's tickets; one operation per scenario.
pub fn check_tickets(
    checks: &mut Checks,
    wan: &Wan,
    scenarios: &[FailureScenario],
    tickets: &TicketSet,
    cfg: &LotteryConfig,
) {
    if tickets.per_scenario.len() != scenarios.len() {
        checks.op(
            "ticket set",
            vec![format!(
                "{} entries for {} scenarios",
                tickets.per_scenario.len(),
                scenarios.len()
            )],
        );
    }
    for (i, (scen, ts)) in scenarios.iter().zip(&tickets.per_scenario).enumerate() {
        checks.op(&format!("scenario {i}"), scenario_problems(wan, scen, ts, &cfg.rwa));
    }
}

/// Seconds one regeneration takes at the nominal speed, checks included.
const NOMINAL_REGENERATION_S: f64 = 4.5;

/// Kernel samples taken before and after each regeneration.
const KERNEL_SAMPLES: usize = 3;

/// Set-ups per regeneration.
const SETUP_REPEATS: usize = 10;

/// Untraced run: regenerate the universe's tickets, as many times as fit
/// in the run's seconds at the nominal speed.
/// Each regeneration is one offline epoch, the work the controller redoes
/// whenever the IP/optical mapping changes.
pub fn run(p: &Params) -> Outcome {
    let (scenarios, tickets) = size(p);
    let ucfg = universe_config(scenarios);
    let lcfg = lottery_config(p.seed, tickets);
    let mut out = Outcome::default();
    let (mut setups, mut regens) = (Timed::default(), Timed::default());
    let mut first: Option<(u64, f64, usize, (u64, u64))> = None;
    let mut speed = Speed::default();
    for _ in 0..units(p.seconds, NOMINAL_REGENERATION_S) {
        for _ in 0..KERNEL_SAMPLES {
            speed.sample();
        }
        let factor = speed.recent_factor(KERNEL_SAMPLES);
        // Set-up takes milliseconds; repeat it so its median is steady.
        let (mut wan, mut universe) = (None, None);
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let w = ibm(TOPOLOGY_SEED);
            let u = compile_universe(&w, &ucfg);
            setups.push(t0.elapsed().as_secs_f64(), factor);
            (wan, universe) = (Some(w), Some(u));
        }
        let (wan, universe) = (wan.expect("set-up ran"), universe.expect("set-up ran"));
        let before = batch_counters();
        let t1 = Instant::now();
        let (set, _) = generate_tickets_universe(&wan, &universe, &lcfg);
        let secs = t1.elapsed().as_secs_f64();
        // A regeneration lasts seconds: take its speed from both sides.
        for _ in 0..KERNEL_SAMPLES {
            speed.sample();
        }
        regens.push(secs, speed.recent_factor(2 * KERNEL_SAMPLES));
        let after = batch_counters();

        check_tickets(&mut out.checks, &wan, &universe.failure_scenarios(), &set, &lcfg);
        let digest = set.digest();
        match first {
            None => {
                first = Some((
                    digest,
                    restorable_gbps(&set),
                    universe.len(),
                    (after.0 - before.0, after.1 - before.1),
                ))
            }
            Some((d, ..)) => checks_same_digest(&mut out.checks, d, digest),
        }
    }
    out.kernel = (speed.median_s(), speed.samples());
    let (_, restorable, nscen, (groups, lanes)) = first.expect("at least one regeneration ran");
    let tail =
        fill_times(&mut out, &setups, &regens, &regens, &regens, (regens.len() as f64, &regens));
    out.metrics.insert("admitted_gbps", restorable);
    out.character = format!(
        "scenarios={nscen} tickets/scenario={tickets} regenerations={} tail=p{} of {} \
         lp.batch.groups={groups} lp.batch.lanes={lanes} restorable_gbps={restorable:.1}",
        regens.len(),
        tail.percentile,
        tail.samples,
    );
    out
}

fn checks_same_digest(checks: &mut Checks, want: u64, got: u64) {
    let problems =
        if want == got { Vec::new() } else { vec![format!("digest {got:#x} != {want:#x}")] };
    checks.op("regeneration is deterministic", problems);
}

/// What the serial replay of the offline stage measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Relaxed RWA LPs solved.
    pub lps: usize,
    /// Summed rows / columns / nonzeros of those LPs.
    pub rows: usize,
    /// See `rows`.
    pub cols: usize,
    /// See `rows`.
    pub nnz: usize,
    /// Simplex or PDHG iterations of those LPs.
    pub iterations: usize,
    /// Basis refactorizations of those LPs.
    pub refactors: usize,
    /// Tickets kept per scenario by the replay.
    pub kept: Vec<usize>,
}

/// Replays the offline stage serially, scenario by scenario, on the same
/// inputs: `build_relaxed` → `arrow_lp::solve` → `extract` → per draw
/// `round_once` and `is_feasible`. Each scenario is one span group.
pub fn replay(
    tr: &mut Tracer,
    wan: &Wan,
    scenarios: &[(usize, &FailureScenario)],
    cfg: &LotteryConfig,
) -> Replay {
    let mut r = Replay::default();
    for &(g, scen) in scenarios {
        let group = g as u64;
        let root = tr.enter("scenario", group);
        let lp =
            tr.span("rwa.build", group, || build_relaxed(&wan.optical, &scen.cut_fibers, &cfg.rwa));
        let sol =
            tr.span("lp.rwa.solve", group, || arrow_wan::lp::solve(&lp.model, &cfg.rwa.solver));
        r.lps += 1;
        r.rows += sol.stats.rows;
        r.cols += sol.stats.cols;
        r.nnz += sol.stats.nnz;
        r.iterations += sol.stats.iterations;
        r.refactors += sol.stats.refactors;
        let rwa = tr.span("rwa.extract", group, || lp.extract(&wan.optical, &sol));
        let seed: Vec<FractionalRestoration> = rwa
            .links
            .iter()
            .filter_map(|l| {
                Some(FractionalRestoration {
                    link: wan.link_of_lightpath(l.lightpath)?,
                    wavelengths: l.wavelengths,
                    lost_wavelengths: l.lost_wavelengths,
                    gbps_per_wavelength: l.gbps_per_wavelength,
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, group));
        let mut tickets: Vec<RestorationTicket> = Vec::new();
        if cfg.include_naive {
            tickets.push(naive_ticket(wan, scen, &cfg.rwa));
        }
        for _ in tickets.len()..cfg.num_tickets {
            let counts = tr.span("lottery.round", group, || round_once(&mut rng, &seed, cfg.delta));
            if cfg.feasibility_filter {
                let targets: Vec<_> = seed
                    .iter()
                    .zip(&counts)
                    .map(|(f, &c)| (wan.link(f.link).lightpath, c))
                    .collect();
                let ok = tr.span("lottery.filter", group, || {
                    is_feasible(&wan.optical, &scen.cut_fibers, &cfg.rwa, &targets)
                });
                if !ok {
                    continue;
                }
            }
            let ticket = RestorationTicket {
                restored: seed
                    .iter()
                    .zip(&counts)
                    .map(|(f, &c)| (f.link, c as f64 * f.gbps_per_wavelength))
                    .collect(),
            };
            if !cfg.dedupe || !tickets.contains(&ticket) {
                tickets.push(ticket);
            }
        }
        if tickets.is_empty() {
            tickets.push(naive_ticket(wan, scen, &cfg.rwa));
        }
        r.kept.push(tickets.len());
        tr.exit(root);
    }
    r
}

/// Per-layer metrics of one offline stage: the replay's spans and counts,
/// the generator's own counts (`OfflineStats`), and the batch counters the
/// generation call moved. `offline_s` is the untraced generation wall.
pub fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    r: &Replay,
    stats: &OfflineStats,
    batch: (u64, u64),
    offline_s: f64,
) {
    let lps = r.lps.max(1) as f64;
    let serial = tr.total("scenario");
    let sum = |f: fn(&arrow_wan::core::ScenarioStats) -> usize| -> f64 {
        stats.per_scenario.iter().map(f).sum::<usize>() as f64
    };
    let rounds = sum(|s| s.rounds);
    let m = &mut out.metrics;
    m.insert("rwa.build_s", tr.total("rwa.build"));
    m.insert("rwa.extract_s", tr.total("rwa.extract"));
    m.insert("rwa.rows", r.rows as f64 / lps);
    m.insert("rwa.cols", r.cols as f64 / lps);
    m.insert("rwa.nnz", r.nnz as f64 / lps);
    m.insert("lp.rwa.solve_s", tr.total("lp.rwa.solve"));
    m.insert("lp.rwa.iterations", r.iterations as f64);
    m.insert("lp.rwa.refactors", r.refactors as f64);
    m.insert("lp.batch.groups", batch.0 as f64);
    m.insert("lp.batch.lanes", batch.1 as f64);
    m.insert("lottery.round_s", tr.total("lottery.round"));
    m.insert("lottery.filter_s", tr.total("lottery.filter"));
    m.insert("lottery.rounds", rounds);
    m.insert("lottery.infeasible", sum(|s| s.infeasible));
    m.insert("lottery.duplicates", sum(|s| s.duplicates));
    m.insert("lottery.kept", sum(|s| s.kept));
    m.insert("lottery.kept_ratio", if rounds > 0.0 { sum(|s| s.kept) / rounds } else { 0.0 });
    m.insert("par.threads", stats.threads as f64);
    m.insert("par.offline_speedup", if offline_s > 0.0 { serial / offline_s } else { 0.0 });
    let kept: Vec<usize> = stats.per_scenario.iter().map(|s| s.kept).collect();
    if kept != r.kept {
        out.notes.push(format!(
            "warning: the serial replay kept {:?} tickets per scenario, the generator {kept:?}",
            r.kept
        ));
    }
}

/// Traced run: one untraced and one traced generation for the overhead,
/// then the serial replay that splits the work into layers.
pub fn run_traced(p: &Params) -> Outcome {
    let (scenarios, tickets) = size(p);
    let ucfg = universe_config(scenarios);
    let lcfg = lottery_config(p.seed, tickets);
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let wan = tr.span("topology.build", 0, || ibm(TOPOLOGY_SEED));
    let universe: ScenarioUniverse =
        tr.span("topology.universe", 0, || compile_universe(&wan, &ucfg));

    let t = Instant::now();
    let _ = generate_tickets_universe(&wan, &universe, &lcfg);
    let untraced = t.elapsed().as_secs_f64();

    let before = batch_counters();
    let (set, stats) = tr.span("offline", 0, || generate_tickets_universe(&wan, &universe, &lcfg));
    let after = batch_counters();
    let traced = tr.total("offline");
    let scens = universe.failure_scenarios();
    check_tickets(&mut out.checks, &wan, &scens, &set, &lcfg);

    let indexed: Vec<(usize, &FailureScenario)> = scens.iter().enumerate().collect();
    let r = replay(&mut tr, &wan, &indexed, &lcfg);
    layer_metrics(&mut out, &tr, &r, &stats, (after.0 - before.0, after.1 - before.1), untraced);

    let serial = tr.total("scenario");
    let layers: f64 =
        ["rwa.build", "lp.rwa.solve", "rwa.extract", "lottery.round", "lottery.filter"]
            .iter()
            .map(|n| tr.total(n))
            .sum();
    let m = &mut out.metrics;
    m.insert("topology.build_s", tr.total("topology.build"));
    m.insert("topology.universe_s", tr.total("topology.universe"));
    m.insert("topology.scenarios", universe.len() as f64);
    m.insert("obs.trace_overhead_s", traced - untraced);
    m.insert("obs.coverage", layers / serial);
    out.notes.push(format!(
        "offline wall {untraced:.4} s untraced, {traced:.4} s traced; serial replay {serial:.4} s, \
         of which layers cover {layers:.4} s and {:.4} s is unattributed glue",
        serial - layers
    ));
    finish_trace(&mut out, &tr, p, "offline-ibm");
    out.character = format!(
        "scenarios={} tickets/scenario={tickets} lp.batch.groups={} kept={}",
        universe.len(),
        after.0 - before.0,
        stats.total_kept()
    );
    out
}

/// Appends the per-span table and writes the spans to the output
/// directory.
pub fn finish_trace(out: &mut Outcome, tr: &Tracer, p: &Params, workload: &str) {
    out.notes.push(format!("{:<26} {:>7} {:>12} {:>12}", "span", "count", "total_s", "self_s"));
    for (name, (count, total, own)) in tr.by_name() {
        out.notes.push(format!("{name:<26} {count:>7} {total:>12.6} {own:>12.6}"));
    }
    let path = p.out_dir.join(format!("trace-{workload}-{}.jsonl", p.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("warning: could not write {}: {e}", path.display())),
    }
}
