//! `serve-b4`: the `arrow serve` daemon on B4 with its shipped defaults
//! (chaos off), the feed seed from the run's seed and a raised cut rate.
//!
//! `daemon::serve` returns no plans, so the output checks and the admitted
//! traffic come from a replica: a controller built the way the daemon
//! builds its own, planning the same feed events outside the timed region.

use std::time::Instant;

use arrow_wan::core::{ArrowController, ControllerConfig, LotteryConfig};
use arrow_wan::daemon::{serve, ServeConfig, ServeReport};
use arrow_wan::lp::{SolverConfig, WarmEvent};
use arrow_wan::sim::{EventFeed, FeedConfig, FeedEvent};
use arrow_wan::te::TunnelConfig;
use arrow_wan::topology::{
    b4, generate_failures, gravity_matrices, FailureConfig, FailureScenario, TrafficConfig,
    TrafficMatrix, Wan,
};

use crate::checks::{admitted, Checks};
use crate::offline::finish_trace;
use crate::online::{character, check_epoch, epoch_layer_metrics, offline_layers, Kind, Side};
use crate::speed::{Speed, Timed};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{batch_counters, fill_times, streams, sub_seed, units, Outcome, Params, TOPOLOGY_SEED};

/// Mean simulated seconds between random fiber cuts. The daemon ships
/// 2400 s; a shorter interval makes cut/repair re-plans a sizable share
/// of the epochs.
pub const CUT_INTERVAL_S: f64 = 900.0;

/// Telemetry-noise amplitude on each tick's demand (the daemon ships 0.05).
pub const DEMAND_JITTER: f64 = 0.01;

/// Seconds of `--seconds` one daemon run stands for. A daemon run takes
/// about 4.5 s; this books it at 3 s so a 30-s run pools 10 feeds: over
/// 8 feeds the pooled tail moved by 15% from seed to seed, over 12 by 9%.
const NOMINAL_DAEMON_RUN_S: f64 = 3.0;

/// Kernel samples that set the speed factor of each daemon run.
const KERNEL_SAMPLES: usize = 5;

/// `ArrowController::new` timings after each daemon run. One takes about
/// 15 ms on two threads, short enough that a single descheduling moves
/// it: with one timing per daemon run, scaled by the one-thread kernel,
/// the median of a run moved by a third from run to run.
const OFFLINE_REPEATS: usize = 8;

/// The configuration of daemon run `k` of a benchmark run: shipped
/// defaults (backend, ticket counts, 48 ticks, scrapes, chaos off) except
/// the feed seed, the cut rate, the demand jitter and where incident dumps
/// would go. At the shipped ±5% jitter, tick epochs ranged from 6 ms to
/// 870 ms and the median of one feed moved by half from seed to seed; at
/// ±1% most ticks take 13–60 ms. Each daemon run still gets its own feed,
/// so a run pools several.
pub fn serve_config(p: &Params, k: u64) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        seed: sub_seed(sub_seed(p.seed, streams::FEED), k),
        epochs: if p.tiny { 4 } else { defaults.epochs },
        mean_cut_interval_s: CUT_INTERVAL_S,
        demand_jitter: DEMAND_JITTER,
        incident_dir: p.out_dir.join("incidents"),
        ..defaults
    }
}

/// One daemon run and its wall seconds, topology build included.
fn daemon_run(cfg: &ServeConfig) -> Result<(ServeReport, f64), String> {
    let t = Instant::now();
    let wan = b4(TOPOLOGY_SEED);
    let report = serve(wan, cfg).map_err(|e| e.to_string())?;
    Ok((report, t.elapsed().as_secs_f64()))
}

fn is_cut_replan(log_line: &str) -> bool {
    log_line.contains(" cut:") || log_line.contains(" repair:")
}

/// Daemon-level checks of one run: `/readyz` went 503 → 200 and every
/// self-scrape succeeded (one operation); plan errors and deadline
/// fallbacks count as failed epochs.
fn check_report(checks: &mut Checks, r: &ServeReport, cfg: &ServeConfig) {
    let mut problems = Vec::new();
    if (r.readyz_before, r.readyz_after) != (503, 200) {
        problems.push(format!("/readyz went {} -> {}", r.readyz_before, r.readyz_after));
    }
    let scrapes = r.epochs_planned.checked_div(cfg.scrape_every).unwrap_or(0);
    if r.scrapes_ok != scrapes {
        problems.push(format!("{} of {scrapes} self-scrapes ok", r.scrapes_ok));
    }
    if r.epoch_seconds.len() as u64 != r.epochs_planned - r.plan_errors {
        problems.push(format!(
            "{} epoch times for {} epochs",
            r.epoch_seconds.len(),
            r.epochs_planned
        ));
    }
    checks.op("daemon health", problems);
    checks.bulk("daemon epochs", r.epochs_planned, r.plan_errors + r.fallbacks);
}

/// The replica's inputs, built the way `daemon::serve` builds its own.
fn replica_inputs(
    cfg: &ServeConfig,
) -> (Wan, Vec<FailureScenario>, ControllerConfig, TrafficMatrix) {
    let wan = b4(TOPOLOGY_SEED);
    let failures = generate_failures(
        &wan,
        &FailureConfig { max_scenarios: cfg.scenarios.max(1), ..Default::default() },
    );
    let tm = gravity_matrices(&wan, &TrafficConfig { num_matrices: 1, ..Default::default() })[0]
        .scaled(cfg.demand_scale);
    let ccfg = ControllerConfig {
        lottery: LotteryConfig { num_tickets: cfg.tickets.max(1), ..Default::default() },
        tunnels: TunnelConfig {
            tunnels_per_flow: cfg.tunnels_per_flow.max(1),
            ..Default::default()
        },
        solver: SolverConfig { backend: cfg.backend, ..Default::default() },
        ..Default::default()
    };
    (wan, failures.failure_scenarios().to_vec(), ccfg, tm)
}

/// The demand scale and kind of every epoch the feed triggers.
fn replica_schedule(cfg: &ServeConfig, wan: &Wan) -> Vec<(f64, Kind)> {
    let mut feed = EventFeed::new(FeedConfig {
        seed: cfg.seed,
        epoch_interval_s: cfg.epoch_interval_s,
        epochs: cfg.epochs,
        num_fibers: wan.optical.num_fibers(),
        mean_cut_interval_s: cfg.mean_cut_interval_s,
        repair_after_s: cfg.repair_after_s,
        demand_jitter: cfg.demand_jitter,
    });
    let mut scale = 1.0;
    let mut out = Vec::new();
    while let Some((_, ev)) = feed.next_event() {
        let kind = match ev {
            FeedEvent::EpochTick { demand_scale, .. } => {
                scale = demand_scale;
                Kind::Tick
            }
            _ => Kind::Event,
        };
        out.push((scale, if out.is_empty() { Kind::Cold } else { kind }));
    }
    out
}

/// FNV-1a fold, as the daemon digests its computed plans.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Plans the daemon's feed on a replica controller and checks every plan.
/// Returns the warm epochs' admitted Gbps and the winners digest.
fn replica(cfg: &ServeConfig, checks: &mut Checks) -> (Vec<f64>, u64) {
    let (wan, scens, ccfg, tm) = replica_inputs(cfg);
    let schedule = replica_schedule(cfg, &wan);
    let mut ctl = ArrowController::new(wan, scens, ccfg);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut gbps = Vec::new();
    for (e, &(scale, kind)) in schedule.iter().enumerate() {
        let res = ctl.plan_epoch(&tm.scaled(scale), None).map(|(p, _)| p);
        check_epoch(checks, &format!("replica epoch {e}"), &ctl, &res);
        if let Ok(plan) = res {
            digest = fnv1a(digest, &(e as u64).to_le_bytes());
            for &w in &plan.outcome.winning {
                digest = fnv1a(digest, &(w as u64).to_le_bytes());
            }
            if kind != Kind::Cold {
                gbps.push(admitted(&plan));
            }
        }
    }
    (gbps, digest)
}

/// Untraced run: as many whole daemon runs as fit in the run's seconds at
/// the nominal speed, then the replica's output checks.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, mut offs) = (Timed::default(), Timed::default());
    let (mut ticks, mut cuts, mut loop_walls) =
        (Timed::default(), Timed::default(), Timed::default());
    let (mut planned, mut hits, mut replans) = (0u64, 0u64, 0u64);
    let mut digest = None;
    let mut speed = Speed::default();
    for k in 0..units(p.seconds, NOMINAL_DAEMON_RUN_S) as u64 {
        let cfg = serve_config(p, k);
        for _ in 0..KERNEL_SAMPLES {
            speed.sample();
        }
        let run = daemon_run(&cfg);
        // The run lasts seconds: take its speed from both sides of it.
        for _ in 0..KERNEL_SAMPLES {
            speed.sample();
        }
        let factor = speed.recent_factor(2 * KERNEL_SAMPLES);
        let (r, wall) = match run {
            Ok(run) => run,
            Err(e) => {
                out.checks.op("daemon run", vec![e]);
                break;
            }
        };
        check_report(&mut out.checks, &r, &cfg);
        let loop_start = wall - r.wall_seconds;
        // The daemon's offline stage, timed on its own inputs: the daemon
        // reports only its whole pre-loop time, which also covers starting
        // the exporter and a first HTTP request. It runs on every worker
        // thread, so each timing takes its speed from the parallel kernel
        // samples just before and after it.
        speed.sample_parallel();
        for _ in 0..OFFLINE_REPEATS {
            let (wan, scens, ccfg, _) = replica_inputs(&cfg);
            let t = Instant::now();
            let ctl = ArrowController::new(wan, scens, ccfg);
            let secs = t.elapsed().as_secs_f64();
            drop(ctl);
            speed.sample_parallel();
            offs.push(secs, speed.recent_parallel_factor(2));
        }
        setups.push(loop_start + r.epoch_seconds.first().copied().unwrap_or(0.0), factor);
        // Epoch times line up with the event log unless an epoch failed,
        // which the checks above count.
        if r.epoch_seconds.len() == r.event_log.len() {
            for (&s, event) in r.epoch_seconds.iter().zip(&r.event_log).skip(1) {
                if is_cut_replan(event) {
                    cuts.push(s, factor);
                } else {
                    ticks.push(s, factor);
                }
            }
        }
        planned += r.epochs_planned;
        loop_walls.push(r.wall_seconds, factor);
        hits += r.warm_hits;
        replans += r.cut_replans;
        digest.get_or_insert(r.winning_digest);
    }
    out.kernel = (speed.median_s(), speed.samples());
    let (gbps, replica_digest) = replica(&serve_config(p, 0), &mut out.checks);
    if digest.is_some_and(|d| d != replica_digest) {
        out.notes.push(format!(
            "warning: the replica's winners digest {replica_digest:#x} differs from the daemon's {:#x}",
            digest.unwrap_or(0)
        ));
    }

    let tail = fill_times(&mut out, &setups, &offs, &ticks, &cuts, (planned as f64, &loop_walls));
    out.metrics.insert("admitted_gbps", mean(&gbps));
    let n = planned.max(1) as f64;
    out.character = format!(
        "backend={:?} daemon_runs={} warm_hit={:.3} cut_replan_share={:.3} epochs={} tail=p{} of {}",
        ServeConfig::default().backend,
        setups.len(),
        hits as f64 / n,
        replans as f64 / n,
        planned,
        tail.percentile,
        tail.samples
    );
    out
}

/// Traced run: one untraced and one traced daemon run for the overhead
/// and the daemon-level split, then the replica traced layer by layer.
pub fn run_traced(p: &Params) -> Outcome {
    let cfg = serve_config(p, 0);
    let mut out = Outcome::default();
    let untraced = match daemon_run(&cfg) {
        Ok((r, wall)) => {
            check_report(&mut out.checks, &r, &cfg);
            wall
        }
        Err(e) => {
            out.checks.op("daemon run", vec![e]);
            return out;
        }
    };

    let mut tr = Tracer::default();
    let root = tr.enter("daemon.serve", 0);
    let wan = tr.span("topology.build", 0, || b4(TOPOLOGY_SEED));
    let res = serve(wan, &cfg);
    tr.exit(root);
    let report = match res {
        Ok(r) => r,
        Err(e) => {
            out.checks.op("daemon run", vec![e.to_string()]);
            return out;
        }
    };
    check_report(&mut out.checks, &report, &cfg);
    let traced = tr.total("daemon.serve");
    let epoch_sum: f64 = report.epoch_seconds.iter().sum();

    let (wan, scens, ccfg, tm) = tr.span("topology.universe", 1, || replica_inputs(&cfg));
    let schedule = replica_schedule(&cfg, &wan);
    let nscen = scens.len();
    let before = batch_counters();
    let mut ctl = tr.span("offline", 1, || ArrowController::new(wan, scens, ccfg));
    let after = batch_counters();
    let stats = ctl.offline().stats.clone();
    crate::online::check_offline_state(&mut out.checks, &ctl);
    let offline_s = tr.total("offline");
    offline_layers(
        &mut out,
        &mut tr,
        &ctl,
        &stats,
        (after.0 - before.0, after.1 - before.1),
        offline_s,
    );

    let mut side = Side::new(&mut tr, &ctl, &tm.scaled(schedule[0].0));
    let mut samples = Vec::new();
    for (e, &(scale, kind)) in schedule.iter().enumerate() {
        samples.extend(side.epoch(
            &mut tr,
            &mut out.checks,
            &mut ctl,
            e as u64,
            &tm.scaled(scale),
            kind,
        ));
    }
    epoch_layer_metrics(&mut out, &tr, &samples);

    let daemon_offline = traced - report.wall_seconds;
    let m = &mut out.metrics;
    m.insert("topology.build_s", tr.total("topology.build"));
    m.insert("topology.universe_s", tr.total("topology.universe"));
    m.insert("topology.scenarios", nscen as f64);
    m.insert("daemon.offline_s", daemon_offline);
    m.insert("daemon.overhead_s", report.wall_seconds - epoch_sum);
    m.insert("daemon.warm_hit_ratio", report.warm_hit_ratio);
    m.insert("daemon.cut_replans", report.cut_replans as f64);
    m.insert("daemon.scrapes_ok", report.scrapes_ok as f64);
    m.insert("daemon.fallbacks", report.fallbacks as f64);
    m.insert("daemon.plan_errors", report.plan_errors as f64);
    m.insert("obs.trace_overhead_s", traced - untraced);
    out.notes.push(format!(
        "daemon wall {traced:.4} s traced ({untraced:.4} s untraced) = offline and set-up \
         {daemon_offline:.4} s + {} epochs {epoch_sum:.4} s + loop overhead {:.4} s",
        report.epoch_seconds.len(),
        report.wall_seconds - epoch_sum
    ));
    let warm_hits =
        samples.iter().filter(|s| s.kind != Kind::Cold && s.p1.warm == WarmEvent::Hit).count();
    out.character = format!(
        "{} daemon_warm_hit={:.3} replica_phase1_warm_hits={warm_hits}",
        character(&samples, after.0 - before.0),
        report.warm_hit_ratio
    );
    finish_trace(&mut out, &tr, p, "serve-b4");
    out
}
