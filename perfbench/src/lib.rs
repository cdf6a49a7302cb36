//! End-to-end and per-layer benchmark of the ARROW controller pipeline.
//!
//! Three workloads stress different layers of the same system:
//!
//! * `offline-ibm` — LotteryTicket generation over a 64-scenario IBM
//!   universe: RWA build, the LP kernel, batching, rounding/filtering and
//!   the thread pool do all the work; the online layers do none.
//! * `online-b4-diurnal` — a closed loop of `plan_epoch` calls on B4 along
//!   a diurnal demand curve: the Phase I / Phase II LP solves dominate.
//! * `serve-b4` — the `arrow serve` daemon on B4: small demand deltas make
//!   the fixed per-epoch cost (demand patching, winner selection, rule
//!   compilation, recorder, scrapes) dominate.
//!
//! The end-to-end run times only the entry points `generate_tickets_universe`,
//! `ArrowController::{new, with_tickets, plan_epoch}` and `daemon::serve`.
//! The traced run additionally calls finer public functions to split the
//! same work into layers; no end-to-end number depends on those calls.

pub mod checks;
pub mod offline;
pub mod online;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Topology builder seed. Fixed: other topology seeds grow the Phase I LP
/// severalfold, which makes a different workload, not a fresh sample.
pub const TOPOLOGY_SEED: u64 = 17;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("offline_s", "s"),
    ("epoch_p50_s", "s"),
    ("epoch_tail_s", "s"),
    ("epochs_per_s", "1/s"),
    ("cut_replan_p50_s", "s"),
    ("admitted_gbps", "Gbps"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("topology.universe_s", "s"),
    ("topology.scenarios", "count"),
    ("rwa.build_s", "s"),
    ("rwa.extract_s", "s"),
    ("rwa.rows", "count"),
    ("rwa.cols", "count"),
    ("rwa.nnz", "count"),
    ("lp.rwa.solve_s", "s"),
    ("lp.rwa.iterations", "count"),
    ("lp.rwa.refactors", "count"),
    ("lp.batch.groups", "count"),
    ("lp.batch.lanes", "count"),
    ("lp.phase1.solve_s", "s"),
    ("lp.phase1.iterations", "count"),
    ("lp.phase1.rows", "count"),
    ("lp.phase1.cols", "count"),
    ("lp.phase1.nnz", "count"),
    ("lp.phase1.backend", "pdhg_share"),
    ("lp.phase1.warm_hit_ratio", "ratio"),
    ("lp.phase2.solve_s", "s"),
    ("lp.phase2.iterations", "count"),
    ("lp.phase2.rows", "count"),
    ("lp.phase2.cols", "count"),
    ("lp.phase2.nnz", "count"),
    ("lp.phase2.backend", "pdhg_share"),
    ("lp.phase2.warm_hit_ratio", "ratio"),
    ("lp.pdhg.restarts", "count"),
    ("lp.simplex.refactors", "count"),
    ("lottery.round_s", "s"),
    ("lottery.filter_s", "s"),
    ("lottery.rounds", "count"),
    ("lottery.infeasible", "count"),
    ("lottery.duplicates", "count"),
    ("lottery.kept", "count"),
    ("lottery.kept_ratio", "ratio"),
    ("par.threads", "count"),
    ("par.offline_speedup", "ratio"),
    ("tunnels.build_s", "s"),
    ("tunnels.with_demands_s", "s"),
    ("arrow.skeleton_s", "s"),
    ("arrow.solve_s", "s"),
    ("arrow.select_build_s", "s"),
    ("controller.finish_s", "s"),
    ("controller.rules", "count"),
    ("daemon.offline_s", "s"),
    ("daemon.overhead_s", "s"),
    ("daemon.warm_hit_ratio", "ratio"),
    ("daemon.cut_replans", "count"),
    ("daemon.scrapes_ok", "count"),
    ("daemon.fallbacks", "count"),
    ("daemon.plan_errors", "count"),
    ("obs.trace_overhead_s", "s"),
    ("obs.coverage", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ticket generation over a 64-scenario IBM universe.
    OfflineIbm,
    /// Closed `plan_epoch` loop on B4 along a diurnal curve.
    OnlineB4Diurnal,
    /// The `arrow serve` daemon on B4.
    ServeB4,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] =
        [Workload::OfflineIbm, Workload::OnlineB4Diurnal, Workload::ServeB4];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineIbm => "offline-ibm",
            Workload::OnlineB4Diurnal => "online-b4-diurnal",
            Workload::ServeB4 => "serve-b4",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed of the generated inputs (demand jitter, lottery draws, feed).
    pub seed: u64,
    /// Wall seconds the measured loop runs for (at least one unit of
    /// work is always done).
    pub seconds: f64,
    /// Shrink every workload to a few seconds (tests only).
    pub tiny: bool,
    /// Directory for the trace file and daemon incident dumps.
    pub out_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed, with the first failure messages.
    pub checks: checks::Checks,
    /// One line describing the workload's character for this seed.
    pub character: String,
    /// Further human-readable lines (layer tables, warnings).
    pub notes: Vec<String>,
    /// Median seconds of the speed reference kernel over the run, and the
    /// number of samples (0 in traced runs).
    pub kernel: (f64, usize),
    /// End-to-end times and rates as measured, before scaling to the
    /// nominal speed (untraced runs).
    pub measured: BTreeMap<&'static str, f64>,
}

/// Derives an independent sub-seed for input stream `stream`
/// (splitmix64), so one seed drives every generated input.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed streams.
pub mod streams {
    /// Demand jitter along the diurnal curve (`online-b4-diurnal`).
    pub const TRAFFIC: u64 = 1;
    /// LotteryTicket rounding draws (`offline-ibm`).
    pub const LOTTERY: u64 = 2;
    /// Daemon event feed: jitter and cut times (`serve-b4`).
    pub const FEED: u64 = 4;
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(lp.batch.groups, lp.batch.lanes)` from the metrics
/// registry; diff two readings taken around a call.
pub fn batch_counters() -> (u64, u64) {
    let snap = arrow_wan::obs::metrics::snapshot();
    (snap.counter("lp.batch.groups"), snap.counter("lp.batch.lanes"))
}

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(workload: Workload, params: &Params, traced: bool) -> Outcome {
    let mut out = match (workload, traced) {
        (Workload::OfflineIbm, false) => offline::run(params),
        (Workload::OfflineIbm, true) => offline::run_traced(params),
        (Workload::OnlineB4Diurnal, false) => online::run(params),
        (Workload::OnlineB4Diurnal, true) => online::run_traced(params),
        (Workload::ServeB4, false) => serve::run(params),
        (Workload::ServeB4, true) => serve::run_traced(params),
    };
    if traced {
        for (name, _) in PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    } else {
        out.metrics.insert("ok_ratio", out.checks.ok_ratio());
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
        note_measured(&mut out);
    }
    out
}

/// Units of work a run of `seconds` does, each taking about `nominal_s`
/// at the nominal speed (at least one). The work is fixed by `seconds`,
/// not by the clock, so every run with the same seed plans the same
/// epochs and its percentiles are taken over the same samples.
pub fn units(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(1)
}

/// Fills the end-to-end time metrics from a run's timed samples: scaled
/// to the nominal speed into `metrics`, as measured into `measured`.
/// `epochs` are the demand-change epochs the median and tail are taken
/// over; `rate` is the operation count and the walls it is divided by.
/// Returns the tail of the scaled epochs.
pub fn fill_times(
    out: &mut Outcome,
    setup: &speed::Timed,
    offline: &speed::Timed,
    epochs: &speed::Timed,
    cuts: &speed::Timed,
    rate: (f64, &speed::Timed),
) -> stats::Tail {
    type Pick = fn(&speed::Timed) -> &[f64];
    let picks: [(Pick, bool); 2] = [(speed::Timed::scaled, true), (speed::Timed::raw, false)];
    for (pick, scaled) in picks {
        let m = if scaled { &mut out.metrics } else { &mut out.measured };
        m.insert("setup_s", stats::median(pick(setup)));
        m.insert("offline_s", stats::median(pick(offline)));
        m.insert("epoch_p50_s", stats::median(pick(epochs)));
        m.insert("epoch_tail_s", stats::tail_or_median(pick(epochs)).value);
        m.insert("epochs_per_s", rate.0 / pick(rate.1).iter().sum::<f64>());
        m.insert("cut_replan_p50_s", stats::median(pick(cuts)));
    }
    stats::tail_or_median(epochs.scaled())
}

/// Notes the kernel's speed and the end-to-end times as measured, before
/// scaling to the nominal speed.
fn note_measured(out: &mut Outcome) {
    let (kernel_s, samples) = out.kernel;
    let measured: Vec<String> = out.measured.iter().map(|(k, v)| format!("{k}={v:.6}")).collect();
    out.notes.push(format!(
        "speed: reference kernel median {kernel_s:.6} s over {samples} samples (nominal {} s); \
         as measured: {}",
        speed::NOMINAL_S,
        measured.join(" ")
    ));
}

/// The result line: one JSON object with the metrics of `names`, in order.
pub fn result_json(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A run whose operations all failed can leave a rate of
            // 1/0; it reports 0 beside `correct: false`.
            let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        metrics.join(", ")
    )
}
