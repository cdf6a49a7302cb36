//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-ibm|online-b4-diurnal|serve-b4> --seed <n> --seconds <s> --trace <0|1>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use arrow_perfbench::{result_json, run, Params, Workload, END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: arrow-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let params = Params { seed, seconds, tiny: false, out_dir };
    println!(
        "workload={} seed={seed} seconds={seconds} trace={} threads={}",
        workload.name(),
        u8::from(traced),
        arrow_wan::core::default_threads()
    );
    let out = run(workload, &params, traced);
    println!("character: {}", out.character);
    for line in &out.notes {
        println!("{line}");
    }
    for msg in &out.checks.messages {
        println!("FAILED {msg}");
    }
    let names = if traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in names {
        println!("{name:<26} {:>16.6} {unit}", out.metrics.get(name).copied().unwrap_or(f64::NAN));
    }
    println!("checks: {} attempted, {} failed", out.checks.attempted, out.checks.failed);
    println!("{}", result_json(&out, names));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
