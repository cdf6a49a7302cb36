//! The benchmark's own tests: tail-percentile selection, failure
//! accounting, and a tiny-size run of every workload.

use std::path::PathBuf;

use arrow_perfbench::checks::{plan_problems, Checks};
use arrow_perfbench::online::{check_epoch, controller_config, failures, traffic, DIURNAL};
use arrow_perfbench::stats::{tail, tail_or_median, TAIL_BEYOND};
use arrow_perfbench::{run, Params, Workload, END_TO_END, PER_LAYER, TOPOLOGY_SEED};
use arrow_wan::core::{generate_tickets_universe, ArrowController};
use arrow_wan::topology::b4;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&samples, TAIL_BEYOND).expect("100 samples leave a tail");
    assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));

    // Order does not matter, and 64 samples give p84: the 54th value.
    let shuffled: Vec<f64> = (0..64).map(|i| f64::from((i * 37) % 64)).collect();
    let t = tail(&shuffled, TAIL_BEYOND).expect("64 samples leave a tail");
    assert_eq!((t.percentile, t.value), (84, 53.0));

    for n in TAIL_BEYOND + 1..400 {
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = tail(&samples, TAIL_BEYOND).expect("more than ten samples");
        let beyond = samples.iter().filter(|&&v| v > t.value).count();
        assert!(beyond >= TAIL_BEYOND, "n={n}: p{} leaves {beyond}", t.percentile);
        // One percentile higher would leave fewer than ten beyond.
        let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
        assert!(
            n - next_rank < TAIL_BEYOND || t.percentile == 99,
            "n={n}: p{} is not the highest",
            t.percentile
        );
    }
}

#[test]
fn too_short_runs_have_no_tail_and_report_the_median() {
    let ten: Vec<f64> = (0..10).map(f64::from).collect();
    assert_eq!(tail(&ten, TAIL_BEYOND), None);
    assert_eq!(tail(&[], TAIL_BEYOND), None);
    let eleven: Vec<f64> = (0..11).map(f64::from).collect();
    let t = tail(&eleven, TAIL_BEYOND).expect("eleven samples leave one value with ten beyond");
    assert_eq!(t.value, 0.0);
    let short = tail_or_median(&[3.0, 9.0, 4.0]);
    assert_eq!((short.percentile, short.value, short.samples), (50, 4.0, 3));
}

#[test]
fn ticketless_scenario_counts_as_a_failed_epoch_not_a_panic() {
    let wan = b4(TOPOLOGY_SEED);
    let tm = traffic(&wan);
    let universe = failures(&wan);
    let cfg = controller_config(4);
    let (mut tickets, _) = generate_tickets_universe(&wan, &universe, &cfg.lottery);
    let mut good = ArrowController::with_tickets(
        wan.clone(),
        universe.failure_scenarios(),
        tickets.clone(),
        cfg.clone(),
    );
    tickets.per_scenario[1].clear();
    let mut hollow = ArrowController::with_tickets(wan, universe.failure_scenarios(), tickets, cfg);

    let mut checks = Checks::default();
    let demand = tm.scaled(DIURNAL[0]);
    let res = good.plan_epoch(&demand, None).map(|(p, _)| p);
    check_epoch(&mut checks, "good", &good, &res);
    let res = hollow.plan_epoch(&demand, None).map(|(p, _)| p);
    check_epoch(&mut checks, "hollow", &hollow, &res);
    assert_eq!((checks.attempted, checks.failed), (2, 1));
    assert_eq!(checks.ok_ratio(), 0.5);
    assert!(checks.messages[0].starts_with("hollow: scenario 1"), "{:?}", checks.messages);

    // A plan whose output breaks a check is counted the same way.
    let mut plan = good.plan_epoch(&demand, None).expect("valid offline state").0;
    assert!(plan_problems(&plan, &good.offline().scenarios, &good.offline().tickets).is_empty());
    plan.outcome.output.alloc.b[0] = plan.instance.flows[0].demand_gbps * 2.0 + 1.0;
    plan.outcome.winning[0] = 999;
    let problems = plan_problems(&plan, &good.offline().scenarios, &good.offline().tickets);
    assert_eq!(problems.len(), 2, "{problems:?}");
}

#[test]
fn every_workload_runs_tiny_and_reports_every_metric() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tiny");
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    // One test, so the daemon runs never overlap (readiness is global).
    for workload in Workload::ALL {
        let params = Params { seed: 7, seconds: 0.0, tiny: true, out_dir: out_dir.clone() };
        for traced in [false, true] {
            let out = run(workload, &params, traced);
            let name = workload.name();
            assert_eq!(out.checks.failed, 0, "{name} traced={traced}: {:?}", out.checks.messages);
            assert!(out.checks.attempted > 0, "{name} traced={traced} checked nothing");
            let names = if traced { PER_LAYER } else { END_TO_END };
            for (metric, _) in names {
                let v = out.metrics.get(metric).copied();
                assert!(v.is_some_and(f64::is_finite), "{name} traced={traced}: {metric} = {v:?}");
            }
            if !traced {
                for metric in
                    ["setup_s", "offline_s", "epoch_p50_s", "epochs_per_s", "admitted_gbps"]
                {
                    assert!(out.metrics[metric] > 0.0, "{name}: {metric} is 0");
                }
                assert_eq!(out.metrics["ok_ratio"], 1.0);
            }
        }
    }
}
