//! Figure 6(d) — sensitivity to the blocking factor β.
//!
//! Sweeps β (the number of candidates kept per probe record is β·√|L|) and
//! reports AutoFJ's average precision/recall and running time at each point,
//! together with the blocking candidate-set statistics summed over the sweep
//! tasks.  The quality and candidate-count columns gate against the `fig6d`
//! section of the committed `BENCH_pr*.json` baseline with two-way coverage
//! (a dropped *or* added β is drift); timings stay informational.

use autofj_bench::runner::{autofj_options, run_autofj};
use autofj_bench::smoke::{
    diff_fig6d_against_baseline, resolve_baseline, BenchSmokeReport, Fig6dPoint,
};
use autofj_bench::{peak_rss_bytes, sweep_setup, write_json, Reporter};
use autofj_core::{timing, AutoFjOptions};

fn main() {
    let setup = sweep_setup();
    let betas = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0];
    let mut reporter = Reporter::new(
        "Figure 6(d): sensitivity to the blocking factor β",
        &[
            "β",
            "Avg precision",
            "Avg recall",
            "Avg seconds",
            "L-R pairs",
        ],
    );
    let mut points = Vec::new();
    for &beta in &betas {
        let options = AutoFjOptions {
            blocking_factor: beta,
            ..autofj_options()
        };
        let mut p = 0.0;
        let mut r = 0.0;
        let mut secs = 0.0;
        let mut cand = timing::CandidateStats::default();
        for task in &setup.tasks {
            timing::reset();
            let (_res, q, _, s) = run_autofj(task, &setup.space, &options);
            p += q.precision;
            r += q.recall_relative;
            secs += s;
            if let Some(c) = timing::blocking_stats() {
                cand.lr_pairs += c.lr_pairs;
                cand.ll_pairs += c.ll_pairs;
                cand.per_probe_max = cand.per_probe_max.max(c.per_probe_max);
                cand.scored_records += c.scored_records;
                cand.postings_scanned += c.postings_scanned;
                cand.postings_total += c.postings_total;
            }
            eprintln!("[fig6d] {} @ β={beta}", task.name);
        }
        cand.reduction_ratio =
            if cand.postings_total == 0 || cand.postings_scanned >= cand.postings_total {
                0.0
            } else {
                1.0 - cand.postings_scanned as f64 / cand.postings_total as f64
            };
        let n = setup.tasks.len() as f64;
        let point = Fig6dPoint {
            beta,
            precision: p / n,
            recall: r / n,
            seconds: secs / n,
            candidates: cand,
        };
        reporter.add_metric_row(
            &format!("{beta}"),
            &[
                point.precision,
                point.recall,
                point.seconds,
                point.candidates.lr_pairs as f64,
            ],
        );
        points.push(point);
    }
    reporter.print();

    // Persist as a (sparse) smoke report so the trajectory merge and the
    // bench gate can treat the sweep like any other leg.
    let report = BenchSmokeReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        peak_rss_bytes: peak_rss_bytes(),
        tasks: Vec::new(),
        serve: None,
        scenarios: None,
        fig6d: Some(points),
        identical_results: true,
    };
    let path = write_json("fig6d_blocking", &report);
    println!("JSON written to {}", path.display());
    if let Ok(extra) = std::env::var("AUTOFJ_BENCH_OUT") {
        if let Err(e) = std::fs::copy(&path, &extra) {
            eprintln!("could not copy report to {extra}: {e}");
        } else {
            println!("wrote {extra}");
        }
    }

    // Gate: the sweep's quality and candidate counts must match the
    // baseline's `fig6d` section.  Baselines that predate the section skip
    // the gate (the next committed baseline picks it up).
    if let Some(baseline_path) = resolve_baseline() {
        let baseline_path = baseline_path.display().to_string();
        let baseline: BenchSmokeReport = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("ERROR: could not parse baseline {baseline_path}: {e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("ERROR: could not read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        match (&report.fig6d, &baseline.fig6d) {
            (Some(fresh), Some(base)) => {
                let mut errors = Vec::new();
                diff_fig6d_against_baseline(fresh, base, &mut errors);
                if errors.is_empty() {
                    println!(
                        "fig6d-gate: quality and candidate counts match {baseline_path} \
                         for {} sweep point(s)",
                        fresh.len()
                    );
                } else {
                    eprintln!("ERROR: fig6d-gate found drift vs {baseline_path}:");
                    for e in &errors {
                        eprintln!("  - {e}");
                    }
                    eprintln!(
                        "If the change is intentional, regenerate the baseline's fig6d \
                         section with `cargo run --release -p autofj-bench --bin \
                         fig6d_blocking` and merge it into the committed BENCH_pr*.json."
                    );
                    std::process::exit(1);
                }
            }
            (_, None) => {
                println!("fig6d-gate: baseline {baseline_path} has no fig6d section; skipping");
            }
            (None, Some(_)) => unreachable!("the sweep always produces a fig6d section"),
        }
    } else {
        println!("fig6d-gate: no baseline (AUTOFJ_BENCH_BASELINE=none or no BENCH_pr*.json)");
    }
}
