//! Figure 6(d) — sensitivity to the blocking factor β.
//!
//! Sweeps β (the number of candidates kept per probe record is β·√|L|) and
//! reports AutoFJ's average precision/recall and running time at each point,
//! together with the blocking candidate-set statistics summed over the sweep
//! tasks.  The quality and candidate-count columns gate against the `fig6d`
//! section of the committed `BENCH_pr*.json` baseline with two-way coverage
//! (a dropped *or* added β is drift); timings stay informational.

use autofj_bench::runner::{autofj_options, run_autofj_with_stats};
use autofj_bench::smoke::{smoke, BenchSmokeReport, Fig6dPoint};
use autofj_bench::{sweep_setup, Reporter};
use autofj_block::BlockingStats;
use autofj_core::AutoFjOptions;

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
        let mut cand = BlockingStats::default();
        for task in &setup.tasks {
            let (_res, q, c, s) = run_autofj_with_stats(task, &setup.space, &options);
            p += q.precision;
            r += q.recall_relative;
            secs += s;
            cand.lr_pairs += c.lr_pairs;
            cand.ll_pairs += c.ll_pairs;
            cand.per_probe_max = cand.per_probe_max.max(c.per_probe_max);
            cand.scored_records += c.scored_records;
            cand.postings_scanned += c.postings_scanned;
            cand.postings_total += c.postings_total;
            eprintln!("[fig6d] {} @ β={beta}", task.name);
        }
        let n = setup.tasks.len() as f64;
        let point = Fig6dPoint {
            beta,
            precision: p / n,
            recall: r / n,
            seconds: secs / n,
            candidates: cand.into(),
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

    let report = BenchSmokeReport {
        fig6d: Some(points),
        ..Default::default()
    };
    smoke("fig6d_blocking", report, "fig6d");
}
