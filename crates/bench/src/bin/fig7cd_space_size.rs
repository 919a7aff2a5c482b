//! Figure 7(c) and 7(d) — varying the configuration-space size.
//!
//! Runs AutoFJ with the graded sub-spaces (24, 38, 70, 140 join functions)
//! and reports (c) average precision/recall plus the Excel / Magellan
//! adjusted recall at AutoFJ's precision, and (d) the running time of the
//! pipeline components (blocking + distances + precision pre-compute vs.
//! greedy search) at each space size.

use autofj_baselines::{ExcelLike, MagellanRf};
use autofj_bench::runner::{autofj_options, run_autofj, run_supervised, run_unsupervised};
use autofj_bench::{env_scale, env_task_limit, write_json, Reporter};
use autofj_datagen::benchmark_specs;
use autofj_text::JoinFunctionSpace;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    space_size: usize,
    precision: f64,
    recall: f64,
    excel_adjusted_recall: f64,
    magellan_adjusted_recall: f64,
    precompute_seconds: f64,
    greedy_seconds: f64,
}

fn main() {
    let specs = benchmark_specs(env_scale());
    let limit = env_task_limit().min(specs.len()).min(10);
    let tasks: Vec<_> = specs.iter().take(limit).map(|s| s.generate()).collect();
    let options = autofj_options();
    let mut reporter = Reporter::new(
        "Figure 7(c,d): varying the configuration-space size",
        &[
            "|S|",
            "P",
            "R",
            "Excel AR",
            "Magellan AR",
            "precompute s",
            "greedy s",
        ],
    );
    let mut points = Vec::new();
    for space in JoinFunctionSpace::standard_subspaces() {
        let mut p = 0.0;
        let mut r = 0.0;
        let mut e = 0.0;
        let mut m = 0.0;
        let mut pre_s = 0.0;
        let mut greedy_s = 0.0;
        for task in &tasks {
            eprintln!("[fig7cd] {} with |S|={}", task.name, space.len());
            let (_res, q, _, _total) = run_autofj(task, &space, &options);
            p += q.precision;
            r += q.recall_relative;
            e += run_unsupervised(&ExcelLike::default(), task, q.precision).adjusted_recall;
            m += run_supervised(&MagellanRf::default(), task, q.precision, 7).adjusted_recall;
            // Component timing: measure the pre-compute (blocking + distances
            // + precision estimates) separately from the greedy search.
            let start = Instant::now();
            let oracle = autofj_core::oracle::SingleColumnOracle::build(
                space.functions(),
                &task.left,
                &task.right,
            );
            let blocking = options
                .blocker()
                .block_prepared(oracle.column(), task.left.len());
            let pre = autofj_core::estimate::Precompute::build(
                &oracle,
                &blocking.left_candidates_of_right,
                &blocking.left_candidates_of_left,
                options.num_thresholds,
            );
            pre_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let _ = autofj_core::greedy::run_greedy(&pre, &options);
            greedy_s += start.elapsed().as_secs_f64();
        }
        let n = tasks.len() as f64;
        let point = Point {
            space_size: space.len(),
            precision: p / n,
            recall: r / n,
            excel_adjusted_recall: e / n,
            magellan_adjusted_recall: m / n,
            precompute_seconds: pre_s / n,
            greedy_seconds: greedy_s / n,
        };
        reporter.add_metric_row(
            &format!("{}", point.space_size),
            &[
                point.precision,
                point.recall,
                point.excel_adjusted_recall,
                point.magellan_adjusted_recall,
                point.precompute_seconds,
                point.greedy_seconds,
            ],
        );
        points.push(point);
    }
    reporter.print();
    let path = write_json("fig7cd_space_size", &points);
    println!("JSON written to {}", path.display());
}
