//! CI robustness-matrix: the paper's stress suite as an enforceable gate.
//!
//! Runs every scenario of [`autofj_datagen::scenario_registry`] — zero-join,
//! irrelevant-record injection at several rates, sparsified reference, the
//! three perturbation mixes, Zipf-skewed tokens, and a multi-column blend
//! with random noise columns — through the full pipeline, once with 1 worker
//! thread and once with `AUTOFJ_BENCH_THREADS` (default 4), and verifies per
//! scenario that both legs produce a byte-identical serialized `JoinResult`.
//!
//! The report lands in `target/experiments/BENCH_scenarios.json` as a
//! [`BenchSmokeReport`] whose `scenarios` section is filled (plus a copy at
//! `AUTOFJ_BENCH_OUT` when set).  `AUTOFJ_BENCH_MERGE_INTO=<path>` instead
//! merges the `scenarios` section into an existing report — that is how the
//! committed `BENCH_pr*.json` trajectory entry gains its scenario rows.
//!
//! Every scenario row carries the [`autofj_eval::DataProfile`] of its
//! generated tables next to the quality fields, and the **scenario gate**
//! (baseline resolution shared with `bench_smoke`) fails on any drift in
//! either: a drifted profile means the generator changed, drifted quality
//! under an identical profile means the pipeline changed.  Timings stay
//! informational so wall-clock noise can never fail CI.
//!
//! ```bash
//! cargo run --release -p autofj-bench --bin robustness_matrix
//! ```
//!
//! Exits non-zero if any scenario's results differ across thread counts or
//! any quality-or-profile field drifts from the committed baseline.

use autofj_bench::runner::{autofj_options, env_space, run_autofj};
use autofj_bench::smoke::{smoke, BenchSmokeReport, ScenarioBench, ScenarioRun};
use autofj_bench::Reporter;
use autofj_core::multi_column::join_multi_column;
use autofj_core::JoinResult;
use autofj_datagen::{scenario_registry, ScenarioData, ScenarioSpec};
use autofj_eval::evaluate_assignment;
use autofj_text::JoinFunctionSpace;
use std::time::Instant;

/// Execute one scenario's generated data once on the current thread pool.
fn run_scenario_once(
    data: &ScenarioData,
    space: &JoinFunctionSpace,
) -> (JoinResult, f64, f64, f64) {
    let options = autofj_options();
    match data {
        ScenarioData::Single(task) => {
            let (result, quality, _pepcc, seconds) = run_autofj(task, space, &options);
            (result, quality.precision, quality.recall_relative, seconds)
        }
        ScenarioData::Multi(task) => {
            let start = Instant::now();
            let result = join_multi_column(&task.left, &task.right, space, &options);
            let seconds = start.elapsed().as_secs_f64();
            let quality = evaluate_assignment(&result.assignment, &task.ground_truth);
            (result, quality.precision, quality.recall_relative, seconds)
        }
    }
}

/// Measure one scenario at 1 and `multi_threads` workers.
fn bench_scenario(
    spec: &ScenarioSpec,
    space: &JoinFunctionSpace,
    multi_threads: usize,
) -> ScenarioBench {
    let data = spec.generate();
    let profile = data.profile();
    data.validate()
        .unwrap_or_else(|e| panic!("{}: generated data is inconsistent: {e}", spec.name));

    let mut runs = Vec::new();
    let mut serialized: Vec<String> = Vec::new();
    for threads in [1usize, multi_threads] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let (result, actual_precision, actual_recall, seconds) = run_scenario_once(&data, space);
        serialized.push(serde_json::to_string(&result).expect("JoinResult serializes"));
        runs.push(ScenarioRun {
            threads,
            seconds,
            joined: result.num_joined(),
            estimated_precision: result.estimated_precision,
            actual_precision,
            actual_recall,
        });
    }
    // Restore the environment-driven default for anything running after us.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("reset shim pool");

    ScenarioBench {
        scenario: spec.name.clone(),
        kind: spec.kind.label().to_string(),
        size: data.size(),
        profile,
        runs,
        identical_results: serialized.windows(2).all(|w| w[0] == w[1]),
    }
}

fn main() {
    // Default to the reduced 24-function space so the matrix stays fast on
    // CI; AUTOFJ_SPACE selects a bigger space for deeper sessions (the
    // committed baseline is produced with the default).
    let space = env_space(JoinFunctionSpace::reduced24());
    let multi_threads: usize = std::env::var("AUTOFJ_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or(4);

    let registry = scenario_registry();
    let mut scenarios = Vec::with_capacity(registry.len());
    for spec in &registry {
        eprintln!(
            "robustness-matrix: {} ({}) at 1 and {multi_threads} threads...",
            spec.name,
            spec.kind.label()
        );
        scenarios.push(bench_scenario(spec, &space, multi_threads));
    }

    let mut table = Reporter::new(
        "robustness-matrix: the paper's stress suite, gated",
        &[
            "Scenario", "Kind", "Size", "Density", "Gini", "Joined", "EstP", "P", "R", "Same",
        ],
    );
    for s in &scenarios {
        let multi = s.runs.last().expect("two legs");
        table.add_row(vec![
            s.scenario.clone(),
            s.kind.clone(),
            format!("{}x{}", s.size.0, s.size.1),
            format!("{:.3}", s.profile.match_density),
            format!("{:.3}", s.profile.token_skew_gini),
            multi.joined.to_string(),
            format!("{:.3}", multi.estimated_precision),
            format!("{:.3}", multi.actual_precision),
            format!("{:.3}", multi.actual_recall),
            s.identical_results.to_string(),
        ]);
    }
    table.print();

    let report = BenchSmokeReport {
        scenarios: Some(scenarios),
        ..Default::default()
    };
    smoke("BENCH_scenarios", report, "scenarios");
}
