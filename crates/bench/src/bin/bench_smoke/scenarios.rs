//! The `scenarios` section: the paper's stress suite as an enforceable gate.
//!
//! Runs every scenario of [`autofj_datagen::scenario_registry`] — zero-join,
//! irrelevant-record injection at several rates, sparsified reference, the
//! three perturbation mixes, Zipf-skewed tokens, and a multi-column blend
//! with random noise columns — through the full pipeline in the reduced
//! 24-function space, at 1 and [`MULTI_THREADS`] worker threads, and
//! verifies per scenario that both legs produce a byte-identical serialized
//! `JoinResult`.
//!
//! Every scenario row carries the [`autofj_eval::DataProfile`] of its
//! generated tables next to the quality fields, and the gate fails on any
//! drift in either: a drifted profile means the generator changed, drifted
//! quality under an identical profile means the pipeline changed.  Timings
//! stay informational so wall-clock noise can never fail CI.

use crate::thread_legs;
use autofj_bench::runner::{autofj_options, run_autofj};
use autofj_bench::smoke::{ScenarioBench, ScenarioRun, MULTI_THREADS};
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
            let (result, quality, _, seconds) = run_autofj(task, space, &options);
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

/// Measure one scenario at 1 and [`MULTI_THREADS`] workers.
fn bench_scenario(spec: &ScenarioSpec, space: &JoinFunctionSpace) -> ScenarioBench {
    let data = spec.generate();
    let profile = data.profile();
    data.validate()
        .unwrap_or_else(|e| panic!("{}: generated data is inconsistent: {e}", spec.name));

    let (runs, identical_results) = thread_legs(|threads| {
        let (result, actual_precision, actual_recall, seconds) = run_scenario_once(&data, space);
        let run = ScenarioRun {
            threads,
            seconds,
            joined: result.num_joined(),
            estimated_precision: result.estimated_precision,
            actual_precision,
            actual_recall,
        };
        (result, run)
    });

    ScenarioBench {
        scenario: spec.name.clone(),
        kind: spec.kind.label().to_string(),
        size: data.size(),
        profile,
        runs,
        identical_results,
    }
}

/// Measure the `scenarios` section and print its table.
pub fn measure() -> Vec<ScenarioBench> {
    let space = JoinFunctionSpace::reduced24();
    let registry = scenario_registry();
    let mut scenarios = Vec::with_capacity(registry.len());
    for spec in &registry {
        eprintln!(
            "bench-smoke: scenarios: {} ({}) at 1 and {MULTI_THREADS} threads...",
            spec.name,
            spec.kind.label()
        );
        scenarios.push(bench_scenario(spec, &space));
    }

    let mut table = Reporter::new(
        "bench-smoke: scenarios: the paper's stress suite, gated",
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
    scenarios
}
