//! A realistic single-column scenario on generated benchmark data: join a
//! query table of messy NCAA-style team-season names against a reference
//! table, evaluate against ground truth, and compare with the Excel-style
//! baseline — a miniature version of the paper's Table 2 protocol.
//!
//! ```bash
//! cargo run --release --example ncaa_teams
//! ```

use autofj::baselines::{ExcelLike, UnsupervisedMatcher};
use autofj::core::{AutoFjOptions, AutoFuzzyJoin};
use autofj::datagen::{benchmark_specs, BenchmarkScale};
use autofj::eval::{adjusted_recall, evaluate_assignment, upper_bound_recall};
use autofj::text::JoinFunctionSpace;

fn main() {
    // "NCAATeamSeason" is task #27 of the generated 50-task benchmark.
    let spec = &benchmark_specs(BenchmarkScale::Tiny)[27];
    let task = spec.generate();
    println!(
        "Task {}: |L| = {}, |R| = {}, ground-truth matches = {}",
        task.name,
        task.left.len(),
        task.right.len(),
        task.num_matches()
    );

    let space = JoinFunctionSpace::reduced24();
    let options = AutoFjOptions::default();
    let joiner = AutoFuzzyJoin::builder()
        .space(space.clone())
        .options(options.clone())
        .build();
    let result = joiner.join_values(&task.left, &task.right);
    let quality = evaluate_assignment(&result.assignment, &task.ground_truth);

    println!("\nAutoFJ program: {}", result.program);
    println!(
        "AutoFJ:  precision = {:.3}  recall = {:.3}  (estimated precision = {:.3})",
        quality.precision, quality.recall_relative, result.estimated_precision
    );

    // Compare with the strongest unsupervised baseline at the same precision.
    let excel_preds = ExcelLike::default().predict(&task.left, &task.right);
    let excel = adjusted_recall(&excel_preds, &task.ground_truth, quality.precision);
    println!(
        "Excel:   precision = {:.3}  adjusted recall = {:.3}",
        excel.precision, excel.recall_relative
    );

    let ubr = upper_bound_recall(
        &task.left,
        &task.right,
        &space,
        &options,
        &task.ground_truth,
    );
    println!("Upper bound of recall over this configuration space = {ubr:.3}");

    // Show a few example joins.
    println!("\nSample joins:");
    for pair in result.pairs.iter().take(5) {
        println!(
            "  {:50} -> {:50} (config #{}, est. precision {:.2})",
            task.right[pair.right],
            task.left[pair.left],
            pair.config_index,
            pair.estimated_precision
        );
    }
}
