//! Cross-crate integration tests: generated benchmark data → blocking →
//! AutoFJ → evaluation, on single-column tasks.

use autofj::core::{AutoFjOptions, AutoFuzzyJoin};
use autofj::datagen::{benchmark_specs, BenchmarkScale};
use autofj::eval::{evaluate_assignment, upper_bound_recall};
use autofj::text::JoinFunctionSpace;

fn joiner() -> AutoFuzzyJoin {
    AutoFuzzyJoin::builder()
        .space(JoinFunctionSpace::reduced24())
        .options(AutoFjOptions {
            num_thresholds: 25,
            ..AutoFjOptions::default()
        })
        .build()
}

#[test]
fn autofj_meets_its_precision_target_on_generated_tasks() {
    let specs = benchmark_specs(BenchmarkScale::Tiny);
    // A handful of structurally different domains.
    let mut checked = 0;
    for idx in [4, 19, 27, 36, 45] {
        let task = specs[idx].generate();
        let result = joiner().join_values(&task.left, &task.right);
        if result.num_joined() < 5 {
            continue; // too few joins for a meaningful precision check
        }
        let q = evaluate_assignment(&result.assignment, &task.ground_truth);
        // The estimator promises 0.9 in expectation; allow synthetic-data
        // slack but catch gross violations.
        assert!(
            q.precision >= 0.7,
            "{}: actual precision {:.3} too far below the 0.9 target",
            task.name,
            q.precision
        );
        checked += 1;
    }
    assert!(checked >= 3, "not enough tasks produced joins to check");
}

#[test]
fn autofj_recall_is_a_reasonable_fraction_of_the_upper_bound() {
    let task = benchmark_specs(BenchmarkScale::Tiny)[36].generate(); // ShoppingMall
    let space = JoinFunctionSpace::reduced24();
    let result = joiner().join_values(&task.left, &task.right);
    let q = evaluate_assignment(&result.assignment, &task.ground_truth);
    let ubr = upper_bound_recall(
        &task.left,
        &task.right,
        &space,
        &AutoFjOptions::default(),
        &task.ground_truth,
    );
    assert!(ubr > 0.5, "upper bound suspiciously low: {ubr}");
    assert!(
        q.recall_relative >= 0.25 * ubr,
        "recall {:.3} is too small a fraction of the upper bound {:.3}",
        q.recall_relative,
        ubr
    );
}

#[test]
fn join_program_is_explainable_and_consistent_with_pairs() {
    let task = benchmark_specs(BenchmarkScale::Tiny)[19].generate(); // HistoricBuilding
    let result = joiner().join_values(&task.left, &task.right);
    if result.num_joined() == 0 {
        return;
    }
    // The rendered program mentions every configuration that produced a join.
    let description = result.program.describe();
    assert!(description.contains('≤'));
    for pair in &result.pairs {
        assert!(pair.config_index < result.program.configs.len());
        assert!(pair.left < task.left.len());
        assert!(pair.right < task.right.len());
        assert!(pair.estimated_precision > 0.0 && pair.estimated_precision <= 1.0);
        // Assignment and pair list agree.
        assert_eq!(result.assignment[pair.right], Some(pair.left));
    }
}

#[test]
fn lower_precision_target_never_reduces_recall() {
    let task = benchmark_specs(BenchmarkScale::Tiny)[45].generate(); // TennisTournament
    let space = JoinFunctionSpace::reduced24();
    let strict = AutoFuzzyJoin::builder()
        .space(space.clone())
        .precision_target(0.95)
        .build()
        .join_values(&task.left, &task.right);
    let loose = AutoFuzzyJoin::builder()
        .space(space)
        .precision_target(0.6)
        .build()
        .join_values(&task.left, &task.right);
    assert!(loose.num_joined() >= strict.num_joined());
}

#[test]
fn disabling_negative_rules_and_union_are_ablatable_via_builder() {
    let task = benchmark_specs(BenchmarkScale::Tiny)[14].generate(); // FootballLeagueSeason
    let space = JoinFunctionSpace::reduced24();
    let full = AutoFuzzyJoin::builder()
        .space(space.clone())
        .build()
        .join_values(&task.left, &task.right);
    let uc = AutoFuzzyJoin::builder()
        .space(space.clone())
        .union_of_configurations(false)
        .build()
        .join_values(&task.left, &task.right);
    let nr = AutoFuzzyJoin::builder()
        .space(space)
        .negative_rules(false)
        .build()
        .join_values(&task.left, &task.right);
    // The single-configuration ablation uses at most one configuration and
    // never exceeds the union's estimated recall.
    assert!(uc.program.configs.len() <= 1);
    assert!(uc.recall_estimate() <= full.recall_estimate() + 1e-9);
    // Removing negative rules can only keep or grow the number of joins.
    assert!(nr.num_joined() >= full.num_joined());
}
