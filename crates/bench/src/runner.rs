//! Shared experiment runner: executes AutoFJ and every baseline on a task,
//! applying the paper's evaluation protocol (adjusted recall at AutoFJ's
//! precision, PR-AUC, PEPCC).

use autofj_baselines::{
    ActiveLearning, DeepMatcherSub, Ecm, ExcelLike, FuzzyWuzzy, MagellanRf, PpJoin,
    SupervisedMatcher, UnsupervisedMatcher, ZeroEr,
};
use autofj_block::BlockingStats;
use autofj_core::{join_single_column_with_artifacts, AutoFjOptions, JoinResult};
use autofj_datagen::{DomainSpec, ScenarioData, ScenarioSpec, SingleColumnTask};
use autofj_eval::{
    adjusted_recall, evaluate_assignment, pr_auc, upper_bound_recall, QualityReport,
    ScoredPrediction,
};
use autofj_text::JoinFunctionSpace;
use serde::Serialize;
use std::time::Instant;

/// Scores of one method on one task.
#[derive(Debug, Clone, Serialize)]
pub struct MethodScores {
    /// Method name as used in the paper's tables.
    pub method: String,
    /// Precision of the reported output.
    pub precision: f64,
    /// Adjusted (absolute) recall, normalized by ground-truth size.
    pub adjusted_recall: f64,
    /// PR-AUC of the method's score ranking (0 for methods without scores).
    pub pr_auc: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Worker threads the execution engine used for this measurement, so
    /// recorded timings are comparable across benchmark runs.
    pub threads: usize,
}

/// Everything measured on one task.
#[derive(Debug, Clone, Serialize)]
pub struct TaskOutcome {
    /// Task name.
    pub task: String,
    /// `|L|` and `|R|`.
    pub size: (usize, usize),
    /// Upper bound of recall over the configuration space.
    pub ubr: f64,
    /// AutoFJ's actual precision and (relative) recall.
    pub autofj_precision: f64,
    /// AutoFJ's relative recall.
    pub autofj_recall: f64,
    /// Pearson correlation between estimated and actual precision over the
    /// greedy iterations (PEPCC).
    pub pepcc: f64,
    /// AutoFJ wall-clock seconds.
    pub autofj_seconds: f64,
    /// Worker threads the execution engine used for this measurement.
    pub threads: usize,
    /// Baseline scores (adjusted recall computed at AutoFJ's precision).
    pub baselines: Vec<MethodScores>,
}

/// The paper's default AutoFJ options (τ = 0.9, s = 50, β = 1.5).
pub fn autofj_options() -> AutoFjOptions {
    AutoFjOptions::default()
}

/// Read the benchmark scale from `AUTOFJ_SCALE` (tiny | small | full).
pub fn env_scale() -> autofj_datagen::BenchmarkScale {
    match std::env::var("AUTOFJ_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "tiny" => autofj_datagen::BenchmarkScale::Tiny,
        "full" => autofj_datagen::BenchmarkScale::Full,
        _ => autofj_datagen::BenchmarkScale::Small,
    }
}

/// Read the task limit from `AUTOFJ_TASKS` (default: all).
pub fn env_task_limit() -> usize {
    std::env::var("AUTOFJ_TASKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Read the configuration-space size from `AUTOFJ_SPACE` (24 | 38 | 70 | 140).
pub fn env_space() -> JoinFunctionSpace {
    match std::env::var("AUTOFJ_SPACE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(24) => JoinFunctionSpace::reduced24(),
        Some(38) => JoinFunctionSpace::reduced38(),
        Some(70) => JoinFunctionSpace::reduced70(),
        _ => JoinFunctionSpace::full(),
    }
}

/// The environment-driven setup shared by the `fig6*` robustness bins: the
/// benchmark domain specs, the tasks they generate, and the configuration
/// space.
pub struct SweepSetup {
    /// The selected benchmark domain specs (inputs to the scenario
    /// constructors for bins that derive adversarial variants).
    pub specs: Vec<DomainSpec>,
    /// One generated task per spec.
    pub tasks: Vec<SingleColumnTask>,
    /// The `AUTOFJ_SPACE` configuration space.
    pub space: autofj_text::JoinFunctionSpace,
}

/// Build the shared `fig6*` sweep harness: `benchmark_specs(AUTOFJ_SCALE)`
/// capped at `min(AUTOFJ_TASKS, 12)` tasks, each generated through
/// [`ScenarioSpec::perturbation`] so the experiment bins exercise the same
/// registry code path the `robustness_matrix` gate runs.
pub fn sweep_setup() -> SweepSetup {
    let mut specs = autofj_datagen::benchmark_specs(env_scale());
    let limit = env_task_limit().min(specs.len()).min(12);
    specs.truncate(limit);
    let tasks = specs
        .iter()
        .map(|s| expect_single(ScenarioSpec::perturbation(&s.name, s.clone()).generate()))
        .collect();
    SweepSetup {
        specs,
        tasks,
        space: env_space(),
    }
}

/// Unwrap the single-column payload of a scenario that can only generate one
/// (every `fig6*` sweep point).
pub fn expect_single(data: ScenarioData) -> SingleColumnTask {
    match data {
        ScenarioData::Single(task) => task,
        ScenarioData::Multi(task) => {
            panic!(
                "expected a single-column scenario, got multi-column {}",
                task.name
            )
        }
    }
}

/// Unwrap the multi-column payload of a scenario that can only generate one
/// (every `table4*` sweep point).
pub fn expect_multi(data: ScenarioData) -> autofj_datagen::MultiColumnTask {
    match data {
        ScenarioData::Multi(task) => task,
        ScenarioData::Single(task) => {
            panic!(
                "expected a multi-column scenario, got single-column {}",
                task.name
            )
        }
    }
}

/// Pearson correlation coefficient of two equally long series (`NaN`-safe:
/// returns 1.0 for constant or too-short series, like the paper's "NA" rows).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 1.0;
    }
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va <= 1e-15 || vb <= 1e-15 {
        return 1.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Run AutoFJ on a task: its result, quality, blocking candidate-set
/// statistics (zero when nothing was blocked) and wall-clock seconds.
pub fn run_autofj_with_stats(
    task: &SingleColumnTask,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (JoinResult, QualityReport, BlockingStats, f64) {
    let start = Instant::now();
    let (result, artifacts) =
        join_single_column_with_artifacts(&task.left, &task.right, space, options);
    let stats = artifacts.map(|a| a.blocking.stats).unwrap_or_default();
    let seconds = start.elapsed().as_secs_f64();
    let quality = evaluate_assignment(&result.assignment, &task.ground_truth);
    (result, quality, stats, seconds)
}

/// Run AutoFJ on a task and compute its quality plus the PEPCC statistic.
pub fn run_autofj(
    task: &SingleColumnTask,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (JoinResult, QualityReport, f64, f64) {
    let (result, quality, _, seconds) = run_autofj_with_stats(task, space, options);
    // PEPCC: correlation between the estimated precision trace and the actual
    // precision of the partial solution after each iteration.
    let mut actual_trace = Vec::with_capacity(result.precision_trace.len());
    if !result.precision_trace.is_empty() {
        let max_ordinal = result.program.configs.len();
        for upto in 1..=max_ordinal {
            let partial: Vec<Option<usize>> = result
                .pairs
                .iter()
                .filter(|p| p.config_index < upto)
                .fold(vec![None; task.right.len()], |mut acc, p| {
                    acc[p.right] = Some(p.left);
                    acc
                });
            actual_trace.push(evaluate_assignment(&partial, &task.ground_truth).precision);
        }
    }
    let pepcc = pearson(&result.precision_trace, &actual_trace);
    (result, quality, pepcc, seconds)
}

/// Evaluate an unsupervised baseline: adjusted recall at `target_precision`
/// plus PR-AUC.
pub fn run_unsupervised(
    matcher: &dyn UnsupervisedMatcher,
    task: &SingleColumnTask,
    target_precision: f64,
) -> MethodScores {
    let start = Instant::now();
    let preds = matcher.predict(&task.left, &task.right);
    let seconds = start.elapsed().as_secs_f64();
    score_predictions(matcher.name(), &preds, task, target_precision, seconds)
}

/// Evaluate a supervised baseline under the 50 %-labels protocol.
pub fn run_supervised(
    matcher: &dyn SupervisedMatcher,
    task: &SingleColumnTask,
    target_precision: f64,
    seed: u64,
) -> MethodScores {
    let (train, _test) = autofj_baselines::train_test_split(task.right.len(), 0.5, seed);
    let start = Instant::now();
    let preds = matcher.fit_predict(&task.left, &task.right, &task.ground_truth, &train, seed);
    let seconds = start.elapsed().as_secs_f64();
    score_predictions(matcher.name(), &preds, task, target_precision, seconds)
}

fn score_predictions(
    name: &str,
    preds: &[ScoredPrediction],
    task: &SingleColumnTask,
    target_precision: f64,
    seconds: f64,
) -> MethodScores {
    let ar = adjusted_recall(preds, &task.ground_truth, target_precision);
    let auc = pr_auc(preds, &task.ground_truth);
    MethodScores {
        method: name.to_string(),
        precision: ar.precision,
        adjusted_recall: ar.recall_relative,
        pr_auc: auc,
        seconds,
        threads: rayon::current_num_threads(),
    }
}

/// Run AutoFJ plus every baseline on one task (the Table 2 protocol).
/// `include_supervised` controls whether the slower supervised baselines run.
pub fn run_full_comparison(
    task: &SingleColumnTask,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    include_supervised: bool,
    include_ablations: bool,
) -> TaskOutcome {
    let (result, quality, pepcc, autofj_seconds) = run_autofj(task, space, options);
    let target = quality.precision;
    let mut baselines = Vec::new();

    let excel = ExcelLike::default();
    let fw = FuzzyWuzzy;
    let zeroer = ZeroEr::default();
    let ecm = Ecm::default();
    let pp = PpJoin::default();
    for m in [&excel as &dyn UnsupervisedMatcher, &fw, &zeroer, &ecm, &pp] {
        baselines.push(run_unsupervised(m, task, target));
    }
    if include_supervised {
        let magellan = MagellanRf::default();
        let dm = DeepMatcherSub::default();
        let al = ActiveLearning::default();
        for m in [&magellan as &dyn SupervisedMatcher, &dm, &al] {
            baselines.push(run_supervised(m, task, target, 0xC0FFEE));
        }
    }
    if include_ablations {
        // AutoFJ-UC: single best configuration.
        let uc_options = AutoFjOptions {
            union_of_configurations: false,
            ..options.clone()
        };
        let (_r, q, _c, s) = run_autofj(task, space, &uc_options);
        baselines.push(MethodScores {
            method: "AutoFJ-UC".to_string(),
            precision: q.precision,
            adjusted_recall: q.recall_relative,
            pr_auc: 0.0,
            seconds: s,
            threads: rayon::current_num_threads(),
        });
        // AutoFJ-NR: no negative rules.
        let nr_options = AutoFjOptions {
            use_negative_rules: false,
            ..options.clone()
        };
        let (_r, q, _c, s) = run_autofj(task, space, &nr_options);
        baselines.push(MethodScores {
            method: "AutoFJ-NR".to_string(),
            precision: q.precision,
            adjusted_recall: q.recall_relative,
            pr_auc: 0.0,
            seconds: s,
            threads: rayon::current_num_threads(),
        });
    }

    let ubr = upper_bound_recall(&task.left, &task.right, space, options, &task.ground_truth);
    let _ = &result;
    TaskOutcome {
        task: task.name.clone(),
        size: (task.left.len(), task.right.len()),
        ubr,
        autofj_precision: quality.precision,
        autofj_recall: quality.recall_relative,
        pepcc,
        autofj_seconds,
        threads: rayon::current_num_threads(),
        baselines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofj_datagen::{benchmark_specs, BenchmarkScale};

    #[test]
    fn pearson_of_identical_series_is_one() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[2.0]), 1.0);
    }

    #[test]
    fn full_comparison_runs_on_a_tiny_task() {
        let task = benchmark_specs(BenchmarkScale::Tiny)[36].generate(); // ShoppingMall (small)
        let space = JoinFunctionSpace::reduced24();
        let outcome = run_full_comparison(&task, &space, &autofj_options(), false, false);
        assert_eq!(outcome.task, task.name);
        assert!(outcome.autofj_precision >= 0.0 && outcome.autofj_precision <= 1.0);
        assert_eq!(outcome.baselines.len(), 5);
        for b in &outcome.baselines {
            assert!((0.0..=1.0).contains(&b.adjusted_recall), "{b:?}");
            assert!(b.threads >= 1);
        }
        assert!(outcome.ubr > 0.0);
        assert_eq!(outcome.threads, rayon::current_num_threads());
    }

    #[test]
    fn env_helpers_have_sane_defaults() {
        assert_eq!(env_task_limit(), usize::MAX);
        assert_eq!(env_space().len(), 140);
    }
}
