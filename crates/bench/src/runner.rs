//! Shared experiment runner: AutoFJ runs with their quality, blocking
//! statistics and run-time, PEPCC, and the parsers of the environment knobs
//! `paper` reads.

use autofj_block::BlockingStats;
use autofj_core::{join_single_column_with_artifacts, AutoFjOptions, JoinResult};
use autofj_datagen::{BenchmarkScale, SingleColumnTask};
use autofj_eval::{evaluate_assignment, QualityReport};
use autofj_text::JoinFunctionSpace;
use std::str::FromStr;
use std::time::Instant;

/// The paper's default AutoFJ options (τ = 0.9, s = 50, β = 1.5).
pub fn autofj_options() -> AutoFjOptions {
    AutoFjOptions::default()
}

/// Look a knob's `value` up (case-insensitively) in `accepted`: unset gives
/// `default`, and a value not listed is an error naming the accepted ones.
fn parse_knob<T: Clone>(
    name: &str,
    value: Option<&str>,
    accepted: &[(&str, T)],
    default: T,
) -> Result<T, String> {
    let Some(value) = value else {
        return Ok(default);
    };
    let lower = value.to_lowercase();
    match accepted.iter().find(|(key, _)| *key == lower) {
        Some((_, choice)) => Ok(choice.clone()),
        None => {
            let keys: Vec<&str> = accepted.iter().map(|(key, _)| *key).collect();
            Err(format!("{name}={value} is not one of: {}", keys.join(", ")))
        }
    }
}

/// Parse a numeric knob: unset gives `default`, anything that does not
/// parse as a `T` is an error.
pub fn parse_number<T: FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v} is not a valid number")),
    }
}

/// The benchmark scale named by `AUTOFJ_SCALE`: `tiny`, `small` (unset) or
/// `full`.
pub fn parse_scale(value: Option<&str>) -> Result<BenchmarkScale, String> {
    let accepted = [
        ("tiny", BenchmarkScale::Tiny),
        ("small", BenchmarkScale::Small),
        ("full", BenchmarkScale::Full),
    ];
    parse_knob("AUTOFJ_SCALE", value, &accepted, BenchmarkScale::Small)
}

/// The configuration space named by `AUTOFJ_SPACE`: `24`, `38`, `70` or
/// `140` join functions; `default` when unset.
pub fn parse_space(
    value: Option<&str>,
    default: JoinFunctionSpace,
) -> Result<JoinFunctionSpace, String> {
    let accepted = [
        ("24", JoinFunctionSpace::reduced24()),
        ("38", JoinFunctionSpace::reduced38()),
        ("70", JoinFunctionSpace::reduced70()),
        ("140", JoinFunctionSpace::full()),
    ];
    parse_knob("AUTOFJ_SPACE", value, &accepted, default)
}

/// The parsed or exit 2 with the error on stderr.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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
pub fn run_autofj(
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

/// PEPCC: the correlation between the estimated precision trace and the
/// actual precision of the partial solution after each greedy iteration.
pub fn pepcc(result: &JoinResult, ground_truth: &[Option<usize>]) -> f64 {
    let mut actual_trace = Vec::with_capacity(result.precision_trace.len());
    if !result.precision_trace.is_empty() {
        for upto in 1..=result.program.configs.len() {
            let mut partial = vec![None; result.assignment.len()];
            for p in result.pairs.iter().filter(|p| p.config_index < upto) {
                partial[p.right] = Some(p.left);
            }
            actual_trace.push(evaluate_assignment(&partial, ground_truth).precision);
        }
    }
    pearson(&result.precision_trace, &actual_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_of_identical_series_is_one() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[2.0]), 1.0);
    }

    #[test]
    fn knobs_default_when_unset() {
        assert_eq!(parse_scale(None), Ok(BenchmarkScale::Small));
        assert_eq!(parse_scale(Some("TINY")), Ok(BenchmarkScale::Tiny));
        let full = parse_space(None, JoinFunctionSpace::full()).unwrap();
        assert_eq!(full.len(), 140);
        let reduced = parse_space(None, JoinFunctionSpace::reduced24()).unwrap();
        assert_eq!(reduced.len(), 24);
        assert_eq!(parse_space(Some("38"), full).unwrap().len(), 38);
        assert_eq!(
            parse_number("AUTOFJ_TASKS", None, usize::MAX),
            Ok(usize::MAX)
        );
        assert_eq!(parse_number("AUTOFJ_TASKS", Some("7"), usize::MAX), Ok(7));
    }

    #[test]
    fn unknown_knob_values_are_rejected_with_the_accepted_ones() {
        let err = parse_space(Some("25"), JoinFunctionSpace::full()).unwrap_err();
        assert_eq!(err, "AUTOFJ_SPACE=25 is not one of: 24, 38, 70, 140");
        let err = parse_scale(Some("medum")).unwrap_err();
        assert_eq!(err, "AUTOFJ_SCALE=medum is not one of: tiny, small, full");
        assert!(parse_scale(Some("")).is_err());
        let err = parse_number("AUTOFJ_MC_SCALE", Some("0,06"), 0.15).unwrap_err();
        assert!(err.contains("AUTOFJ_MC_SCALE=0,06"), "{err}");
    }
}
