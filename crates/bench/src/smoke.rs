//! Shared report schema and gate of the `bench_smoke` binary.
//!
//! One run of `bench_smoke` measures the sections of a [`BenchSmokeReport`]
//! it is asked for: the batch pipeline per smoke task (`tasks`, at 1 and
//! [`MULTI_THREADS`] threads), the snapshot round trip and online server
//! (`serve`), the stress suite (`scenarios`) and the `paper` registry's
//! Figure 6(d) blocking-factor sweep (`fig6d`).  The committed
//! `BENCH_pr*.json` baseline at the repository root is the report of a run
//! of every section.  The run ends in [`check`] (through [`smoke`], which
//! exits with its verdict): it writes the report, runs the checks that need
//! no baseline and diffs each measured section against the baseline.
//!
//! The diff ([`gate`]) walks the two reports' `serde::Value` trees, and
//! [`GATE_POLICY`] holds all of its policy.  Keys listed there as
//! informational (timings, throughput, sizes on disk) are recorded but never
//! gated, so wall-clock noise can never fail CI; keyed lists pair their
//! entries by a field instead of by position.  Every other leaf gates:
//! integers, bools and strings exactly, floats within [`GATE_REL_EPS`].

use crate::peak_rss_bytes;
use crate::report::experiments_dir;
use crate::runner::autofj_options;
use autofj_block::BlockingStats;
use autofj_eval::DataProfile;
use autofj_text::JoinFunctionSpace;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};

/// Minimum modeled parallel speedup ([`effective_speedup`]) the medium task
/// must reach at [`MULTI_THREADS`] worker threads.  Requiring only a
/// wall-clock ratio above 1 would pass vacuously on a core-starved host.
pub const MIN_PARALLEL_EFFECTIVE: f64 = 2.5;

/// Worker threads (and client connections) of every multi-thread leg.  The
/// baseline's legs run at 1 and 4, and [`MIN_PARALLEL_EFFECTIVE`] is
/// calibrated at 4 workers, so any other count could only fail the gate.
pub const MULTI_THREADS: usize = 4;

/// One timed pipeline execution at a fixed thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRun {
    /// Worker threads of the execution engine for this leg.
    pub threads: usize,
    /// Wall-clock seconds of the run.
    pub seconds: f64,
    /// Process CPU seconds consumed by the run (all threads).
    pub cpu_seconds: f64,
    /// Σ over parallel regions of every worker's CPU time inside the region.
    pub parallel_work_seconds: f64,
    /// Σ over parallel regions of the slowest worker's CPU time — the
    /// critical path a fully-provisioned host could not beat.
    pub parallel_span_seconds: f64,
    /// Records the program joined.
    pub joined: usize,
    /// The program's estimated precision (Eq. 8/9).
    pub estimated_precision: f64,
    /// Precision against the generated ground truth.
    pub actual_precision: f64,
    /// Recall against the generated ground truth.
    pub actual_recall: f64,
    /// Rounds of the greedy search, one per selected configuration
    /// (`GreedyStats::rounds`).  Gated exactly: the search stops only where
    /// Algorithm 1 stops, so a round cap would move it.
    pub greedy_rounds: usize,
    /// Wall-clock seconds and entries of every pipeline phase of the run's
    /// trace, in pipeline order (`autofj_core::trace::ALL_PHASES`: prepare,
    /// block, negative_rules, precompute and its five `precompute/<family>`
    /// spans, greedy_round/score, greedy_round/argmax, conflict_resolve,
    /// assemble).
    pub phases: Vec<autofj_core::trace::PhaseTiming>,
}

/// Measurements of one task across thread counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskBench {
    /// Datagen task name.
    pub task: String,
    /// Smoke scale the task belongs to (`small` / `medium`).
    pub scale: String,
    /// `(left, right)` record counts.
    pub size: (usize, usize),
    /// Configuration-space label.
    pub space: String,
    /// The timed legs, single-thread first.
    pub runs: Vec<BenchRun>,
    /// Wall-clock ratio of the 1-thread run over the multi-thread run.  On a
    /// host with fewer cores than workers this hovers near 1 no matter how
    /// parallel the pipeline is; `parallel_effective` is the field that
    /// actually measures parallelism.
    pub speedup: f64,
    /// Modeled speedup of the multi-thread run on a host with one core per
    /// worker, from CPU clocks: serial CPU time stays, every parallel region
    /// contracts to its critical path.  See [`effective_speedup`].
    pub parallel_effective: f64,
    /// Whether every run of this task produced a byte-identical serialized
    /// `JoinResult`.
    pub identical_results: bool,
    /// Blocking candidate-set statistics of the task (identical across
    /// thread legs — the counters are deterministic integer totals; the
    /// binary verifies that before writing one value here).
    pub candidates: CandidateStats,
    /// The committed shape summary of the generated tables, pinned like the
    /// scenario profiles so generator drift is attributable.
    pub profile: DataProfile,
}

/// Blocking candidate-set statistics as the report carries them: the
/// counters of [`BlockingStats`] plus its derived reduction ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateStats {
    /// L–R candidate pairs kept by blocking.
    pub lr_pairs: u64,
    /// L–L candidate pairs kept by blocking (self excluded).
    pub ll_pairs: u64,
    /// Largest candidate list kept for any single probe record.
    pub per_probe_max: u64,
    /// Records exactly verified across all probes.
    pub scored_records: u64,
    /// Posting entries the probes walked.
    pub postings_scanned: u64,
    /// Posting entries the dense walk would have read.
    pub postings_total: u64,
    /// [`BlockingStats::reduction_ratio`].
    pub reduction_ratio: f64,
}

impl From<BlockingStats> for CandidateStats {
    fn from(stats: BlockingStats) -> Self {
        CandidateStats {
            lr_pairs: stats.lr_pairs,
            ll_pairs: stats.ll_pairs,
            per_probe_max: stats.per_probe_max,
            scored_records: stats.scored_records,
            postings_scanned: stats.postings_scanned,
            postings_total: stats.postings_total,
            reduction_ratio: stats.reduction_ratio(),
        }
    }
}

/// One point of the Figure 6(d) blocking-factor sweep: quality and
/// candidate-set sizes at one `β`, averaged / summed over the sweep tasks.
/// Timings stay informational; everything else gates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6dPoint {
    /// Blocking factor β of this sweep point.
    pub beta: f64,
    /// Mean actual precision over the sweep tasks.
    pub precision: f64,
    /// Mean actual recall over the sweep tasks.
    pub recall: f64,
    /// Mean wall-clock seconds per task (informational).
    pub seconds: f64,
    /// Blocking candidate-set statistics summed over the sweep tasks.
    pub candidates: CandidateStats,
}

/// One timed client leg against the online join server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRun {
    /// Concurrent client connections (and server accept threads).
    pub client_threads: usize,
    /// Total join requests answered across all clients.
    pub requests: usize,
    /// Wall-clock seconds of the leg.
    pub seconds: f64,
    /// Requests per second across all clients.
    pub throughput_rps: f64,
    /// Median per-request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency in milliseconds.
    pub p99_ms: f64,
}

/// Snapshot + online-serving measurements of one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBench {
    /// Datagen task name.
    pub task: String,
    /// `(left, right)` record counts.
    pub size: (usize, usize),
    /// Snapshot file size on disk.
    pub snapshot_bytes: u64,
    /// Wall-clock seconds to serialize the learned state.
    pub save_seconds: f64,
    /// Wall-clock seconds to open + validate + decode the snapshot.
    pub load_seconds: f64,
    /// Records the served program joined (quality-gated).
    pub joined: usize,
    /// Whether the loaded server's answers are byte-identical to the batch
    /// pipeline's `JoinResult` (quality-gated).
    pub identical_results: bool,
    /// The timed client legs.
    pub runs: Vec<ServeRun>,
}

/// One pipeline execution of a robustness scenario at a fixed thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRun {
    /// Worker threads of the execution engine for this leg.
    pub threads: usize,
    /// Wall-clock seconds of the run (informational).
    pub seconds: f64,
    /// Records the learned program joined.
    pub joined: usize,
    /// The program's estimated precision (Eq. 8/9).
    pub estimated_precision: f64,
    /// Precision against the generated ground truth.
    pub actual_precision: f64,
    /// Recall against the generated ground truth.
    pub actual_recall: f64,
}

/// Measurements of one robustness scenario across thread counts, committed
/// next to its data profile so a gate failure is attributable: a drifted
/// profile means the generator changed, drifted quality under an identical
/// profile means the pipeline changed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioBench {
    /// Registry scenario name (the key the gate diffs on).
    pub scenario: String,
    /// Scenario family label (`zero_join`, `irrelevant_records`, …).
    pub kind: String,
    /// `(left, right)` record counts.
    pub size: (usize, usize),
    /// The committed shape summary of the generated data.
    pub profile: DataProfile,
    /// The timed legs, single-thread first.
    pub runs: Vec<ScenarioRun>,
    /// Whether every run of this scenario produced a byte-identical
    /// serialized `JoinResult`.
    pub identical_results: bool,
}

/// The persisted smoke report — one entry of the benchmark trajectory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BenchSmokeReport {
    /// `available_parallelism` of the measuring host.
    pub host_parallelism: usize,
    /// Peak resident set size (`VmHWM`) of the benchmark process, in bytes;
    /// `None` where `/proc` is unavailable.  Informational.
    pub peak_rss_bytes: Option<u64>,
    /// Batch-pipeline measurements, one entry per smoke task.
    pub tasks: Vec<TaskBench>,
    /// Snapshot + online-serving measurements (absent in the reports of
    /// the other binaries).
    pub serve: Option<ServeBench>,
    /// Scenario-robustness matrix measurements (absent in the reports of
    /// the other binaries).
    pub scenarios: Option<Vec<ScenarioBench>>,
    /// Figure 6(d) blocking-factor sweep points (absent in the reports of
    /// the other binaries).
    pub fig6d: Option<Vec<Fig6dPoint>>,
    /// Conjunction of every section's `identical_results`.
    pub identical_results: bool,
}

impl BenchSmokeReport {
    /// Whether every task, the serve leg and every scenario reproduced
    /// its results.
    fn all_identical(&self) -> bool {
        self.tasks.iter().all(|t| t.identical_results)
            && self.serve.iter().all(|s| s.identical_results)
            && self.scenarios.iter().flatten().all(|s| s.identical_results)
    }

    /// The sections this report measured, which are the ones [`check`]
    /// diffs: `tasks` when it holds a task, and each optional section it
    /// holds.
    fn sections(&self) -> Vec<&'static str> {
        let measured = [
            ("tasks", !self.tasks.is_empty()),
            ("serve", self.serve.is_some()),
            ("scenarios", self.scenarios.is_some()),
            ("fig6d", self.fig6d.is_some()),
        ];
        measured
            .into_iter()
            .filter_map(|(section, held)| held.then_some(section))
            .collect()
    }
}

/// Wall-clock ratio `base / test`, robust to near-zero timings: two ~0 s
/// legs compare equal (1.0) instead of dividing zero by zero, and a zero
/// denominator can never produce inf/NaN (the small 143×80 task finishes in
/// tens of milliseconds, where both hazards are real).
pub fn wall_ratio(base: f64, test: f64) -> f64 {
    const FLOOR: f64 = 1e-9;
    if base <= FLOOR && test <= FLOOR {
        return 1.0;
    }
    base.max(FLOOR) / test.max(FLOOR)
}

/// Speedup a host with one core per worker would see for a run that spent
/// `total` process-CPU seconds, of which `work` inside parallel regions with
/// critical path `span`: serial time stays, each region contracts from its
/// summed work to its slowest worker.  Degenerate inputs (no CPU measured,
/// no parallel regions, clock skew making `span > work`) all degrade to a
/// finite, NaN-free ratio ≥ 1.
pub fn effective_speedup(total: f64, work: f64, span: f64) -> f64 {
    if total <= 0.0 || work <= 0.0 {
        return 1.0;
    }
    let work = work.min(total);
    let serial = total - work;
    let modeled = serial + span.clamp(0.0, work);
    if modeled <= 0.0 {
        return 1.0;
    }
    (total / modeled).max(1.0)
}

/// Relative tolerance for the floating-point quality fields of the gate.
///
/// Results are bit-deterministic *within* one host, but the committed
/// baseline may have been produced under a different libm whose `ln`/`sqrt`
/// differ by an ulp; real quality drift moves these fields by ≥ 1e-3, so a
/// tight relative band keeps the gate immune to last-bit noise without
/// letting any genuine change through.  Integer fields stay exact.
pub const GATE_REL_EPS: f64 = 1e-9;

/// Whether two quality floats match within [`GATE_REL_EPS`].
fn float_quality_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= GATE_REL_EPS * got.abs().max(want.abs()).max(1.0)
}

/// How [`gate`] treats the value under one object key.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Recorded for the trajectory, never gated.
    Informational,
    /// A list whose entries pair up when every one of these fields matches;
    /// a field an entry lacks matches only an entry that lacks it too.
    Keyed(&'static [&'static str], Coverage),
}

/// Which entries of a keyed list the fresh report must measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Any subset of the baseline's entries (one scale of `tasks`, the
    /// thread legs that were run); an entry the baseline lacks is drift.
    Subset,
    /// Exactly the baseline's entries: a dropped or an added one is drift.
    TwoWay,
}

/// All of the gate's policy, by object key at any depth.  A key not listed
/// here gates: objects and unkeyed lists recurse, and leaves must match.
pub const GATE_POLICY: &[(&str, Rule)] = &[
    ("seconds", Rule::Informational),
    ("cpu_seconds", Rule::Informational),
    ("parallel_work_seconds", Rule::Informational),
    ("parallel_span_seconds", Rule::Informational),
    ("phases", Rule::Informational),
    ("speedup", Rule::Informational),
    ("parallel_effective", Rule::Informational),
    ("save_seconds", Rule::Informational),
    ("load_seconds", Rule::Informational),
    ("snapshot_bytes", Rule::Informational),
    ("requests", Rule::Informational),
    ("throughput_rps", Rule::Informational),
    ("p50_ms", Rule::Informational),
    ("p99_ms", Rule::Informational),
    ("tasks", Rule::Keyed(&["task", "space"], Coverage::Subset)),
    (
        "runs",
        Rule::Keyed(&["threads", "client_threads"], Coverage::Subset),
    ),
    ("scenarios", Rule::Keyed(&["scenario"], Coverage::TwoWay)),
    ("fig6d", Rule::Keyed(&["beta"], Coverage::TwoWay)),
];

/// Stands in for a key one side of the diff lacks.
static ABSENT: Value = Value::Null;

fn rule(key: &str) -> Option<Rule> {
    GATE_POLICY
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, rule)| rule)
}

/// The value under `key` in an object; [`ABSENT`] when there is none.
fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == key))
        .map_or(&ABSENT, |(_, v)| v)
}

/// Diff `section` of a fresh report against the baseline's, both as the
/// value trees of `Serialize::serialize_value`.  Each returned line names
/// the path of one drifted value, e.g.
/// `tasks[task=ShoppingMall].runs[threads=4].joined: 69 != baseline 70`.
pub fn gate(fresh: &Value, baseline: &Value, section: &str) -> Vec<String> {
    let mut errors = Vec::new();
    diff(
        section,
        section,
        field(fresh, section),
        field(baseline, section),
        &mut errors,
    );
    errors
}

/// Diff `fresh` against `base` at `path`; `key` is the object key both sit
/// under, which selects their [`Rule`].
fn diff(path: &str, key: &str, fresh: &Value, base: &Value, errors: &mut Vec<String>) {
    match (rule(key), fresh, base) {
        (Some(Rule::Informational), _, _) => {}
        (Some(Rule::Keyed(by, coverage)), Value::Array(fresh), Value::Array(base)) => {
            let pairs =
                |a: &Value, b: &Value| by.iter().all(|k| leaf_matches(field(a, k), field(b, k)));
            for f in fresh {
                let entry = entry_path(path, by, f);
                match base.iter().find(|b| pairs(f, b)) {
                    Some(b) => diff(&entry, "", f, b, errors),
                    None => errors.push(format!("{entry}: not in the baseline")),
                }
            }
            if coverage == Coverage::TwoWay {
                for b in base.iter().filter(|b| !fresh.iter().any(|f| pairs(f, b))) {
                    let entry = entry_path(path, by, b);
                    errors.push(format!("{entry}: in the baseline but not measured"));
                }
            }
        }
        (_, Value::Object(fields), Value::Object(base_fields)) => {
            for (k, v) in fields {
                diff(&format!("{path}.{k}"), k, v, field(base, k), errors);
            }
            for (k, v) in base_fields {
                if fields.iter().all(|(f, _)| f != k) {
                    diff(&format!("{path}.{k}"), k, &ABSENT, v, errors);
                }
            }
        }
        (_, Value::Array(items), Value::Array(base_items)) if items.len() == base_items.len() => {
            for (i, (f, b)) in items.iter().zip(base_items).enumerate() {
                diff(&format!("{path}[{i}]"), "", f, b, errors);
            }
        }
        _ if leaf_matches(fresh, base) => {}
        _ => errors.push(format!(
            "{path}: {} != baseline {}",
            render(fresh),
            render(base)
        )),
    }
}

/// The gate path of a keyed-list entry, naming each field of `by` it
/// carries, e.g. `fig6d[beta=1.5]` or `tasks[task=ShoppingMall,space=reduced-24]`.
fn entry_path(path: &str, by: &[&'static str], entry: &Value) -> String {
    let carried: Vec<String> = (by.iter())
        .filter(|&&k| *field(entry, k) != ABSENT)
        .map(|&k| format!("{k}={}", render(field(entry, k))))
        .collect();
    if carried.is_empty() {
        format!("{path}[{}=absent]", by[0])
    } else {
        format!("{path}[{}]", carried.join(","))
    }
}

fn leaf_matches(fresh: &Value, base: &Value) -> bool {
    match (fresh, base) {
        (Value::F64(f), Value::F64(b)) => float_quality_matches(*f, *b),
        _ => fresh == base,
    }
}

fn render(value: &Value) -> String {
    match value {
        Value::Null => "absent".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(x) => x.to_string(),
        Value::Str(s) => s.clone(),
        Value::Array(items) => format!("a list of {}", items.len()),
        Value::Object(_) => "an object".to_string(),
    }
}

/// The tail of a gate run: [`check`] with the report written to
/// `AUTOFJ_BENCH_OUT` when set, else `target/experiments/BENCH.json`, and
/// diffed against `AUTOFJ_BENCH_BASELINE` when set (empty or `none`: no
/// diff), else the newest `BENCH_pr<N>.json` in the working directory; then
/// exit 0 when it passed and 1 otherwise.
pub fn smoke(report: BenchSmokeReport) -> ! {
    let out = std::env::var_os("AUTOFJ_BENCH_OUT")
        .map_or_else(|| experiments_dir().join("BENCH.json"), PathBuf::from);
    let explicit = std::env::var("AUTOFJ_BENCH_BASELINE").ok();
    let baseline = resolve_baseline_in(explicit, Path::new("."));
    let errors = check(report, &out, baseline.as_deref());
    std::process::exit(if errors.is_empty() { 0 } else { 1 })
}

/// Write a gated report and diff it; returns every failed check, so an
/// empty list means it passed.
///
/// It fills the report's host fields and its `identical_results`
/// conjunction, then writes it to `out`; a failed write fails the run,
/// since that write is how a baseline is regenerated.  Then it checks what
/// needs no baseline
/// (every `identical_results`; the medium task's `parallel_effective`
/// against [`MIN_PARALLEL_EFFECTIVE`]; the space-size claim of a task
/// measured in both spaces, see `space_claim`) and diffs each section the report
/// holds against the report at `baseline`; `None` skips the diff.
pub fn check(mut report: BenchSmokeReport, out: &Path, baseline: Option<&Path>) -> Vec<String> {
    report.host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.peak_rss_bytes = peak_rss_bytes();
    report.identical_results = report.all_identical();
    if let Some(rss) = report.peak_rss_bytes {
        println!("peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
    let fresh = report.serialize_value();
    let sections = report.sections();
    let mut errors = Vec::new();
    let json = serde_json::to_string_pretty(&report).expect("the report serializes");
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, json));
    match written {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => errors.push(format!("cannot write the report to {}: {e}", out.display())),
    }

    if !report.identical_results {
        errors.push(
            "identical_results is false (the thread legs, or the served and batch answers, \
             differ)"
                .to_string(),
        );
    }
    // Only the medium task must parallelize: at ~40 ms of work, fork
    // overhead legitimately eats most of the small task's parallel win.
    for t in &report.tasks {
        if t.scale == "medium" && t.parallel_effective < MIN_PARALLEL_EFFECTIVE {
            errors.push(format!(
                "tasks[task={},space={}].parallel_effective: {:.2} < required \
                 {MIN_PARALLEL_EFFECTIVE}",
                t.task, t.space, t.parallel_effective
            ));
        }
    }
    errors.extend(space_claim(&report.tasks));
    let against = match baseline {
        Some(path) => {
            match read_report(path) {
                Ok(baseline) => {
                    for section in &sections {
                        errors.extend(gate(&fresh, &baseline, section));
                    }
                }
                Err(e) => errors.push(e),
            }
            path.display().to_string()
        }
        None => "no baseline (AUTOFJ_BENCH_BASELINE=none or no BENCH_pr*.json)".to_string(),
    };
    let sections = sections.join("`, `");
    if errors.is_empty() {
        println!("bench-gate: `{sections}` passes against {against}");
        return errors;
    }
    eprintln!("ERROR: bench-gate: `{sections}` fails against {against}:");
    for e in &errors {
        eprintln!("  - {e}");
    }
    eprintln!(
        "If the change is intentional, regenerate the baseline (README, \"Bench gate\") \
         and commit it."
    );
    errors
}

/// Fig. 7(c,d)'s claim, on every task measured in both spaces: the full
/// 140-function space recalls at least what the reduced 24-function space
/// recalls, leg by leg, and every leg of both reaches actual precision ≥ τ.
/// Each returned line names the task that failed.
fn space_claim(tasks: &[TaskBench]) -> Vec<String> {
    let tau = autofj_options().precision_target;
    let (reduced, full) = (JoinFunctionSpace::reduced24(), JoinFunctionSpace::full());
    let mut errors = Vec::new();
    for big in tasks.iter().filter(|t| t.space == full.label()) {
        let of_task = |t: &&TaskBench| t.task == big.task && t.space == reduced.label();
        let Some(small) = tasks.iter().find(of_task) else {
            continue;
        };
        for (b, s) in big.runs.iter().zip(&small.runs) {
            if b.actual_recall < s.actual_recall {
                errors.push(format!(
                    "tasks[task={}]: {} recall {:.4} < {} recall {:.4} at {} thread(s)",
                    big.task, big.space, b.actual_recall, small.space, s.actual_recall, b.threads
                ));
            }
        }
        for t in [small, big] {
            for r in t.runs.iter().filter(|r| r.actual_precision < tau) {
                errors.push(format!(
                    "tasks[task={},space={}].runs[threads={}].actual_precision: {:.4} < τ = {tau}",
                    t.task, t.space, r.threads, r.actual_precision
                ));
            }
        }
    }
    errors
}

/// The report at `path` as a value tree, which is what the gate diffs.  It
/// is not parsed into [`BenchSmokeReport`], so a baseline written before a
/// field existed still reads, and the gate names the field it lacks.
fn read_report(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The gate's baseline: `explicit` (the value of `AUTOFJ_BENCH_BASELINE`)
/// when set, where empty or `none` means no baseline; otherwise the
/// `BENCH_pr<N>.json` in `dir` with the largest `N`, so the gate follows the
/// trajectory when a change commits a new baseline.
fn resolve_baseline_in(explicit: Option<String>, dir: &Path) -> Option<PathBuf> {
    match explicit.as_deref() {
        Some("" | "none") => None,
        Some(path) => Some(PathBuf::from(path)),
        None => std::fs::read_dir(dir)
            .ok()?
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let pr = name
                    .to_str()?
                    .strip_prefix("BENCH_pr")?
                    .strip_suffix(".json")?;
                Some((pr.parse::<u64>().ok()?, entry.path()))
            })
            .max_by_key(|(pr, _)| *pr)
            .map(|(_, path)| path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ratio_never_produces_inf_or_nan() {
        for (base, test) in [
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 0.0),
            (1e-12, 1e-12),
            (0.04, 0.03),
            (150.0, 60.0),
        ] {
            let r = wall_ratio(base, test);
            assert!(r.is_finite(), "wall_ratio({base}, {test}) = {r}");
            assert!(r >= 0.0);
        }
        assert_eq!(wall_ratio(0.0, 0.0), 1.0, "two idle legs compare equal");
        assert!((wall_ratio(2.0, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn effective_speedup_is_finite_and_at_least_one() {
        for (total, work, span) in [
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0),
            (1.0, 2.0, 0.5),  // clock skew: work > total
            (1.0, 0.8, 0.9),  // clock skew: span > work
            (10.0, 8.0, 2.0), // the healthy case
            (1.0, 1.0, 0.0),  // degenerate zero span
        ] {
            let s = effective_speedup(total, work, span);
            assert!(
                s.is_finite(),
                "effective_speedup({total},{work},{span})={s}"
            );
            assert!(s >= 1.0);
        }
        // 10 s CPU, 8 s inside regions with a 2 s critical path: a
        // fully-provisioned host runs it in 2 + 2 = 4 s → 2.5x.
        assert!((effective_speedup(10.0, 8.0, 2.0) - 2.5).abs() < 1e-12);
        // Fully serial run models no speedup at all.
        assert_eq!(effective_speedup(5.0, 0.0, 0.0), 1.0);
    }

    /// Gate one section of two reports.
    fn diff_reports(
        fresh: &BenchSmokeReport,
        base: &BenchSmokeReport,
        section: &str,
    ) -> Vec<String> {
        gate(&fresh.serialize_value(), &base.serialize_value(), section)
    }

    fn serve_report(serve: ServeBench) -> BenchSmokeReport {
        BenchSmokeReport {
            serve: Some(serve),
            ..Default::default()
        }
    }

    fn serve_bench(joined: usize, identical: bool) -> ServeBench {
        ServeBench {
            task: "ShoppingMall".to_string(),
            size: (143, 80),
            snapshot_bytes: 1024,
            save_seconds: 0.01,
            load_seconds: 0.01,
            joined,
            identical_results: identical,
            runs: vec![ServeRun {
                client_threads: 1,
                requests: 80,
                seconds: 0.1,
                throughput_rps: 800.0,
                p50_ms: 1.0,
                p99_ms: 2.0,
            }],
        }
    }

    #[test]
    fn serve_gate_flags_quality_drift_but_not_timing_drift() {
        let base = serve_report(serve_bench(70, true));
        let mut fresh = serve_bench(70, true);
        fresh.runs[0].throughput_rps = 5.0; // timing noise: not a failure
        fresh.load_seconds = 9.9;
        let errors = diff_reports(&serve_report(fresh), &base, "serve");
        assert!(errors.is_empty(), "{errors:?}");

        let mut errors = diff_reports(&serve_report(serve_bench(69, true)), &base, "serve");
        errors.extend(diff_reports(
            &serve_report(serve_bench(70, false)),
            &base,
            "serve",
        ));
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("serve.joined"), "{errors:?}");
        assert!(errors[1].contains("serve.identical_results"), "{errors:?}");

        // A baseline without the section fails the gate.
        let errors = diff_reports(&base, &BenchSmokeReport::default(), "serve");
        assert_eq!(errors, ["serve: an object != baseline absent"]);
    }

    #[test]
    fn reports_without_serve_section_still_parse() {
        // A run of some sections writes a report whose other sections read
        // back as absent.
        let old = r#"{"host_parallelism": 4, "tasks": [], "identical_results": true}"#;
        let report: BenchSmokeReport = serde_json::from_str(old).unwrap();
        assert!(report.serve.is_none());
        assert!(report.peak_rss_bytes.is_none());
        assert!(report.scenarios.is_none());
        assert!(report.fig6d.is_none());
        assert!(report.identical_results);
    }

    fn candidate_stats(lr: u64) -> CandidateStats {
        CandidateStats {
            lr_pairs: lr,
            ll_pairs: 90,
            per_probe_max: 15,
            scored_records: 400,
            postings_scanned: 1_000,
            postings_total: 4_000,
            reduction_ratio: 0.75,
        }
    }

    fn profile(gini: f64) -> DataProfile {
        let profile = autofj_eval::profile_tables(
            &[&["grand hotel".to_string(), "old museum".to_string()]],
            &[&["grand hotell".to_string(), "museum".to_string()]],
            &[Some(0), Some(1)],
        );
        DataProfile {
            token_skew_gini: gini,
            ..profile
        }
    }

    fn task_report(joined: usize, lr: u64) -> BenchSmokeReport {
        let task = TaskBench {
            task: "ShoppingMall".to_string(),
            scale: "small".to_string(),
            size: (143, 80),
            space: "reduced24".to_string(),
            runs: vec![BenchRun {
                threads: 1,
                seconds: 0.1,
                cpu_seconds: 0.1,
                parallel_work_seconds: 0.05,
                parallel_span_seconds: 0.05,
                joined,
                estimated_precision: 0.95,
                actual_precision: 1.0,
                actual_recall: 0.9,
                greedy_rounds: 12,
                phases: Vec::new(),
            }],
            speedup: 1.0,
            parallel_effective: 1.0,
            identical_results: true,
            candidates: candidate_stats(lr),
            profile: profile(0.25),
        };
        BenchSmokeReport {
            tasks: vec![task],
            ..Default::default()
        }
    }

    #[test]
    fn task_gate_flags_candidate_count_drift() {
        let base = task_report(70, 120);
        let errors = diff_reports(&task_report(70, 120), &base, "tasks");
        assert!(errors.is_empty(), "{errors:?}");

        // Any counter drifting is a gate failure.
        let errors = diff_reports(&task_report(70, 121), &base, "tasks");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("candidates.lr_pairs"), "{errors:?}");

        // Dropping the stats when the baseline has them is a gate failure.
        let mut fresh = task_report(70, 120).serialize_value();
        *leaf_mut(&mut fresh, &[2, 0, 8]) = Value::Null; // tasks[0].candidates
        let errors = gate(&fresh, &base.serialize_value(), "tasks");
        assert_eq!(
            errors,
            ["tasks[task=ShoppingMall,space=reduced24].candidates: absent != baseline an object"]
        );
    }

    #[test]
    fn tasks_pair_by_task_and_space() {
        let mut base = task_report(70, 120);
        let mut full = base.tasks[0].clone();
        full.space = "full140".to_string();
        full.runs[0].greedy_rounds = 30;
        base.tasks.push(full.clone());

        // Either space alone pairs with its own baseline entry.
        let mut fresh = BenchSmokeReport {
            tasks: vec![full],
            ..Default::default()
        };
        assert!(diff_reports(&fresh, &base, "tasks").is_empty());
        fresh.tasks[0].runs[0].greedy_rounds = 12;
        assert_eq!(
            diff_reports(&fresh, &base, "tasks"),
            [
                "tasks[task=ShoppingMall,space=full140].runs[threads=1].greedy_rounds: 12 != \
              baseline 30"
            ]
        );
        fresh.tasks[0].space = "other".to_string();
        assert_eq!(
            diff_reports(&fresh, &base, "tasks"),
            ["tasks[task=ShoppingMall,space=other]: not in the baseline"]
        );
    }

    /// A task measured in the reduced and the full space, at the given
    /// (recall, precision) per space.
    fn both_spaces(reduced: (f64, f64), full: (f64, f64)) -> Vec<TaskBench> {
        let leg = |space: &JoinFunctionSpace, (recall, precision): (f64, f64)| {
            let mut t = task_report(70, 120).tasks.remove(0);
            t.task = "TeamSeasonMedium".to_string();
            t.space = space.label().to_string();
            t.runs[0].actual_recall = recall;
            t.runs[0].actual_precision = precision;
            t
        };
        vec![
            leg(&JoinFunctionSpace::reduced24(), reduced),
            leg(&JoinFunctionSpace::full(), full),
        ]
    }

    #[test]
    fn the_full_space_must_recall_at_least_the_reduced_space_above_tau() {
        let claim = |reduced, full| space_claim(&both_spaces(reduced, full));
        assert!(claim((0.82, 0.93), (0.85, 0.92)).is_empty());
        assert!(claim((0.82, 0.93), (0.82, 0.90)).is_empty());
        // One space alone makes no claim.
        assert!(space_claim(&both_spaces((0.9, 0.5), (0.5, 0.5))[1..]).is_empty());

        assert_eq!(
            claim((0.82, 0.93), (0.75, 0.94)),
            [
                "tasks[task=TeamSeasonMedium]: full-140 recall 0.7500 < reduced-24 recall \
              0.8200 at 1 thread(s)"
            ]
        );
        assert_eq!(
            claim((0.82, 0.89), (0.85, 0.93)),
            [
                "tasks[task=TeamSeasonMedium,space=reduced-24].runs[threads=1].actual_precision: \
              0.8900 < τ = 0.9"
            ]
        );
    }

    fn fig6d_report(points: &[(f64, u64)]) -> BenchSmokeReport {
        let points = points.iter().map(|&(beta, lr)| Fig6dPoint {
            beta,
            precision: 0.93,
            recall: 0.8,
            seconds: 0.5,
            candidates: candidate_stats(lr),
        });
        BenchSmokeReport {
            fig6d: Some(points.collect()),
            ..Default::default()
        }
    }

    #[test]
    fn fig6d_gate_flags_candidate_drift_and_coverage_both_ways() {
        let base = fig6d_report(&[(0.5, 100), (1.5, 300)]);

        // Identical sweep with timing noise passes.
        let mut fresh = fig6d_report(&[(0.5, 100), (1.5, 300)]);
        fresh.fig6d.as_mut().unwrap()[0].seconds = 99.0;
        let errors = diff_reports(&fresh, &base, "fig6d");
        assert!(errors.is_empty(), "{errors:?}");

        // Candidate-count drift at one β fails.
        let drift = fig6d_report(&[(0.5, 101), (1.5, 300)]);
        let errors = diff_reports(&drift, &base, "fig6d");
        assert_eq!(
            errors,
            ["fig6d[beta=0.5].candidates.lr_pairs: 101 != baseline 100"]
        );

        // A dropped β and an added β both fail (two-way coverage).
        let moved = fig6d_report(&[(0.5, 100), (2.0, 300)]);
        let errors = diff_reports(&moved, &base, "fig6d");
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    fn scenario_bench(joined: usize, gini: f64) -> ScenarioBench {
        let run = |threads, seconds| ScenarioRun {
            threads,
            seconds,
            joined,
            estimated_precision: 0.95,
            actual_precision: 1.0,
            actual_recall: 0.9,
        };
        ScenarioBench {
            scenario: "irrelevant_50".to_string(),
            kind: "irrelevant_records".to_string(),
            size: (2, 2),
            profile: profile(gini),
            runs: vec![run(1, 0.1), run(4, 0.05)],
            identical_results: true,
        }
    }

    fn scenario_report(scenarios: Vec<ScenarioBench>) -> BenchSmokeReport {
        BenchSmokeReport {
            scenarios: Some(scenarios),
            ..Default::default()
        }
    }

    #[test]
    fn scenario_gate_flags_quality_and_profile_drift_but_not_timing() {
        let base = scenario_report(vec![scenario_bench(7, 0.25)]);

        // Timing noise alone never fails the gate.
        let mut fresh = scenario_bench(7, 0.25);
        fresh.runs[1].seconds = 99.0;
        let errors = diff_reports(&scenario_report(vec![fresh]), &base, "scenarios");
        assert!(errors.is_empty(), "{errors:?}");

        // Quality drift (pipeline change) fails.
        let drift = scenario_report(vec![scenario_bench(6, 0.25)]);
        let errors = diff_reports(&drift, &base, "scenarios");
        assert_eq!(errors.len(), 2, "joined drifts on both legs: {errors:?}");

        // Profile drift (generator change) fails even with identical quality.
        let drift = scenario_report(vec![scenario_bench(7, 0.75)]);
        let errors = diff_reports(&drift, &base, "scenarios");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("profile.token_skew_gini"), "{errors:?}");
    }

    #[test]
    fn scenario_gate_flags_missing_and_unknown_scenarios() {
        let base = scenario_report(vec![scenario_bench(7, 0.25)]);
        let errors = diff_reports(&scenario_report(Vec::new()), &base, "scenarios");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("not measured"), "{errors:?}");

        let mut renamed = scenario_bench(7, 0.25);
        renamed.scenario = "brand_new".to_string();
        let errors = diff_reports(&scenario_report(vec![renamed]), &base, "scenarios");
        assert_eq!(errors.len(), 2, "dropped + unknown: {errors:?}");
    }

    /// A scratch directory of this test process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autofj-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn check_diffs_every_section_it_ran() {
        let dir = scratch("check");
        let fresh = BenchSmokeReport {
            serve: Some(serve_bench(70, true)),
            scenarios: Some(vec![scenario_bench(7, 0.25)]),
            ..Default::default()
        };
        let baseline = |name: &str, serve_joined, scenario_joined| {
            let report = BenchSmokeReport {
                serve: Some(serve_bench(serve_joined, true)),
                scenarios: Some(vec![scenario_bench(scenario_joined, 0.25)]),
                ..Default::default()
            };
            let path = dir.join(name);
            std::fs::write(&path, serde_json::to_string(&report).unwrap()).unwrap();
            path
        };
        let out = dir.join("BENCH.json");
        let same = baseline("same.json", 70, 7);
        assert_eq!(check(fresh.clone(), &out, Some(&same)), [""; 0]);

        // `serve` matches, yet a drifted `scenarios` leaf fails the run.
        let scenarios_drifted = baseline("scenarios.json", 70, 6);
        let errors = check(fresh.clone(), &out, Some(&scenarios_drifted));
        assert_eq!(
            errors,
            [
                "scenarios[scenario=irrelevant_50].runs[threads=1].joined: 7 != baseline 6",
                "scenarios[scenario=irrelevant_50].runs[threads=4].joined: 7 != baseline 6",
            ]
        );
        let drifted = baseline("serve.json", 71, 7);
        let errors = check(fresh.clone(), &out, Some(&drifted));
        assert_eq!(errors, ["serve.joined: 70 != baseline 71"]);

        // A section that was not run is not diffed.
        let serve_only = serve_report(serve_bench(70, true));
        let errors = check(serve_only, &out, Some(&scenarios_drifted));
        assert_eq!(errors, [""; 0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_baseline_without_a_field_names_it() {
        let dir = scratch("older");
        let report = task_report(70, 120);
        // A baseline written before `greedy_rounds` existed.
        let mut older = report.serialize_value();
        let run = leaf_mut(&mut older, &[2, 0, 4, 0]); // tasks[0].runs[0]
        let Value::Object(fields) = run else {
            panic!("a run is an object")
        };
        fields.retain(|(key, _)| key != "greedy_rounds");
        let path = dir.join("older.json");
        std::fs::write(&path, serde_json::to_string(&older).unwrap()).unwrap();
        let errors = check(report, &dir.join("BENCH.json"), Some(&path));
        assert_eq!(
            errors,
            [
                "tasks[task=ShoppingMall,space=reduced24].runs[threads=1].greedy_rounds: 12 != \
                 baseline absent"
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_report_write_fails_the_run() {
        let dir = scratch("write");
        let report = serve_report(serve_bench(70, true));
        let out = dir.join("reports").join("BENCH.serve.json");
        assert_eq!(check(report.clone(), &out, None), [""; 0]);
        assert!(field(&read_report(&out).unwrap(), "serve")
            .as_object()
            .is_some());

        // A regular file where the output's directory should be.
        let blocked = dir.join("reports").join("BENCH.serve.json").join("x.json");
        let errors = check(report, &blocked, None);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("cannot write the report to"),
            "{errors:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baseline_resolution_prefers_env_and_newest_pr() {
        let dir = std::env::temp_dir().join(format!("autofj-baselines-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(resolve_baseline_in(None, &dir), None, "no BENCH_pr*.json");
        for name in [
            "BENCH_pr9.json",
            "BENCH_pr13.json",
            "BENCH.json",
            "BENCH_prX.json",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        assert_eq!(
            resolve_baseline_in(None, &dir),
            Some(dir.join("BENCH_pr13.json")),
            "numeric, not lexicographic: pr13 beats pr9"
        );
        std::fs::write(dir.join("BENCH_pr100.json"), "{}").unwrap();
        assert_eq!(
            resolve_baseline_in(None, &dir),
            Some(dir.join("BENCH_pr100.json"))
        );
        // An explicit AUTOFJ_BENCH_BASELINE wins; empty or `none` disables.
        let explicit = |v: &str| resolve_baseline_in(Some(v.to_string()), &dir);
        assert_eq!(explicit("custom.json"), Some(PathBuf::from("custom.json")));
        assert_eq!(explicit("none"), None);
        assert_eq!(explicit(""), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The value at `at`, a path of object-field and list indices.
    fn leaf_mut<'v>(mut value: &'v mut Value, at: &[usize]) -> &'v mut Value {
        for &i in at {
            value = match value {
                Value::Object(fields) => &mut fields[i].1,
                Value::Array(items) => &mut items[i],
                leaf => panic!("cannot index {} at {at:?}", leaf.kind()),
            };
        }
        value
    }

    /// One leaf of a report's value tree.
    struct Leaf {
        /// Index path from the report root (see [`leaf_mut`]).
        at: Vec<usize>,
        /// The path the gate names it by.
        path: String,
        /// Under an informational key.
        informational: bool,
        /// The field a keyed-list entry pairs on.
        key: bool,
    }

    /// Collect every leaf under `value`, which sits under object key `key`
    /// (and is an entry of a list keyed by `by`, or a key field itself).
    #[allow(clippy::too_many_arguments)]
    fn collect(
        value: &Value,
        key: &str,
        by: &[&'static str],
        is_key: bool,
        at: &mut Vec<usize>,
        path: &str,
        informational: bool,
        out: &mut Vec<Leaf>,
    ) {
        let informational = informational || matches!(rule(key), Some(Rule::Informational));
        match value {
            Value::Object(fields) => {
                for (i, (k, v)) in fields.iter().enumerate() {
                    at.push(i);
                    let child = format!("{path}.{k}");
                    let is_key = by.contains(&k.as_str());
                    collect(v, k, &[], is_key, at, &child, informational, out);
                    at.pop();
                }
            }
            Value::Array(items) => {
                let keyed = match rule(key) {
                    Some(Rule::Keyed(by, _)) => by,
                    _ => &[],
                };
                for (i, item) in items.iter().enumerate() {
                    at.push(i);
                    let child = if keyed.is_empty() {
                        format!("{path}[{i}]")
                    } else {
                        entry_path(path, keyed, item)
                    };
                    collect(item, "", keyed, false, at, &child, informational, out);
                    at.pop();
                }
            }
            _ => out.push(Leaf {
                at: at.clone(),
                path: path.to_string(),
                informational,
                key: is_key,
            }),
        }
    }

    fn bump(value: &mut Value) {
        match value {
            Value::Bool(b) => *b = !*b,
            Value::I64(n) => *n += 1,
            Value::U64(n) => *n += 1,
            Value::F64(x) => *x += 1e-6 * x.abs().max(1.0),
            Value::Str(s) => s.push('x'),
            other => panic!("not a leaf value: {}", other.kind()),
        }
    }

    #[test]
    fn every_leaf_of_the_committed_baseline_gates_or_is_informational() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let path = resolve_baseline_in(None, &root).expect("a committed BENCH_pr*.json");
        let base = read_report(&path).unwrap().serialize_value();
        let sections = base.as_object().unwrap();
        let (mut gated, mut informational) = (0, 0);
        for section in ["tasks", "serve", "scenarios", "fig6d"] {
            let errors = gate(&base, &base, section);
            assert!(errors.is_empty(), "{errors:?}");
            let index = sections.iter().position(|(k, _)| k == section).unwrap();
            let mut leaves = Vec::new();
            let value = field(&base, section);
            collect(
                value,
                section,
                &[],
                false,
                &mut vec![index],
                section,
                false,
                &mut leaves,
            );
            for leaf in leaves {
                // Wall-clock noise must never fail the gate.
                let name = leaf.path.rsplit('.').next().unwrap();
                let timing = ["seconds", "_ms", "_rps"].iter().any(|t| name.ends_with(t));
                assert!(!timing || leaf.informational, "{} gates", leaf.path);
                let mut fresh = base.clone();
                bump(leaf_mut(&mut fresh, &leaf.at));
                let errors = gate(&fresh, &base, section);
                if leaf.informational {
                    informational += 1;
                    assert!(errors.is_empty(), "{}: {errors:?}", leaf.path);
                } else if leaf.key {
                    gated += 1;
                    assert!(!errors.is_empty(), "{}", leaf.path);
                    assert!(errors[0].ends_with("not in the baseline"), "{errors:?}");
                } else {
                    gated += 1;
                    assert_eq!(errors.len(), 1, "{}: {errors:?}", leaf.path);
                    assert!(
                        errors[0].starts_with(&leaf.path),
                        "{}: {errors:?}",
                        leaf.path
                    );
                }
            }
        }
        assert!(
            gated > 400 && informational > 300,
            "{gated} + {informational}"
        );

        // A fresh run may measure a subset of the tasks, but must measure
        // every scenario and every β.
        for (section, dropped) in [("tasks", 0), ("scenarios", 1), ("fig6d", 1)] {
            let mut fresh = base.clone();
            let index = sections.iter().position(|(k, _)| k == section).unwrap();
            let Value::Array(entries) = leaf_mut(&mut fresh, &[index]) else {
                panic!("{section} is a list");
            };
            entries.remove(0);
            let errors = gate(&fresh, &base, section);
            assert_eq!(errors.len(), dropped, "{section}: {errors:?}");
            assert!(errors.iter().all(|e| e.ends_with("not measured")));
        }
    }
}
