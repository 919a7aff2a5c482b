//! CI bench-smoke: the multi-task benchmark behind the `BENCH_*.json` perf
//! trajectory and the quality gate.
//!
//! Runs the quickstart/table2 pipeline (blocking → negative rules →
//! precision pre-compute → greedy union search) on up to two datagen tasks —
//! a small one (ShoppingMall at the `small` scale, ~143×80) and a medium one
//! (`TeamSeasonMedium`, ≥ 10k×10k) — each once with 1 worker thread and once
//! with `AUTOFJ_BENCH_THREADS` (default 4), verifies that each task's runs
//! produce a byte-identical `JoinResult`, and writes a multi-task report to
//! `target/experiments/BENCH.json` (plus a copy at `AUTOFJ_BENCH_OUT` when
//! set), which CI uploads as a workflow artifact.
//!
//! Every run records a `phases` breakdown (wall-clock per pipeline phase,
//! from `autofj_core::timing`) and the execution engine's CPU-clock
//! work/span counters, from which the report derives `parallel_effective`:
//! the speedup the multi-thread leg would show on a host with one core per
//! worker (serial CPU time stays, each parallel region contracts to its
//! critical path).  Wall-clock `speedup` stays recorded but is meaningless
//! on a core-starved CI host; the gate reads the CPU-clock model instead.
//!
//! `AUTOFJ_SCALE` selects the task set: `small`, `medium` or `large` run
//! just that task (the CI matrix runs one leg per scale); unset runs all
//! three, which is how the committed `BENCH_pr*.json` baseline at the
//! repository root is produced.  Any other value exits 2 and names the
//! accepted ones.
//!
//! The run doubles as the **bench gate**: [`autofj_bench::smoke::smoke`]
//! diffs the `tasks` section against the committed baseline, matching each
//! fresh task by name ([`autofj_bench::smoke::GATE_POLICY`] says which
//! fields stay informational) — timings never fail CI, but a change that
//! silently alters *what* the pipeline computes does.
//!
//! ```bash
//! cargo run --release -p autofj-bench --bin bench_smoke
//! ```
//!
//! Exits non-zero if any task's results differ across thread counts, any
//! quality field drifts from the baseline, or the medium task's
//! `parallel_effective` falls below
//! [`autofj_bench::smoke::MIN_PARALLEL_EFFECTIVE`].

use autofj_bench::runner::{
    autofj_options, env_space, or_exit, parse_knob, run_autofj, run_autofj_with_stats,
};
use autofj_bench::smoke::{
    effective_speedup, smoke, wall_ratio, BenchRun, BenchSmokeReport, TaskBench,
};
use autofj_bench::Reporter;
use autofj_core::timing;
use autofj_core::AutoFjOptions;
use autofj_datagen::{
    benchmark_specs, large_spec, medium_smoke_spec, BenchmarkScale, SingleColumnTask,
};
use autofj_eval::profile_tables;
use autofj_text::JoinFunctionSpace;

/// Measure one task at 1 and `multi_threads` workers.  `warmup` runs one
/// untimed pipeline first; the large tier skips it (its timings are
/// informational and a third multi-minute run buys nothing).
fn bench_task(
    task: &SingleColumnTask,
    scale: &str,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    multi_threads: usize,
    warmup: bool,
) -> TaskBench {
    // Untimed warm-up so one-time costs (allocator growth, lazy tables,
    // page faults) are not attributed to whichever leg happens to run first.
    if warmup {
        let _ = run_autofj(task, space, options);
    }

    let mut runs = Vec::new();
    let mut serialized: Vec<String> = Vec::new();
    let mut candidates = Vec::new();
    for threads in [1usize, multi_threads] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        timing::reset();
        rayon::reset_engine_stats();
        let cpu_before = rayon::process_cpu_nanos();
        let (result, quality, stats, seconds) = run_autofj_with_stats(task, space, options);
        let cpu_seconds = rayon::process_cpu_nanos().saturating_sub(cpu_before) as f64 * 1e-9;
        let engine = rayon::engine_stats();
        serialized.push(serde_json::to_string(&result).expect("JoinResult serializes"));
        candidates.push(stats);
        runs.push(BenchRun {
            threads,
            seconds,
            cpu_seconds,
            parallel_work_seconds: engine.parallel_work_seconds,
            parallel_span_seconds: engine.parallel_span_seconds,
            joined: result.num_joined(),
            estimated_precision: result.estimated_precision,
            actual_precision: quality.precision,
            actual_recall: quality.recall_relative,
            phases: timing::snapshot(),
        });
    }
    // Restore the environment-driven default for anything running after us.
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("reset shim pool");

    let speedup = wall_ratio(runs[0].seconds, runs[1].seconds);
    let multi = &runs[1];
    let parallel_effective = effective_speedup(
        multi.cpu_seconds,
        multi.parallel_work_seconds,
        multi.parallel_span_seconds,
    );
    // The candidate counters are deterministic integer totals, so a
    // cross-leg mismatch is a determinism failure exactly like a differing
    // JoinResult — fold it into the same flag the gate reads.
    let candidates_identical = candidates.windows(2).all(|w| w[0] == w[1]);
    let profile = profile_tables(&[&task.left], &[&task.right], &task.ground_truth);
    TaskBench {
        task: task.name.clone(),
        scale: scale.to_string(),
        size: (task.left.len(), task.right.len()),
        space: space.label().to_string(),
        runs,
        speedup,
        parallel_effective,
        identical_results: serialized.windows(2).all(|w| w[0] == w[1]) && candidates_identical,
        candidates: candidates[0].into(),
        profile,
    }
}

/// The smoke tasks `AUTOFJ_SCALE` selects: `small`, `medium` or `large`;
/// all three when unset.
fn smoke_scales(value: Option<&str>) -> Result<&'static [&'static str], String> {
    let accepted: [(&str, &'static [&'static str]); 3] = [
        ("small", &["small"]),
        ("medium", &["medium"]),
        ("large", &["large"]),
    ];
    parse_knob(
        "AUTOFJ_SCALE",
        value,
        &accepted,
        &["small", "medium", "large"],
    )
}

fn main() {
    // Which smoke tasks to run: each CI leg passes one scale; the default
    // (committed-baseline) invocation runs all three.
    let scales = or_exit(smoke_scales(std::env::var("AUTOFJ_SCALE").ok().as_deref()));
    // Default to the reduced 24-function space so the smoke run stays fast;
    // AUTOFJ_SPACE selects a bigger space for deeper benchmarking sessions.
    let space = env_space(JoinFunctionSpace::reduced24());
    let multi_threads: usize = std::env::var("AUTOFJ_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 1)
        .unwrap_or(4);

    let mut tasks = Vec::new();
    for &scale in scales {
        let task = match scale {
            // Index 36 is ShoppingMall, the same task the runner's own tests
            // exercise and the one PR 3's trajectory entry recorded.
            "small" => benchmark_specs(BenchmarkScale::Small)[36].generate(),
            "large" => large_spec().generate(),
            _ => medium_smoke_spec().generate(),
        };
        // The large tier drops β to keep the candidate volume (β·√|L| per
        // probe, over 200k probes) within the CI budget; it is still ~5×
        // the medium task's pair count.  It also skips the untimed warm-up
        // run — large timings are informational.
        let (options, warmup) = if scale == "large" {
            let options = AutoFjOptions {
                blocking_factor: 0.25,
                ..autofj_options()
            };
            (options, false)
        } else {
            (autofj_options(), true)
        };
        eprintln!(
            "bench-smoke: running {} ({}x{}) at 1 and {multi_threads} threads...",
            task.name,
            task.left.len(),
            task.right.len()
        );
        tasks.push(bench_task(
            &task,
            scale,
            &space,
            &options,
            multi_threads,
            warmup,
        ));
    }

    let report = BenchSmokeReport {
        tasks,
        ..Default::default()
    };

    let mut table = Reporter::new(
        "bench-smoke: single vs multi thread",
        &[
            "Task", "Size", "Threads", "Seconds", "Joined", "EstP", "P", "R",
        ],
    );
    for t in &report.tasks {
        for r in &t.runs {
            table.add_row(vec![
                t.task.clone(),
                format!("{}x{}", t.size.0, t.size.1),
                r.threads.to_string(),
                format!("{:.3}", r.seconds),
                r.joined.to_string(),
                format!("{:.3}", r.estimated_precision),
                format!("{:.3}", r.actual_precision),
                format!("{:.3}", r.actual_recall),
            ]);
        }
    }
    table.print();
    for t in &report.tasks {
        println!(
            "{}: wall speedup (1 -> {multi_threads} threads) {:.2}x, \
             parallel_effective {:.2}x, identical results: {}",
            t.task, t.speedup, t.parallel_effective, t.identical_results
        );
        if let Some(multi) = t.runs.last() {
            for p in &multi.phases {
                if p.seconds >= 0.001 {
                    println!(
                        "  {:<22} {:>9.3}s  ({} entries)",
                        p.phase, p.seconds, p.entries
                    );
                }
            }
        }
        let c = &t.candidates;
        println!(
            "  candidates: {} L-R + {} L-L pairs (max {}/probe), scored {}, \
             postings {}/{} scanned (reduction {:.1}%)",
            c.lr_pairs,
            c.ll_pairs,
            c.per_probe_max,
            c.scored_records,
            c.postings_scanned,
            c.postings_total,
            c.reduction_ratio * 100.0
        );
    }

    smoke("BENCH", report, "tasks");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scales_run_all_three_tiers_only_when_unset() {
        assert_eq!(smoke_scales(None).unwrap(), ["small", "medium", "large"]);
        assert_eq!(smoke_scales(Some("Medium")).unwrap(), ["medium"]);
        let err = smoke_scales(Some("medum")).unwrap_err();
        assert_eq!(
            err,
            "AUTOFJ_SCALE=medum is not one of: small, medium, large"
        );
    }
}
