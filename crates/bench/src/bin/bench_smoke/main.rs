//! The bench gate: measure the sections of the `BENCH_*.json` report and
//! diff them against the committed baseline.
//!
//! `bench_smoke [section…]` runs the named sections (case-insensitive), in
//! report order; with no argument it runs all six:
//!
//! * `small`, `medium`, `large` — the quickstart/table2 pipeline on one
//!   datagen task each: ShoppingMall at the `small` scale (~143×80),
//!   `TeamSeasonMedium` (≥ 10k×10k) and `TeamSeasonLarge` (100k×100k, at
//!   β = 0.25), once at 1 worker thread and once at [`MULTI_THREADS`], in
//!   the reduced 24-function space.  `medium` also runs its task in the
//!   full 140-function space, and the gate requires that leg to recall at
//!   least what the reduced one does, both at actual precision ≥ τ
//!   (Fig. 7(c,d)).  The report's `tasks`, keyed by task and space, keeps
//!   each run's quality, greedy rounds, phase timings and CPU-clock
//!   work/span counters, from which `parallel_effective` models the
//!   multi-thread leg on a host with one core per worker.  Under each task
//!   the binary prints the multi-thread leg's profile, read off the
//!   [`Trace`] that leg captured: the phase table with shares, the engine's
//!   work/span balance, and the `block work:`, `precompute work:` and
//!   `greedy work:` counter lines (see [`print_profile`]).
//! * `serve` — the snapshot round trip and online server ([`serve`]).
//! * `scenarios` — the stress suite at 1 and [`MULTI_THREADS`] threads
//!   ([`scenarios`]).
//! * `fig6d` — the `paper` registry's Figure 6(d) blocking-factor sweep, at
//!   the settings its baseline was measured with: the small scale, all 12
//!   sweep tasks and the full 140-function space.
//!
//! `serve` and `scenarios` run the reduced 24-function space.  An unknown
//! section exits 2 and names the accepted ones.  The run writes one report
//! to `AUTOFJ_BENCH_OUT` when set, else `target/experiments/BENCH.json`,
//! and ends in [`autofj_bench::smoke::check`], which diffs exactly the
//! sections it ran against the committed baseline and exits 1 on any
//! failure.  Regenerating the baseline is one command:
//!
//! ```bash
//! AUTOFJ_BENCH_OUT=BENCH_pr<N>.json cargo run --release -p autofj-bench --bin bench_smoke
//! ```

mod scenarios;
mod serve;

use autofj_bench::registry::{entry, Cell, Score, Settings, DEFAULT_MC_SCALE};
use autofj_bench::runner::{autofj_options, or_exit, run_autofj};
use autofj_bench::smoke::{
    effective_speedup, smoke, wall_ratio, BenchRun, BenchSmokeReport, Fig6dPoint, TaskBench,
    MULTI_THREADS,
};
use autofj_bench::Reporter;
use autofj_block::BlockingStats;
use autofj_core::trace::{self, Phase, Trace};
use autofj_core::{AutoFjOptions, JoinResult};
use autofj_datagen::{
    benchmark_specs, large_spec, medium_smoke_spec, BenchmarkScale, SingleColumnTask,
};
use autofj_eval::profile_tables;
use autofj_text::JoinFunctionSpace;

/// The sections, in report order.
const SECTIONS: [&str; 6] = ["small", "medium", "large", "serve", "scenarios", "fig6d"];

/// The sections `args` name, in report order; all of them when `args` is
/// empty.  An unknown name is an error listing the sections.
fn parse_sections(args: &[String]) -> Result<Vec<&'static str>, String> {
    let mut named = Vec::new();
    for arg in args {
        let lower = arg.to_lowercase();
        match SECTIONS.iter().find(|s| **s == lower) {
            Some(section) => named.push(*section),
            None => {
                return Err(format!(
                    "no bench section `{arg}`; the sections are: {}",
                    SECTIONS.join(", ")
                ))
            }
        }
    }
    let all = named.is_empty();
    Ok(SECTIONS
        .into_iter()
        .filter(|s| all || named.contains(s))
        .collect())
}

/// Run `leg` once at 1 worker thread and once at [`MULTI_THREADS`], then
/// restore the environment-driven pool.  Returns each leg's measurement and
/// whether the two legs' serialized `JoinResult`s are byte-identical.
fn thread_legs<M>(mut leg: impl FnMut(usize) -> (JoinResult, M)) -> (Vec<M>, bool) {
    let mut legs = Vec::new();
    let mut serialized = Vec::new();
    for threads in [1, MULTI_THREADS] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let (result, measured) = leg(threads);
        serialized.push(serde_json::to_string(&result).expect("JoinResult serializes"));
        legs.push(measured);
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("reset shim pool");
    (legs, serialized[0] == serialized[1])
}

/// Measure one task in `space` at 1 and [`MULTI_THREADS`] workers.
/// `warmup` runs one untimed pipeline first; the large tier and the medium
/// task's full-space leg skip it (their timings are informational, and one
/// more run of tens of seconds or minutes buys nothing).
fn bench_task(
    task: &SingleColumnTask,
    scale: &str,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    warmup: bool,
) -> TaskBench {
    // Untimed warm-up so one-time costs (allocator growth, lazy tables,
    // page faults) are not attributed to whichever leg happens to run first.
    if warmup {
        let _ = run_autofj(task, space, options);
    }

    let (legs, identical_results) = thread_legs(|threads| {
        rayon::reset_engine_stats();
        let cpu_before = rayon::process_cpu_nanos();
        let ((result, quality, stats, seconds), trace) =
            trace::capture(|| run_autofj(task, space, options));
        let cpu_seconds = rayon::process_cpu_nanos().saturating_sub(cpu_before) as f64 * 1e-9;
        let engine = rayon::engine_stats();
        let run = BenchRun {
            threads,
            seconds,
            cpu_seconds,
            parallel_work_seconds: engine.parallel_work_seconds,
            parallel_span_seconds: engine.parallel_span_seconds,
            joined: result.num_joined(),
            estimated_precision: result.estimated_precision,
            actual_precision: quality.precision,
            actual_recall: quality.recall_relative,
            greedy_rounds: trace.greedy.rounds,
            phases: trace.phases(),
        };
        (result, (run, stats, trace, engine))
    });
    let (run, stats, trace, engine) = legs.last().expect("a multi-thread leg");
    let name = format!("{} ({})", task.name, space.label());
    print_profile(&name, run, stats, trace, engine);
    let (runs, candidates): (Vec<BenchRun>, Vec<BlockingStats>) = legs
        .into_iter()
        .map(|(run, stats, ..)| (run, stats))
        .unzip();

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
    let candidates_identical = candidates[0] == candidates[1];
    let profile = profile_tables(&[&task.left], &[&task.right], &task.ground_truth);
    TaskBench {
        task: task.name.clone(),
        scale: scale.to_string(),
        size: (task.left.len(), task.right.len()),
        space: space.label().to_string(),
        runs,
        speedup,
        parallel_effective,
        identical_results: identical_results && candidates_identical,
        candidates: candidates[0].into(),
        profile,
    }
}

/// Print one leg's profile from its trace: seconds, share of the run and
/// entries per phase, the engine's parallel work against its critical path,
/// then the three work-counter lines.  `block work:` is the probe's postings
/// scanned of the dense walk's total, records verified and candidates kept,
/// with postings/s over `block`; `precompute work:` is the kernel-group
/// evaluations per family ([`Trace::precompute_work`]) with pairs/s over the
/// family's `precompute/<family>` span; `greedy work:` is the greedy
/// search's rounds, round-1 coverage and histogram updates
/// ([`Trace::greedy`]).
fn print_profile(
    task: &str,
    run: &BenchRun,
    blocking: &BlockingStats,
    trace: &Trace,
    engine: &rayon::EngineStats,
) {
    let seconds = run.seconds.max(1e-9);
    let mut table = Reporter::new(
        &format!("{task} at {} thread(s): wall-clock per phase", run.threads),
        &["Phase", "Seconds", "Share", "Entries"],
    );
    for p in &run.phases {
        table.add_row(vec![
            p.phase.clone(),
            format!("{:.3}", p.seconds),
            format!("{:.1}%", 100.0 * p.seconds / seconds),
            p.entries.to_string(),
        ]);
    }
    table.print();
    // The family spans nest inside `precompute`, so they are not added.
    let covered: f64 = run
        .phases
        .iter()
        .filter(|p| !p.phase.starts_with("precompute/"))
        .map(|p| p.seconds)
        .sum();
    println!(
        "total {:.3}s (phases cover {:.1}%)",
        run.seconds,
        100.0 * covered / seconds
    );
    println!(
        "engine: parallel work {:.3}s over {} region(s), critical path {:.3}s \
         (balance {:.2}x at {} worker(s))",
        engine.parallel_work_seconds,
        engine.parallel_regions,
        engine.parallel_span_seconds,
        engine.parallel_work_seconds / engine.parallel_span_seconds.max(1e-9),
        run.threads,
    );
    let rate = |count: u64, phase: Phase| {
        let s = trace.phase(phase).seconds;
        if s > 0.0 {
            format!("{:.2} M", count as f64 / s / 1e6)
        } else {
            "-".to_string()
        }
    };
    println!(
        "block work: {} of {} postings scanned ({:.1}%), {} touched, {} records verified, \
         {} candidates kept ({} postings/s)",
        blocking.postings_scanned,
        blocking.postings_total,
        100.0 * (1.0 - blocking.reduction_ratio()),
        blocking.touched_records,
        blocking.scored_records,
        blocking.lr_pairs + blocking.ll_pairs,
        rate(blocking.postings_scanned, Phase::Block),
    );
    let families: Vec<String> = (trace.precompute_work.iter())
        .map(|&(family, work)| {
            format!(
                "{} {} L-R + {} L-L pairs ({} pairs/s)",
                family.label(),
                work.lr_pairs,
                work.ll_pairs,
                rate(work.lr_pairs + work.ll_pairs, Phase::of_family(family)),
            )
        })
        .collect();
    println!("precompute work: {}", families.join("; "));
    let greedy = &trace.greedy;
    let after_round_one: u64 = greedy.updates_per_round.iter().sum();
    println!(
        "greedy work: {} round(s), round-1 coverage {}, {} histogram update(s) after \
         round 1 (at most {} in one round), {} in all",
        greedy.rounds,
        greedy.round_one_coverage,
        after_round_one,
        greedy.updates_per_round.iter().max().unwrap_or(&0),
        greedy.round_one_coverage + after_round_one,
    );
}

/// Measure the smoke task of `scale`: `small`, `medium` or `large`, in the
/// reduced space, and the medium task in the full space too.
fn measure_tasks(scale: &str) -> Vec<TaskBench> {
    let task = match scale {
        // Index 36 is ShoppingMall, the task of the first trajectory entry.
        "small" => benchmark_specs(BenchmarkScale::Small)[36].generate(),
        "medium" => medium_smoke_spec().generate(),
        _ => large_spec().generate(),
    };
    // The large tier drops β to keep the candidate volume (β·√|L| per
    // probe, over 200k probes) within the CI budget; it is still ~5× the
    // medium task's pair count.  It also skips the untimed warm-up run —
    // large timings are informational.
    let (options, warmup) = if scale == "large" {
        let options = AutoFjOptions {
            blocking_factor: 0.25,
            ..autofj_options()
        };
        (options, false)
    } else {
        (autofj_options(), true)
    };
    let mut spaces = vec![(JoinFunctionSpace::reduced24(), warmup)];
    if scale == "medium" {
        spaces.push((JoinFunctionSpace::full(), false));
    }
    (spaces.iter())
        .map(|(space, warmup)| {
            eprintln!(
                "bench-smoke: running {} ({}x{}, {}) at 1 and {MULTI_THREADS} threads...",
                task.name,
                task.left.len(),
                task.right.len(),
                space.label()
            );
            bench_task(&task, scale, space, &options, *warmup)
        })
        .collect()
}

fn print_tasks(tasks: &[TaskBench]) {
    let mut table = Reporter::new(
        "bench-smoke: single vs multi thread",
        &[
            "Task", "Space", "Size", "Threads", "Seconds", "Joined", "Rounds", "EstP", "P", "R",
        ],
    );
    for t in tasks {
        for r in &t.runs {
            table.add_row(vec![
                t.task.clone(),
                t.space.clone(),
                format!("{}x{}", t.size.0, t.size.1),
                r.threads.to_string(),
                format!("{:.3}", r.seconds),
                r.joined.to_string(),
                r.greedy_rounds.to_string(),
                format!("{:.3}", r.estimated_precision),
                format!("{:.3}", r.actual_precision),
                format!("{:.3}", r.actual_recall),
            ]);
        }
    }
    table.print();
    for t in tasks {
        println!(
            "{} ({}): wall speedup (1 -> {MULTI_THREADS} threads) {:.2}x, \
             parallel_effective {:.2}x, identical results: {}",
            t.task, t.space, t.speedup, t.parallel_effective, t.identical_results
        );
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
}

/// The Figure 6(d) sweep points of the `fig6d` entry's cells (points outer,
/// tasks inner): per β, AutoFJ's quality and seconds averaged and its
/// candidate counts summed over the tasks (the largest list kept per probe
/// is a maximum).
fn fig6d_points(cells: &[Cell]) -> Vec<Fig6dPoint> {
    cells
        .chunk_by(|a, b| a.point == b.point)
        .map(|tasks| {
            let n = tasks.len() as f64;
            let mean =
                |f: fn(&Score) -> f64| tasks.iter().map(|c| f(&c.scores[0])).sum::<f64>() / n;
            let mut sum = BlockingStats::default();
            for c in tasks.iter().map(|c| c.candidates) {
                sum.lr_pairs += c.lr_pairs;
                sum.ll_pairs += c.ll_pairs;
                sum.per_probe_max = sum.per_probe_max.max(c.per_probe_max);
                sum.scored_records += c.scored_records;
                sum.touched_records += c.touched_records;
                sum.postings_scanned += c.postings_scanned;
                sum.postings_total += c.postings_total;
            }
            Fig6dPoint {
                beta: tasks[0].point.expect("fig6d sweeps β"),
                precision: mean(|s| s.precision),
                recall: mean(|s| s.recall),
                seconds: mean(|s| s.seconds),
                candidates: sum.into(),
            }
        })
        .collect()
}

/// Measure the `fig6d` section: the registry's sweep at the settings the
/// baseline's sweep was measured with.
fn measure_fig6d() -> Vec<Fig6dPoint> {
    let settings = Settings {
        scale: BenchmarkScale::Small,
        task_limit: usize::MAX,
        space: JoinFunctionSpace::full(),
        mc_scale: DEFAULT_MC_SCALE,
    };
    let fig6d = entry("fig6d").expect("the registry has a fig6d entry");
    fig6d_points(&fig6d.run(&settings).cells)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report = BenchSmokeReport::default();
    for section in or_exit(parse_sections(&args)) {
        match section {
            "serve" => report.serve = Some(serve::measure()),
            "scenarios" => report.scenarios = Some(scenarios::measure()),
            "fig6d" => report.fig6d = Some(measure_fig6d()),
            scale => report.tasks.extend(measure_tasks(scale)),
        }
    }
    if !report.tasks.is_empty() {
        print_tasks(&report.tasks);
    }
    smoke(report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<&'static str>, String> {
        parse_sections(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_section_runs_all_six_in_report_order() {
        assert_eq!(parse(&[]).unwrap(), SECTIONS);
        assert_eq!(
            SECTIONS,
            ["small", "medium", "large", "serve", "scenarios", "fig6d"]
        );
    }

    #[test]
    fn named_sections_run_in_report_order_whatever_their_case() {
        assert_eq!(parse(&["Medium"]).unwrap(), ["medium"]);
        assert_eq!(
            parse(&["FIG6D", "serve", "small", "serve"]).unwrap(),
            ["small", "serve", "fig6d"]
        );
    }

    #[test]
    fn an_unknown_section_names_the_sections() {
        let err = parse(&["small", "medum"]).unwrap_err();
        assert_eq!(
            err,
            "no bench section `medum`; the sections are: \
             small, medium, large, serve, scenarios, fig6d"
        );
        assert!(parse(&[""]).is_err());
    }
}
