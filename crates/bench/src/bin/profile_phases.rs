//! Phase-timing profiler: run the pipeline once on a smoke task and print
//! where the wall-clock time goes.
//!
//! This is the interactive companion of the `phases` section that
//! `bench_smoke` persists into `BENCH_*.json`: one run, one table, no gate —
//! for answering "where do the seconds go?" before touching the code.
//! Under the table it prints the pre-compute's kernel-group evaluations per
//! kernel family ([`Precompute::work`]) and the greedy search's work
//! counters ([`GreedyStats`]), both counted on a second, untimed learn of
//! the same task.  A family's pairs/s divides its pairs by its
//! `precompute/<family>` phase, which the pre-compute times on tables of
//! 2048 or more right records (`-` otherwise).
//!
//! ```bash
//! AUTOFJ_SCALE=medium RAYON_NUM_THREADS=1 \
//!   cargo run --release -p autofj-bench --bin profile_phases
//! ```
//!
//! Environment:
//! * `AUTOFJ_SCALE` — `small` (default) or `medium`: which smoke task to
//!   run; any other value exits 2.
//! * `RAYON_NUM_THREADS` — worker threads of the execution engine.
//! * `AUTOFJ_SPACE` — `24` (default), `38`, `70` or `140`: the configuration
//!   space.

use autofj_bench::runner::{autofj_options, or_exit, parse_knob, parse_space, run_autofj};
use autofj_bench::Reporter;
use autofj_core::estimate::{FamilyWork, Precompute};
use autofj_core::greedy::{run_greedy_with_stats, GreedyStats};
use autofj_core::oracle::SingleColumnOracle;
use autofj_core::{candidate_stage, timing, AutoFjOptions};
use autofj_datagen::{benchmark_specs, medium_smoke_spec, BenchmarkScale, SingleColumnTask};
use autofj_text::{JoinFunctionSpace, KernelFamily};

/// The pre-compute and greedy work counters of one learn of `task`.
fn work_counters(
    task: &SingleColumnTask,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (Vec<(KernelFamily, FamilyWork)>, GreedyStats) {
    let oracle = SingleColumnOracle::build(space.functions(), &task.left, &task.right);
    let candidates = candidate_stage(oracle.column(), task.left.len(), options);
    let pre = Precompute::build(
        &oracle,
        candidates.lr_candidates(),
        &candidates.blocking.left_candidates_of_left,
        options.num_thresholds,
    );
    let greedy = run_greedy_with_stats(&pre, options).1;
    (pre.work, greedy)
}

fn main() {
    let accepted = [("small", false), ("medium", true)];
    let medium = or_exit(parse_knob(
        "AUTOFJ_SCALE",
        std::env::var("AUTOFJ_SCALE").ok().as_deref(),
        &accepted,
        false,
    ));
    let task = if medium {
        medium_smoke_spec().generate()
    } else {
        benchmark_specs(BenchmarkScale::Small)[36].generate()
    };
    let space = or_exit(parse_space(
        std::env::var("AUTOFJ_SPACE").ok().as_deref(),
        JoinFunctionSpace::reduced24(),
    ));
    let threads = rayon::current_num_threads();
    eprintln!(
        "profile-phases: {} ({}x{}), space {}, {} thread(s)",
        task.name,
        task.left.len(),
        task.right.len(),
        space.label(),
        threads
    );

    let options = autofj_options();
    timing::reset();
    rayon::reset_engine_stats();
    let (result, quality, _, seconds) = run_autofj(&task, &space, &options);
    let phases = timing::snapshot();
    let engine = rayon::engine_stats();

    let mut table = Reporter::new(
        "profile-phases: wall-clock per pipeline phase",
        &["Phase", "Seconds", "Share", "Entries"],
    );
    for p in &phases {
        table.add_row(vec![
            p.phase.clone(),
            format!("{:.3}", p.seconds),
            format!("{:.1}%", 100.0 * p.seconds / seconds.max(1e-9)),
            p.entries.to_string(),
        ]);
    }
    table.print();
    let accounted: f64 = phases.iter().map(|p| p.seconds).sum();
    println!(
        "total {seconds:.3}s (phases cover {:.1}%), joined {}, precision {:.3}, recall {:.3}",
        100.0 * accounted / seconds.max(1e-9),
        result.num_joined(),
        quality.precision,
        quality.recall_relative,
    );
    println!(
        "engine: parallel work {:.3}s over {} region(s), critical path {:.3}s \
         (balance {:.2}x at {} worker(s))",
        engine.parallel_work_seconds,
        engine.parallel_regions,
        engine.parallel_span_seconds,
        engine.parallel_work_seconds / engine.parallel_span_seconds.max(1e-9),
        threads,
    );
    let (precompute, greedy) = work_counters(&task, &space, &options);
    let families: Vec<String> = precompute
        .iter()
        .map(|(family, work)| {
            let pairs = work.lr_pairs + work.ll_pairs;
            let phase = format!("precompute/{}", family.label());
            let rate = match phases.iter().find(|p| p.phase == phase) {
                Some(p) if p.seconds > 0.0 => format!("{:.2} M", pairs as f64 / p.seconds / 1e6),
                _ => "-".to_string(),
            };
            format!(
                "{} {} L-R + {} L-L pairs ({rate} pairs/s)",
                family.label(),
                work.lr_pairs,
                work.ll_pairs
            )
        })
        .collect();
    println!("precompute work: {}", families.join("; "));
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
