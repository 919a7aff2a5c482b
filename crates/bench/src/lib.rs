//! # autofj-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Auto-FuzzyJoin evaluation (§5 of the paper) on the synthetic benchmark of
//! `autofj-datagen`, plus Criterion microbenchmarks of the core building
//! blocks.
//!
//! Each binary under `src/bin/` corresponds to one table or figure (see
//! `EXPERIMENTS.md` at the workspace root for the index).  Binaries print a
//! human-readable table with the same row/column structure as the paper and
//! write a JSON copy under `target/experiments/`.
//!
//! Environment knobs shared by all binaries:
//!
//! * `AUTOFJ_SCALE` — `tiny` | `small` (default) | `full`: row counts of the
//!   generated benchmark (for `bench_smoke` it instead selects the smoke
//!   task set: `small`, `medium`, or both when unset).
//! * `AUTOFJ_TASKS` — limit on the number of single-column tasks (default:
//!   all 50).
//! * `AUTOFJ_SPACE` — `24` | `38` | `70` | `140` (default 140): configuration
//!   space used by AutoFJ.
//! * `RAYON_NUM_THREADS` — worker threads of the execution engine; every
//!   score row records the count it was measured with (`threads` field).
//!
//! Four binaries are the CI perf + quality gates: `bench_smoke` times the
//! pipeline on small, medium and large datagen tasks at 1 and
//! `AUTOFJ_BENCH_THREADS` (default 4) threads, `serve_bench` the snapshot
//! round trip and online server, `robustness_matrix` the scenario stress
//! suite and `fig6d_blocking` the blocking-factor sweep.  Each fills one
//! section of the `BENCH_*.json` trajectory report and ends in
//! [`smoke::smoke`], which fails on drift from the newest committed baseline
//! (timings stay informational; [`smoke::GATE_POLICY`] says which fields).

pub mod report;
pub mod runner;
pub mod smoke;

pub use report::{peak_rss_bytes, write_json, Reporter};
pub use runner::{
    autofj_options, env_scale, env_space, env_task_limit, expect_multi, expect_single, sweep_setup,
    MethodScores, SweepSetup, TaskOutcome,
};
