//! # autofj-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Auto-FuzzyJoin evaluation (§5 of the paper) on the synthetic benchmark of
//! `autofj-datagen`, plus Criterion microbenchmarks of the core building
//! blocks.
//!
//! The evaluation is one registry ([`registry::ENTRIES`], one entry per
//! table or figure) run by the `paper` binary: `paper table2 fig7a` prints
//! each table with the paper's row/column structure and writes a JSON copy
//! under `target/experiments/`; `paper` alone lists the entries.
//!
//! Environment knobs (an unknown value exits with the accepted ones):
//!
//! * `AUTOFJ_SCALE` — `tiny` | `small` (default) | `full`: row counts of the
//!   generated benchmark.  For `bench_smoke` it instead selects the smoke
//!   task: `small`, `medium` or `large`, all three when unset; for
//!   `profile_phases`, `small` (default) or `medium`.
//! * `AUTOFJ_TASKS` — limit on the number of single-column tasks (default:
//!   all 50).
//! * `AUTOFJ_SPACE` — `24` | `38` | `70` | `140`: configuration space (the
//!   registry defaults to 140, the other binaries to 24).
//! * `AUTOFJ_MC_SCALE` — row-count scale of the multi-column datasets
//!   (default 0.15).
//! * `RAYON_NUM_THREADS` — worker threads of the execution engine; every
//!   report records the count it was measured with.
//!
//! Four binaries are the CI perf + quality gates: `bench_smoke` times the
//! pipeline on small, medium and large datagen tasks at 1 and
//! `AUTOFJ_BENCH_THREADS` (default 4) threads, `serve_bench` the snapshot
//! round trip and online server, `robustness_matrix` the scenario stress
//! suite and `paper fig6d` the blocking-factor sweep.  Each fills one
//! section of the `BENCH_*.json` trajectory report and ends in
//! [`smoke::check`], which fails on drift from the newest committed baseline
//! (timings stay informational; [`smoke::GATE_POLICY`] says which fields).

pub mod registry;
pub mod report;
pub mod runner;
pub mod smoke;

pub use report::{peak_rss_bytes, write_json, Reporter};
