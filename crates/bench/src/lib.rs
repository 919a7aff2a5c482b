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
//! Environment knobs of `paper` (an unknown value exits with the accepted
//! ones):
//!
//! * `AUTOFJ_SCALE` — `tiny` | `small` (default) | `full`: row counts of the
//!   generated benchmark.
//! * `AUTOFJ_TASKS` — limit on the number of single-column tasks (default:
//!   all 50).
//! * `AUTOFJ_SPACE` — `24` | `38` | `70` | `140`: configuration space
//!   (default 140).
//! * `AUTOFJ_MC_SCALE` — row-count scale of the multi-column datasets
//!   (default 0.15).
//! * `RAYON_NUM_THREADS` — worker threads of the execution engine; every
//!   report records the count it was measured with.
//!
//! One binary is the CI perf + quality gate: `bench_smoke [section…]`
//! measures the sections of the `BENCH_*.json` trajectory report — the
//! pipeline on the `small`, `medium` and `large` datagen tasks at 1 and 4
//! threads, the snapshot round trip and online server (`serve`), the
//! scenario stress suite (`scenarios`) and the blocking-factor sweep
//! (`fig6d`) — and ends in [`smoke::check`], which fails on drift from the
//! newest committed baseline (timings stay informational;
//! [`smoke::GATE_POLICY`] says which fields).  Under each task it prints
//! the phase profile and work counters of the run's own
//! `autofj_core::trace::Trace`.  It reads none of the knobs above: every
//! gated setting is fixed by the baseline it is diffed against.

pub mod registry;
pub mod report;
pub mod runner;
pub mod smoke;

pub use report::{peak_rss_bytes, write_json, Reporter};
