//! Lightweight phase-timing harness for the join pipeline.
//!
//! The single-column driver, the candidate stage and the greedy search wrap
//! their stages in [`scoped`] guards; each guard adds its elapsed wall-clock
//! time to a fixed process-global slot for its [`Phase`].  [`snapshot`] then reports the
//! accumulated per-phase seconds (and entry counts), which `bench_smoke`
//! surfaces as the `phases` section of the `BENCH_*.json` trajectory — so
//! the perf record says *where* the time goes, not just the total.
//!
//! Design constraints:
//!
//! * **Near-zero overhead.**  One `Instant::now()` pair and one relaxed
//!   atomic add per phase entry; phases are entered a handful of times per
//!   join (the greedy sub-phases once per round), so the harness costs
//!   microseconds against a multi-second pipeline.
//! * **No effect on results.**  Timing is observational only; nothing in the
//!   pipeline reads it, so enabling or resetting it can never perturb the
//!   byte-determinism contract.
//! * **Process-global.**  Accumulators are atomics, so phases entered from
//!   pool workers (none today — phases wrap the *orchestration* points, which
//!   run on the driving thread) would still aggregate safely.
//!
//! Callers that want a per-run breakdown (`bench_smoke`) call [`reset`]
//! before the run and [`snapshot`] after.
//!
//! Only wall-clock phase time lives here.  Blocking's candidate-set
//! counters belong to the run that blocked: they travel on
//! `BlockingOutput::stats`, which a single-column join hands back as
//! `PipelineArtifacts::blocking`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The named stages of the single-column pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Record preparation: pre-processing, interning, embeddings
    /// (`PreparedColumn::build` via the oracle).
    Prepare,
    /// Blocking over the interned q-gram index (L–L and L–R).
    Block,
    /// Negative-rule learning and candidate filtering (Algorithm 2).
    NegativeRules,
    /// Distance + precision pre-computation (Algorithm 1, lines 3–4).
    Precompute,
    /// Pre-compute share spent in the bit-parallel / banded edit kernels.
    PrecomputeEdit,
    /// Pre-compute share spent in the Jaro-Winkler kernels.
    PrecomputeJaro,
    /// Pre-compute share spent in the merge-walk set kernels.
    PrecomputeSet,
    /// Pre-compute share spent in the containment-hybrid kernels.
    PrecomputeHybrid,
    /// Pre-compute share spent in the embedding-distance kernels.
    PrecomputeEmbed,
    /// Greedy search: building every candidate's round-1 histogram, then,
    /// after each round, updating the histograms of the alive candidates
    /// that cover a changed record.
    GreedyScore,
    /// Greedy rounds: profit argmax over the scored frontier.
    GreedyArgmax,
    /// Greedy rounds: applying the selected configuration, resolving
    /// conflicting assignments (§3.1).
    ConflictResolve,
    /// Assembling the user-facing `JoinResult`.
    Assemble,
}

/// All phases, in execution order (also the slot order of the accumulators).
/// The `precompute/<family>` phases are nested inside `precompute`: they
/// break the same wall-clock span down by kernel family (the breakdown only
/// accumulates on the sequential large-table path, where it is well-defined).
pub const ALL_PHASES: [Phase; 13] = [
    Phase::Prepare,
    Phase::Block,
    Phase::NegativeRules,
    Phase::Precompute,
    Phase::PrecomputeEdit,
    Phase::PrecomputeJaro,
    Phase::PrecomputeSet,
    Phase::PrecomputeHybrid,
    Phase::PrecomputeEmbed,
    Phase::GreedyScore,
    Phase::GreedyArgmax,
    Phase::ConflictResolve,
    Phase::Assemble,
];

impl Phase {
    /// Stable snake-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Block => "block",
            Phase::NegativeRules => "negative_rules",
            Phase::Precompute => "precompute",
            Phase::PrecomputeEdit => "precompute/edit",
            Phase::PrecomputeJaro => "precompute/jaro",
            Phase::PrecomputeSet => "precompute/set",
            Phase::PrecomputeHybrid => "precompute/hybrid",
            Phase::PrecomputeEmbed => "precompute/embed",
            Phase::GreedyScore => "greedy_round/score",
            Phase::GreedyArgmax => "greedy_round/argmax",
            Phase::ConflictResolve => "conflict_resolve",
            Phase::Assemble => "assemble",
        }
    }

    fn slot(&self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::Block => 1,
            Phase::NegativeRules => 2,
            Phase::Precompute => 3,
            Phase::PrecomputeEdit => 4,
            Phase::PrecomputeJaro => 5,
            Phase::PrecomputeSet => 6,
            Phase::PrecomputeHybrid => 7,
            Phase::PrecomputeEmbed => 8,
            Phase::GreedyScore => 9,
            Phase::GreedyArgmax => 10,
            Phase::ConflictResolve => 11,
            Phase::Assemble => 12,
        }
    }
}

const NUM_PHASES: usize = ALL_PHASES.len();

static NANOS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static ENTRIES: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

/// RAII guard returned by [`scoped`]: accumulates the elapsed time of its
/// phase on drop.
pub struct PhaseGuard {
    slot: usize,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        NANOS[self.slot].fetch_add(nanos, Ordering::Relaxed);
        ENTRIES[self.slot].fetch_add(1, Ordering::Relaxed);
    }
}

/// Time the enclosing scope as `phase` (until the returned guard drops).
#[must_use = "the phase is timed until the guard is dropped"]
pub fn scoped(phase: Phase) -> PhaseGuard {
    PhaseGuard {
        slot: phase.slot(),
        start: Instant::now(),
    }
}

/// Zero every accumulator (start of a measured run).
pub fn reset() {
    for slot in 0..NUM_PHASES {
        NANOS[slot].store(0, Ordering::Relaxed);
        ENTRIES[slot].store(0, Ordering::Relaxed);
    }
}

/// Accumulated time of one phase, as reported by [`snapshot`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PhaseTiming {
    /// Stable phase name (see [`Phase::name`]).
    pub phase: String,
    /// Total wall-clock seconds accumulated by the phase.
    pub seconds: f64,
    /// Number of times the phase was entered (e.g. greedy rounds).
    pub entries: u64,
}

/// Read the accumulated per-phase timings, in pipeline order.  Phases that
/// were never entered are included with zero time so report consumers see a
/// stable schema.
pub fn snapshot() -> Vec<PhaseTiming> {
    ALL_PHASES
        .iter()
        .map(|p| PhaseTiming {
            phase: p.name().to_string(),
            seconds: NANOS[p.slot()].load(Ordering::Relaxed) as f64 / 1e9,
            entries: ENTRIES[p.slot()].load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The accumulators are process-global and libtest runs tests in
    // parallel, so these tests only assert *relative* effects of their own
    // guards (other tests of this crate do enter phases concurrently).

    #[test]
    fn scoped_guard_accumulates_time_and_entries() {
        let before: Vec<_> = snapshot();
        {
            let _g = scoped(Phase::Precompute);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let after = snapshot();
        let slot = Phase::Precompute.slot();
        assert!(after[slot].seconds >= before[slot].seconds + 0.001);
        assert!(after[slot].entries > before[slot].entries);
    }

    #[test]
    fn snapshot_has_stable_schema_in_pipeline_order() {
        let snap = snapshot();
        assert_eq!(snap.len(), ALL_PHASES.len());
        let names: Vec<&str> = snap.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "prepare",
                "block",
                "negative_rules",
                "precompute",
                "precompute/edit",
                "precompute/jaro",
                "precompute/set",
                "precompute/hybrid",
                "precompute/embed",
                "greedy_round/score",
                "greedy_round/argmax",
                "conflict_resolve",
                "assemble"
            ]
        );
    }

    #[test]
    fn phase_slots_are_distinct_and_dense() {
        let mut seen = std::collections::HashSet::new();
        for p in ALL_PHASES {
            assert!(seen.insert(p.slot()));
        }
        assert_eq!(seen.len(), ALL_PHASES.len());
    }
}
