//! Run-owned tracing of the join pipeline: phase timings and work counters.
//!
//! [`capture`] runs a closure and returns, beside its output, the [`Trace`]
//! of what the pipeline recorded on the calling thread meanwhile:
//!
//! ```
//! use autofj_core::{join_single_column, trace, AutoFjOptions};
//! use autofj_text::JoinFunctionSpace;
//!
//! let left = vec!["2007 LSU Tigers football team".to_string()];
//! let right = vec!["2007 LSU Tigers football".to_string()];
//! let (space, options) = (JoinFunctionSpace::reduced24(), AutoFjOptions::default());
//! let (result, trace) = trace::capture(|| join_single_column(&left, &right, &space, &options));
//! assert_eq!(result.assignment.len(), 1);
//! assert_eq!(trace.phase(trace::Phase::Block).entries, 1);
//! ```
//!
//! The pipeline's stages run inside phase spans, each adding its wall-clock
//! time and one entry to its [`Phase`]; the single-column driver also
//! records its pre-compute's kernel-group evaluations per family and its
//! greedy search's [`GreedyStats`].  A trace records only spans entered
//! **on its capturing thread**: every span of a single-column join wraps an
//! orchestration point on the driving thread, so a captured join is traced
//! whole, while joins on other threads (another single-column join, the
//! per-blend searches of a multi-column join on pool workers) add nothing.
//! Outside a capture a span records nothing, and nothing in the pipeline
//! reads a trace, so tracing never changes a result.  Blocking's counters
//! travel on `BlockingOutput::stats` instead.

use crate::estimate::FamilyWork;
use crate::greedy::GreedyStats;
use autofj_text::KernelFamily;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
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
    /// Pre-compute share spent in the marked-walk set kernels (the set
    /// distances and their containment hybrids).
    PrecomputeSet,
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

/// All phases, in execution order (also the order of a trace's slots).
/// The `precompute/<family>` phases are nested inside `precompute`: one
/// entry per kernel group of the family, so they break the same wall-clock
/// span down by kernel family.
pub const ALL_PHASES: [Phase; 12] = [
    Phase::Prepare,
    Phase::Block,
    Phase::NegativeRules,
    Phase::Precompute,
    Phase::PrecomputeEdit,
    Phase::PrecomputeJaro,
    Phase::PrecomputeSet,
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
            Phase::PrecomputeEmbed => "precompute/embed",
            Phase::GreedyScore => "greedy_round/score",
            Phase::GreedyArgmax => "greedy_round/argmax",
            Phase::ConflictResolve => "conflict_resolve",
            Phase::Assemble => "assemble",
        }
    }

    /// The nested `precompute/<family>` phase of a kernel family.
    pub fn of_family(family: KernelFamily) -> Phase {
        match family {
            KernelFamily::Edit => Phase::PrecomputeEdit,
            KernelFamily::Jaro => Phase::PrecomputeJaro,
            KernelFamily::Set => Phase::PrecomputeSet,
            KernelFamily::Embed => Phase::PrecomputeEmbed,
        }
    }
}

const NUM_PHASES: usize = ALL_PHASES.len();

/// Accumulated time of one phase.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PhaseTiming {
    /// Stable phase name (see [`Phase::name`]).
    pub phase: String,
    /// Total wall-clock seconds accumulated by the phase.
    pub seconds: f64,
    /// Number of times the phase was entered (e.g. greedy rounds).
    pub entries: u64,
}

/// What one captured run recorded: per-phase time and entries, and the
/// work counters of its pre-compute and greedy search.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    nanos: [u64; NUM_PHASES],
    entries: [u64; NUM_PHASES],
    /// Kernel-group evaluations per family of the single-column join's
    /// pre-compute, in order of first group (empty when none ran).
    pub precompute_work: Vec<(KernelFamily, FamilyWork)>,
    /// The single-column join's greedy work (zero when none ran).
    pub greedy: GreedyStats,
}

impl Trace {
    /// The time and entries of one phase.
    pub fn phase(&self, phase: Phase) -> PhaseTiming {
        let slot = phase as usize;
        PhaseTiming {
            phase: phase.name().to_string(),
            seconds: self.nanos[slot] as f64 / 1e9,
            entries: self.entries[slot],
        }
    }

    /// Every phase, in pipeline order; phases never entered read zero, so
    /// report consumers see a stable schema.
    pub fn phases(&self) -> Vec<PhaseTiming> {
        ALL_PHASES.iter().map(|&p| self.phase(p)).collect()
    }
}

thread_local! {
    /// The trace of the innermost open [`capture`] on this thread.
    static ACTIVE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Run `f`, returning its output and the [`Trace`] of everything recorded
/// on this thread while it ran.  Captures nest: an inner capture takes the
/// spans entered inside it, and the outer one resumes afterwards.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    /// Reinstates the enclosing capture's trace on exit, unwinding included.
    struct Reinstate(Option<Trace>);
    impl Drop for Reinstate {
        fn drop(&mut self) {
            let outer = self.0.take();
            let _ = ACTIVE.try_with(|a| a.replace(outer));
        }
    }
    let _outer = Reinstate(ACTIVE.with(|a| a.replace(Some(Trace::default()))));
    let out = f();
    let trace = ACTIVE
        .with(RefCell::take)
        .expect("an open capture keeps its trace installed");
    (out, trace)
}

/// Apply `record` to the open capture of this thread, if any.
pub(crate) fn record(record: impl FnOnce(&mut Trace)) {
    // `try_with`: a guard dropped while the thread tears down its locals
    // records nothing instead of panicking in `Drop`.
    let _ = ACTIVE.try_with(|a| {
        if let Some(trace) = a.borrow_mut().as_mut() {
            record(trace);
        }
    });
}

/// RAII guard returned by [`scoped`]: adds the elapsed time of its phase to
/// the open capture on drop.
pub(crate) struct PhaseGuard {
    phase: Phase,
    /// `None` when no capture was open on this thread at entry.
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let slot = self.phase as usize;
            record(|t| {
                t.nanos[slot] += nanos;
                t.entries[slot] += 1;
            });
        }
    }
}

/// Time the enclosing scope as `phase` (until the returned guard drops).
#[must_use = "the phase is timed until the guard is dropped"]
pub(crate) fn scoped(phase: Phase) -> PhaseGuard {
    let open = ACTIVE.with(|a| a.borrow().is_some());
    PhaseGuard {
        phase,
        start: open.then(Instant::now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidate_stage;
    use crate::estimate::Precompute;
    use crate::greedy::candidate_configs;
    use crate::multi_column::join_multi_column;
    use crate::oracle::{DistanceOracle, SingleColumnOracle};
    use crate::single::join_single_column;
    use crate::table::Table;
    use crate::AutoFjOptions;
    use autofj_text::JoinFunctionSpace;

    fn tables() -> (Vec<String>, Vec<String>) {
        let mut left = Vec::new();
        for year in 2000..2010 {
            for team in ["LSU Tigers", "Wisconsin Badgers", "Oregon Ducks"] {
                left.push(format!("{year} {team} football team"));
            }
        }
        let right = left
            .iter()
            .step_by(2)
            .map(|l| l.replace(" team", ""))
            .collect();
        (left, right)
    }

    fn traced_join(options: &AutoFjOptions) -> Trace {
        let (left, right) = tables();
        let space = JoinFunctionSpace::reduced24();
        capture(|| join_single_column(&left, &right, &space, options)).1
    }

    #[test]
    fn a_captured_join_has_exact_phase_entries() {
        let (left, right) = tables();
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let trace = traced_join(&options);
        for phase in [
            Phase::Prepare,
            Phase::Block,
            Phase::NegativeRules,
            Phase::Precompute,
            Phase::Assemble,
        ] {
            assert_eq!(trace.phase(phase).entries, 1, "{}", phase.name());
        }
        // One family span per kernel group, on any table size.
        let oracle = SingleColumnOracle::build(space.functions(), &left, &right);
        let groups = oracle.eval_groups();
        for family in [
            KernelFamily::Edit,
            KernelFamily::Jaro,
            KernelFamily::Set,
            KernelFamily::Embed,
        ] {
            let of_family = groups.iter().filter(|g| g.family == Some(family)).count();
            let phase = Phase::of_family(family);
            assert_eq!(
                trace.phase(phase).entries,
                of_family as u64,
                "{}",
                phase.name()
            );
        }
        assert!(trace.phase(Phase::PrecomputeSet).entries > 0);
        // Every accepted round selected a distinct candidate configuration
        // and ran one argmax, and so did the one that found nothing more to
        // add.
        let candidates = candidate_stage(oracle.column(), left.len(), &options);
        let pre = Precompute::build(
            &oracle,
            candidates.lr_candidates(),
            &candidates.blocking.left_candidates_of_left,
            options.num_thresholds,
        );
        let rounds = trace.greedy.rounds;
        assert!(rounds > 0 && rounds <= candidate_configs(&pre).len());
        assert_eq!(trace.phase(Phase::GreedyArgmax).entries, rounds as u64 + 1);
        assert_eq!(trace.phase(Phase::ConflictResolve).entries, rounds as u64);
        // The family spans nest inside the precompute span.
        let families: f64 = (ALL_PHASES.iter())
            .filter(|p| p.name().starts_with("precompute/"))
            .map(|&p| trace.phase(p).seconds)
            .sum();
        assert!(families <= trace.phase(Phase::Precompute).seconds);
        // The counters of the run's pre-compute, one family per kernel
        // family in the space.
        let mut families: Vec<KernelFamily> = groups.iter().filter_map(|g| g.family).collect();
        families.dedup();
        let traced: Vec<KernelFamily> = trace.precompute_work.iter().map(|(f, _)| *f).collect();
        assert_eq!(traced.len(), families.len());
        assert!(trace.precompute_work.iter().all(|(_, w)| w.lr_pairs > 0));
    }

    #[test]
    fn phases_have_a_stable_schema_in_pipeline_order() {
        let trace = Trace::default();
        let names: Vec<String> = trace.phases().into_iter().map(|p| p.phase).collect();
        assert_eq!(
            names,
            [
                "prepare",
                "block",
                "negative_rules",
                "precompute",
                "precompute/edit",
                "precompute/jaro",
                "precompute/set",
                "precompute/embed",
                "greedy_round/score",
                "greedy_round/argmax",
                "conflict_resolve",
                "assemble"
            ]
        );
        assert!(trace.phases().iter().all(|p| p.entries == 0));
    }

    #[test]
    fn joins_on_other_threads_leave_a_capture_unchanged() {
        let options = AutoFjOptions::default();
        let alone = traced_join(&options);
        let ((), beside) = capture(|| {
            let (left, right) = tables();
            let space = JoinFunctionSpace::reduced24();
            join_single_column(&left, &right, &space, &options);
            std::thread::spawn(move || {
                let two_columns = |rows: &[String], name: &str| {
                    let years: Vec<String> = rows.iter().map(|r| r[..4].to_string()).collect();
                    Table::from_columns(name, vec![("team", rows.to_vec()), ("year", years)])
                };
                let mc = join_multi_column(
                    &two_columns(&left, "l"),
                    &two_columns(&right, "r"),
                    &space,
                    &options,
                );
                assert_eq!(mc.assignment.len(), right.len());
                join_single_column(&left, &right, &space, &options);
            })
            .join()
            .expect("the other thread's joins finish");
        });
        let entries = |t: &Trace| {
            t.phases()
                .into_iter()
                .map(|p| p.entries)
                .collect::<Vec<_>>()
        };
        assert_eq!(entries(&beside), entries(&alone));
        assert_eq!(beside.precompute_work, alone.precompute_work);
        assert_eq!(beside.greedy, alone.greedy);
    }

    #[test]
    fn captures_nest_and_spans_outside_one_record_nothing() {
        drop(scoped(Phase::Block));
        let ((), outer) = capture(|| {
            drop(scoped(Phase::Block));
            let ((), inner) = capture(|| drop(scoped(Phase::Prepare)));
            assert_eq!(inner.phase(Phase::Prepare).entries, 1);
            assert_eq!(inner.phase(Phase::Block).entries, 0);
            drop(scoped(Phase::Block));
        });
        assert_eq!(outer.phase(Phase::Block).entries, 2);
        assert_eq!(outer.phase(Phase::Prepare).entries, 0);
    }
}
