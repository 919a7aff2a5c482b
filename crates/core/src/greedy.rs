//! The greedy union-of-configurations search (Algorithm 1 of the paper).
//!
//! Starting from an empty solution `U`, the search repeatedly adds the
//! candidate configuration `C = ⟨f, θ⟩` that maximizes
//! `profit(U ∪ {C}) = TP(U ∪ {C}) / FP(U ∪ {C})` — i.e. the most expected
//! true positives per expected false positive — and stops as soon as the
//! estimated precision of the grown solution would drop below the target
//! `τ`, or no candidate adds new joins.
//!
//! Conflicts (a right record joined to different left records by different
//! configurations) are resolved by keeping the assignment with the higher
//! per-pair precision estimate, as described at the end of §3.1.
//!
//! # Incremental re-scoring
//!
//! A naive implementation recomputes `profit(U ∪ {C})` for **every**
//! candidate in **every** round, walking each candidate's full coverage.
//! This search instead caches every candidate's TP/FP delta and, after a
//! round assigns (or re-assigns) a set of right records, re-scores only the
//! candidates whose coverage can intersect those records: candidate
//! `⟨f, θ⟩` covers right `r` iff `d_f(r) ≤ θ`, so it needs re-scoring iff
//! `θ ≥ min over changed r of d_f(r)`.  Cached deltas of untouched
//! candidates are *bit-identical* to a recompute (the incremental-estimate
//! invariant, see `crate::estimate`), which
//! [`run_greedy_reference`] — the retained recompute-from-scratch
//! implementation — pins in the cross-implementation equivalence tests.
//!
//! Note that a candidate's delta is **not monotone** across rounds: a
//! right record re-assigned to a *different* left by a conflict resolution
//! can resurrect a positive TP contribution for a candidate that agreed
//! with the old left.  Candidates are therefore never dropped from the
//! frontier while unselected, only skipped while their cached `tp ≤ 0`.

use crate::estimate::Precompute;
use crate::options::{AutoFjOptions, BallMode};
use crate::timing::{self, Phase};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A candidate configuration identified by its position in the pre-compute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// Index of the join function in the search space.
    pub function: usize,
    /// Distance threshold θ.
    pub threshold: f32,
    /// Index of θ within the function's threshold list (keys the
    /// pre-computed ball-count table).
    pub threshold_idx: usize,
}

/// The assignment of one right record after the greedy search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assigned {
    /// Matched left record.
    pub left: u32,
    /// Distance under the configuration that produced the join.
    pub distance: f32,
    /// Per-pair precision estimate.
    pub precision: f64,
    /// Ordinal of the configuration (within the selected union) that produced
    /// the join.
    pub config_ordinal: usize,
}

/// The outcome of the greedy search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GreedyOutcome {
    /// The selected union of configurations, in selection order.
    pub selected: Vec<CandidateConfig>,
    /// Final assignment of every right record.
    pub assignment: Vec<Option<Assigned>>,
    /// Expected number of true positives (estimated recall, Eq. 13).
    pub tp: f64,
    /// Expected number of false positives.
    pub fp: f64,
    /// Estimated precision of the solution after each accepted iteration.
    pub precision_trace: Vec<f64>,
}

impl GreedyOutcome {
    /// Estimated precision of the final solution (1.0 when nothing joined).
    pub fn estimated_precision(&self) -> f64 {
        if self.tp + self.fp <= 0.0 {
            1.0
        } else {
            self.tp / (self.tp + self.fp)
        }
    }

    /// Estimated recall (expected number of true positives).
    pub fn estimated_recall(&self) -> f64 {
        self.tp
    }
}

/// What offering a join to one right record changes under the §3.1
/// conflict rule; see [`offer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// The record keeps its assignment: it already joins the offered left
    /// record, or its current join is at least as confident.
    Keep,
    /// The record had no join and takes the offered one.
    Join,
    /// The offered join replaces a less confident join of another left
    /// record, whose precision is given.
    Replace(f64),
}

/// The §3.1 conflict rule: offer the join to left record `left` with
/// per-pair precision `precision` to a right record currently holding
/// `current`.  A conflicting offer wins only when it is strictly more
/// confident, so on equal precision the earlier configuration keeps the
/// record.  The greedy search's scoring and apply steps and the snapshot
/// store's query fold all decide here.
#[inline]
pub fn offer(current: Option<&Assigned>, left: u32, precision: f64) -> Offer {
    match current {
        None => Offer::Join,
        Some(a) if a.left != left && precision > a.precision => Offer::Replace(a.precision),
        Some(_) => Offer::Keep,
    }
}

/// The change a candidate would make to the current solution.
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    tp: f64,
    fp: f64,
    new_joins: usize,
}

impl Delta {
    /// Account for one offer of a pair with precision `p`.
    #[inline]
    fn add(&mut self, offer: Offer, p: f64) {
        match offer {
            Offer::Keep => {}
            Offer::Join => {
                self.tp += p;
                self.fp += 1.0 - p;
                self.new_joins += 1;
            }
            Offer::Replace(old) => {
                self.tp += p - old;
                self.fp += old - p;
            }
        }
    }
}

/// Per-pair precision of the right record at `rank` under `cand`: the O(1)
/// ball-count table for the default config-θ ball, the binary-search path
/// for the pair-distance ball (whose cutoff varies per rank).  Both compute
/// the same bits for ConfigTheta (see `FunctionStats::precision_at_threshold_idx`).
#[inline]
fn pair_precision(
    stats: &crate::estimate::FunctionStats,
    rank: usize,
    cand: CandidateConfig,
    ball_mode: BallMode,
) -> f64 {
    match ball_mode {
        BallMode::ConfigTheta => stats.precision_at_threshold_idx(rank, cand.threshold_idx),
        BallMode::PairDistance => stats.precision_at_rank(rank, cand.threshold, ball_mode),
    }
}

/// Evaluate the delta of adding candidate `cand` to the current assignment.
fn evaluate_candidate(
    pre: &Precompute,
    assignment: &[Option<Assigned>],
    cand: CandidateConfig,
    ball_mode: BallMode,
) -> Delta {
    let stats = &pre.functions[cand.function];
    let joined = stats.joined_count(cand.threshold);
    let mut delta = Delta::default();
    for rank in 0..joined {
        let (r, _) = stats.sorted_rights[rank];
        let l = stats.lefts[rank];
        let p = pair_precision(stats, rank, cand, ball_mode);
        delta.add(offer(assignment[r as usize].as_ref(), l, p), p);
    }
    delta
}

/// Fixed rank-block size for the parallel conflict-resolving apply.  The
/// block size is a constant — never derived from the thread count — so the
/// per-block floating-point folds and their merge order are identical at any
/// thread count, keeping every bit of TP/FP deterministic.
const APPLY_BLOCK: usize = 4096;

/// Apply candidate `cand` to the assignment, mutating it in place.
///
/// Returns the applied delta and the right records whose assignment changed
/// (newly joined or re-assigned by conflict resolution).  Each right record
/// appears at most once in `sorted_rights` (one nearest neighbour per
/// right), so per-rank decisions only read that record's own slot and never
/// conflict: blocks of ranks are decided in parallel against a frozen
/// snapshot and the updates written back sequentially in block order.
fn apply_candidate(
    pre: &Precompute,
    assignment: &mut [Option<Assigned>],
    cand: CandidateConfig,
    config_ordinal: usize,
    ball_mode: BallMode,
) -> (Delta, Vec<u32>) {
    let stats = &pre.functions[cand.function];
    let joined = stats.joined_count(cand.threshold);
    let snapshot: &[Option<Assigned>] = assignment;
    let blocks: Vec<(usize, usize)> = (0..joined)
        .step_by(APPLY_BLOCK)
        .map(|start| (start, (start + APPLY_BLOCK).min(joined)))
        .collect();
    let per_block: Vec<(Delta, Vec<(u32, Assigned)>)> = blocks
        .par_iter()
        .map(|&(start, end)| {
            let mut delta = Delta::default();
            let mut updates = Vec::new();
            for rank in start..end {
                let (r, d) = stats.sorted_rights[rank];
                let l = stats.lefts[rank];
                let p = pair_precision(stats, rank, cand, ball_mode);
                let o = offer(snapshot[r as usize].as_ref(), l, p);
                delta.add(o, p);
                if o != Offer::Keep {
                    updates.push((
                        r,
                        Assigned {
                            left: l,
                            distance: d,
                            precision: p,
                            config_ordinal,
                        },
                    ));
                }
            }
            (delta, updates)
        })
        .collect();
    let mut total = Delta::default();
    let mut changed = Vec::new();
    for (delta, updates) in per_block {
        total.tp += delta.tp;
        total.fp += delta.fp;
        total.new_joins += delta.new_joins;
        for (r, a) in updates {
            assignment[r as usize] = Some(a);
            changed.push(r);
        }
    }
    (total, changed)
}

/// For each function, the minimum nearest-neighbour distance among the
/// `changed` right records — the smallest threshold whose coverage can
/// intersect them.  `None` when no changed record has a neighbour under the
/// function (its candidates never need re-scoring for this round).
fn min_changed_distance_per_function(pre: &Precompute, changed: &[u32]) -> Vec<Option<f32>> {
    pre.functions
        .par_iter()
        .map(|stats| {
            let mut min: Option<f32> = None;
            for &r in changed {
                if let Some((_, d)) = stats.nearest[r as usize] {
                    if min.is_none_or(|m| d < m) {
                        min = Some(d);
                    }
                }
            }
            min
        })
        .collect()
}

/// Enumerate every candidate configuration of a pre-compute.
pub fn candidate_configs(pre: &Precompute) -> Vec<CandidateConfig> {
    let mut out = Vec::with_capacity(pre.num_candidate_configs());
    for (f, stats) in pre.functions.iter().enumerate() {
        for (ti, &t) in stats.thresholds.iter().enumerate() {
            out.push(CandidateConfig {
                function: f,
                threshold: t,
                threshold_idx: ti,
            });
        }
    }
    out
}

/// Run Algorithm 1 over a pre-compute, with incremental candidate
/// re-scoring (see the module docs).
pub fn run_greedy(pre: &Precompute, options: &AutoFjOptions) -> GreedyOutcome {
    if !options.union_of_configurations {
        return run_single_best(pre, options);
    }
    run_union_greedy(pre, options, true)
}

/// Recompute-from-scratch reference implementation of [`run_greedy`]: every
/// round re-scores every unselected candidate against the full assignment.
/// Retained so the equivalence tests can pin the incremental path — both
/// must produce byte-identical [`GreedyOutcome`]s on any input, at any
/// thread count.
pub fn run_greedy_reference(pre: &Precompute, options: &AutoFjOptions) -> GreedyOutcome {
    if !options.union_of_configurations {
        return run_single_best(pre, options);
    }
    run_union_greedy(pre, options, false)
}

fn run_union_greedy(pre: &Precompute, options: &AutoFjOptions, incremental: bool) -> GreedyOutcome {
    let tau = options.precision_target;
    let ball = options.ball_mode;
    let candidates = candidate_configs(pre);
    let mut deltas: Vec<Delta> = vec![Delta::default(); candidates.len()];
    // `alive[ci]` = not yet selected.  Selected candidates are excluded by a
    // stable mark (never a swap-remove) so candidate order — and with it the
    // first-wins tie-breaking of the argmax — is the same in both
    // implementations and at every thread count.
    let mut alive: Vec<bool> = vec![true; candidates.len()];
    let mut assignment: Vec<Option<Assigned>> = vec![None; pre.num_right()];
    let mut selected = Vec::new();
    let mut precision_trace = Vec::new();
    let mut tp = 0.0f64;
    let mut fp = 0.0f64;
    // Right records (re-)assigned by the previous round; `None` marks the
    // first round, where every candidate needs scoring.
    let mut changed: Option<Vec<u32>> = None;

    for _iter in 0..options.max_iterations {
        // Lines 7–10, part 1: (re-)score candidates in one parallel pass.
        // The incremental path only touches candidates whose coverage can
        // intersect the records the previous round assigned; every other
        // cached delta is bit-identical to a recompute (the
        // incremental-estimate invariant, see `crate::estimate`).
        {
            let _t = timing::scoped(Phase::GreedyScore);
            let stale: Vec<usize> = match &changed {
                Some(ch) if incremental => {
                    let dmin = min_changed_distance_per_function(pre, ch);
                    (0..candidates.len())
                        .filter(|&ci| {
                            alive[ci]
                                && dmin[candidates[ci].function]
                                    .is_some_and(|m| candidates[ci].threshold >= m)
                        })
                        .collect()
                }
                _ => (0..candidates.len()).filter(|&ci| alive[ci]).collect(),
            };
            let assignment_ref = &assignment;
            let candidates_ref = &candidates;
            let fresh: Vec<Delta> = stale
                .par_iter()
                .with_min_len(4)
                .map(|&ci| evaluate_candidate(pre, assignment_ref, candidates_ref[ci], ball))
                .collect();
            for (&ci, d) in stale.iter().zip(fresh) {
                deltas[ci] = d;
            }
        }

        // Part 2: argmax over the cached deltas.  The reduce keeps the
        // *earlier* candidate on equal profit (chunks are folded in input
        // order), preserving the exact first-wins tie-breaking of a
        // sequential scan at any thread count.
        let best: Option<(usize, Delta, f64)> = {
            let _t = timing::scoped(Phase::GreedyArgmax);
            let deltas_ref = &deltas;
            let alive_ref = &alive;
            (0..candidates.len())
                .into_par_iter()
                .with_min_len(64)
                .map(|ci| {
                    if !alive_ref[ci] {
                        return None;
                    }
                    let delta = deltas_ref[ci];
                    if delta.tp <= 0.0 {
                        return None;
                    }
                    let profit = (tp + delta.tp) / (fp + delta.fp).max(1e-9);
                    Some((ci, delta, profit))
                })
                .reduce(
                    || None,
                    |a, b| match (a, b) {
                        (None, b) => b,
                        (a, None) => a,
                        (Some(x), Some(y)) => {
                            if y.2 > x.2 {
                                Some(y)
                            } else {
                                Some(x)
                            }
                        }
                    },
                )
        };
        let Some((best_idx, delta, _)) = best else {
            // No candidate adds any new expected true positive.
            break;
        };
        // Line 11: check the precision of the grown solution.  This uses the
        // same `tp + fp <= 0 ⇒ precision = 1` convention as
        // `GreedyOutcome::estimated_precision`: a candidate only reaches here
        // with `delta.tp > 0`, so `new_tp + new_fp > 0` and the quotient is
        // well-defined — a zero-join round can neither loop forever nor be
        // accepted on a phantom 1.0 precision (it breaks out above instead).
        let new_tp = tp + delta.tp;
        let new_fp = fp + delta.fp;
        let new_precision = new_tp / (new_tp + new_fp).max(1e-12);
        if new_precision <= tau {
            // Growing the solution (or, when nothing is selected yet, even
            // the most profitable single configuration) cannot meet the
            // target; stop with what we have — possibly the empty
            // (join-nothing) program, which trivially satisfies it.
            break;
        }
        let _t = timing::scoped(Phase::ConflictResolve);
        alive[best_idx] = false;
        let cand = candidates[best_idx];
        let (applied, ch) = apply_candidate(pre, &mut assignment, cand, selected.len(), ball);
        tp += applied.tp;
        fp += applied.fp;
        selected.push(cand);
        precision_trace.push(tp / (tp + fp).max(1e-12));
        changed = Some(ch);
    }

    GreedyOutcome {
        selected,
        assignment,
        tp,
        fp,
        precision_trace,
    }
}

/// The `AutoFJ-UC` ablation: pick the single configuration with the highest
/// estimated recall among those meeting the precision target.
fn run_single_best(pre: &Precompute, options: &AutoFjOptions) -> GreedyOutcome {
    let tau = options.precision_target;
    let ball = options.ball_mode;
    let empty: Vec<Option<Assigned>> = vec![None; pre.num_right()];
    let candidates = candidate_configs(pre);
    let empty_ref = &empty;
    // Fused evaluate + argmax, first-wins on equal recall (see `run_greedy`).
    let best: Option<(CandidateConfig, Delta)> = candidates
        .par_iter()
        .with_min_len(16)
        .map(|&cand| {
            let delta = evaluate_candidate(pre, empty_ref, cand, ball);
            if delta.tp <= 0.0 {
                return None;
            }
            let precision = delta.tp / (delta.tp + delta.fp).max(1e-12);
            if precision <= tau {
                return None;
            }
            Some((cand, delta))
        })
        .reduce(
            || None,
            |a, b| match (a, b) {
                (None, b) => b,
                (a, None) => a,
                (Some(x), Some(y)) => {
                    if y.1.tp > x.1.tp {
                        Some(y)
                    } else {
                        Some(x)
                    }
                }
            },
        );
    let mut assignment = vec![None; pre.num_right()];
    let mut selected = Vec::new();
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut precision_trace = Vec::new();
    if let Some((cand, _)) = best {
        let (applied, _changed) = apply_candidate(pre, &mut assignment, cand, 0, ball);
        tp = applied.tp;
        fp = applied.fp;
        selected.push(cand);
        precision_trace.push(tp / (tp + fp).max(1e-12));
    }
    GreedyOutcome {
        selected,
        assignment,
        tp,
        fp,
        precision_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SingleColumnOracle;
    use autofj_text::{
        DistanceFunction, JoinFunction, Preprocessing, TokenWeighting, Tokenization,
    };

    fn space() -> Vec<JoinFunction> {
        vec![
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Space,
                TokenWeighting::Equal,
                DistanceFunction::Jaccard,
            ),
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Space,
                TokenWeighting::Equal,
                DistanceFunction::ContainJaccard,
            ),
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::Edit),
        ]
    }

    fn grid_left() -> Vec<String> {
        let years = ["2004", "2005", "2006", "2007", "2008"];
        let teams = [
            "lsu tigers",
            "wisconsin badgers",
            "alabama crimson tide",
            "oregon ducks",
        ];
        let mut v = Vec::new();
        for y in years {
            for t in teams {
                v.push(format!("{y} {t} football team"));
            }
        }
        v
    }

    fn all_candidates(n_left: usize, n_right: usize) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let lr = (0..n_right).map(|_| (0..n_left).collect()).collect();
        let ll = (0..n_left)
            .map(|i| (0..n_left).filter(|&j| j != i).collect())
            .collect();
        (lr, ll)
    }

    fn build_pre(left: &[String], right: &[String]) -> Precompute {
        let oracle = SingleColumnOracle::build(&space(), left, right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        Precompute::build(&oracle, &lr, &ll, 25)
    }

    #[test]
    fn greedy_joins_close_variants_and_meets_precision_target() {
        let left = grid_left();
        // Small perturbations of existing records: extra token or a typo.
        let right: Vec<String> = vec![
            "2005 lsu tigers football team (ncaa)".to_string(),
            "the 2006 wisconsin badgers football team".to_string(),
            "2007 oregon ducks football".to_string(),
            "completely unrelated thing".to_string(),
        ];
        let pre = build_pre(&left, &right);
        let options = AutoFjOptions::default();
        let out = run_greedy(&pre, &options);
        assert!(!out.selected.is_empty());
        assert!(out.estimated_precision() > options.precision_target);
        // The three perturbed records should be joined to their counterparts.
        assert_eq!(out.assignment[0].map(|a| a.left), Some(4));
        assert_eq!(out.assignment[1].map(|a| a.left), Some(9));
        assert_eq!(out.assignment[2].map(|a| a.left), Some(15));
    }

    #[test]
    fn higher_target_joins_fewer_records() {
        let left = grid_left();
        let right: Vec<String> = left
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i % 2 == 0 {
                    format!("{s} extra")
                } else {
                    // Ambiguous: remove the team so that several records are
                    // plausible counterparts.
                    s.split_whitespace().take(1).collect::<Vec<_>>().join(" ") + " football team"
                }
            })
            .collect();
        let pre = build_pre(&left, &right);
        let strict = run_greedy(
            &pre,
            &AutoFjOptions {
                precision_target: 0.95,
                ..Default::default()
            },
        );
        let loose = run_greedy(
            &pre,
            &AutoFjOptions {
                precision_target: 0.5,
                ..Default::default()
            },
        );
        assert!(loose.estimated_recall() >= strict.estimated_recall());
    }

    #[test]
    fn single_best_mode_selects_at_most_one_config() {
        let left = grid_left();
        let right: Vec<String> = left.iter().map(|s| format!("{s} x")).collect();
        let pre = build_pre(&left, &right);
        let out = run_greedy(
            &pre,
            &AutoFjOptions {
                union_of_configurations: false,
                ..Default::default()
            },
        );
        assert!(out.selected.len() <= 1);
        assert!(out.estimated_precision() > 0.9 || out.selected.is_empty());
    }

    #[test]
    fn union_recall_is_at_least_single_config_recall() {
        let left = grid_left();
        // Mix of variation types so that no single configuration covers all.
        let right: Vec<String> = vec![
            "2004 lsu tigers football team usa".to_string(),
            "2005 wisconsin badgers football teem".to_string(),
            "2006 alabama crimson tide futbal team".to_string(),
            "2007 oregon ducks football division".to_string(),
            "2008 lsu tigres football team".to_string(),
        ];
        let pre = build_pre(&left, &right);
        let union = run_greedy(&pre, &AutoFjOptions::default());
        let single = run_greedy(
            &pre,
            &AutoFjOptions {
                union_of_configurations: false,
                ..Default::default()
            },
        );
        assert!(union.estimated_recall() >= single.estimated_recall());
    }

    #[test]
    fn empty_precompute_yields_empty_outcome() {
        let left = grid_left();
        let right: Vec<String> = vec![];
        let pre = build_pre(&left, &right);
        let out = run_greedy(&pre, &AutoFjOptions::default());
        assert!(out.selected.is_empty());
        assert_eq!(out.estimated_precision(), 1.0);
        assert_eq!(out.estimated_recall(), 0.0);
    }

    #[test]
    fn precision_trace_has_one_entry_per_selected_config() {
        let left = grid_left();
        let right: Vec<String> = left.iter().map(|s| format!("{s} more")).collect();
        let pre = build_pre(&left, &right);
        let out = run_greedy(&pre, &AutoFjOptions::default());
        assert_eq!(out.precision_trace.len(), out.selected.len());
    }

    /// Assert two outcomes are byte-identical (floats compared by bits).
    fn assert_bit_identical(a: &GreedyOutcome, b: &GreedyOutcome) {
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.assignment.len(), b.assignment.len());
        for (r, (x, y)) in a.assignment.iter().zip(&b.assignment).enumerate() {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.left, y.left, "right {r}: left differs");
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                    assert_eq!(x.precision.to_bits(), y.precision.to_bits());
                    assert_eq!(x.config_ordinal, y.config_ordinal);
                }
                _ => panic!("right {r}: joined in one outcome but not the other"),
            }
        }
        assert_eq!(a.tp.to_bits(), b.tp.to_bits());
        assert_eq!(a.fp.to_bits(), b.fp.to_bits());
        let ta: Vec<u64> = a.precision_trace.iter().map(|p| p.to_bits()).collect();
        let tb: Vec<u64> = b.precision_trace.iter().map(|p| p.to_bits()).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn incremental_and_reference_outcomes_are_bit_identical() {
        let left = grid_left();
        let rights: [Vec<String>; 3] = [
            // Overlapping near-duplicates: several configurations cover the
            // same records, so conflict resolution and re-scoring both fire.
            left.iter().map(|s| format!("{s} x")).collect(),
            vec![
                "2004 lsu tigers football team usa".to_string(),
                "2005 wisconsin badgers football teem".to_string(),
                "2006 alabama crimson tide futbal team".to_string(),
                "2007 oregon ducks football division".to_string(),
                "2008 lsu tigres football team".to_string(),
            ],
            vec!["quantum chromodynamics lattice".to_string()],
        ];
        for right in &rights {
            let pre = build_pre(&left, right);
            for tau in [0.5, 0.9, 0.95] {
                let options = AutoFjOptions {
                    precision_target: tau,
                    ..Default::default()
                };
                let inc = run_greedy(&pre, &options);
                let refr = run_greedy_reference(&pre, &options);
                assert_bit_identical(&inc, &refr);
            }
        }
    }

    /// Hand-crafted stats: one function, `joins` = (right, nearest-left,
    /// distance) triples, thresholds at the given cut points.  Empty L–L
    /// neighbourhoods, so every per-pair precision is 1.0 unless
    /// `ball_neighbours` puts distances into a left record's neighbourhood.
    fn crafted_stats(
        num_right: usize,
        num_left: usize,
        joins: &[(u32, u32, f32)],
        thresholds: Vec<f32>,
        ball_neighbours: &[(u32, Vec<f32>)],
    ) -> crate::estimate::FunctionStats {
        let mut nearest = vec![None; num_right];
        for &(r, l, d) in joins {
            nearest[r as usize] = Some((l, d));
        }
        let mut sorted_rights: Vec<(u32, f32)> = joins.iter().map(|&(r, _, d)| (r, d)).collect();
        sorted_rights.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut ll_sorted = vec![Vec::new(); num_left];
        for (l, v) in ball_neighbours {
            ll_sorted[*l as usize] = v.clone();
        }
        crate::estimate::FunctionStats::from_raw(nearest, sorted_rights, ll_sorted, thresholds)
    }

    #[test]
    fn overlapping_candidates_marginal_profit_shrinks_after_selection() {
        // Candidate A (function 0) covers rights {0, 1}; candidate B
        // (function 1) covers rights {1, 2}, agreeing with A on right 1's
        // left record.  Once A is selected, right 1 no longer contributes to
        // B's marginal delta — a stale cached score for B would keep claiming
        // tp = 2 and over-select it.
        let f_a = crafted_stats(3, 6, &[(0, 0, 0.1), (1, 0, 0.2)], vec![0.2], &[]);
        let f_b = crafted_stats(3, 6, &[(1, 0, 0.15), (2, 5, 0.1)], vec![0.15], &[]);
        let pre = Precompute::from_parts(vec![f_a, f_b], 3);
        let ball = BallMode::ConfigTheta;
        let a = CandidateConfig {
            function: 0,
            threshold: 0.2,
            threshold_idx: 0,
        };
        let b = CandidateConfig {
            function: 1,
            threshold: 0.15,
            threshold_idx: 0,
        };

        let mut assignment: Vec<Option<Assigned>> = vec![None; 3];
        let before = evaluate_candidate(&pre, &assignment, b, ball);
        assert_eq!(before.tp, 2.0, "B initially covers two unassigned rights");
        apply_candidate(&pre, &mut assignment, a, 0, ball);
        let after = evaluate_candidate(&pre, &assignment, b, ball);
        assert!(
            after.tp < before.tp,
            "B's marginal tp must shrink once A claims right 1 ({} !< {})",
            after.tp,
            before.tp
        );
        assert_eq!(after.tp, 1.0, "only right 2 still contributes");

        // The full searches agree on the final program (and with each other).
        let options = AutoFjOptions::default();
        let inc = run_greedy(&pre, &options);
        let refr = run_greedy_reference(&pre, &options);
        assert_bit_identical(&inc, &refr);
        assert_eq!(inc.selected.len(), 2);
        assert_eq!(inc.tp, 3.0, "right 1 counted once, not twice");
    }

    #[test]
    fn zero_join_round_stops_without_phantom_precision() {
        // A candidate threshold exists but covers no right record: its delta
        // is tp = fp = 0.  The stop condition must treat this like
        // `GreedyOutcome::estimated_precision` treats `tp + fp <= 0` — the
        // round is simply never accepted (no divide-by-zero "precision 1.0"
        // that would pass any target), and the search terminates immediately
        // instead of looping on a candidate that changes nothing.
        let stats = crafted_stats(4, 2, &[], vec![0.5], &[]);
        let pre = Precompute::from_parts(vec![stats], 4);
        let options = AutoFjOptions {
            max_iterations: 10_000,
            ..Default::default()
        };
        let out = run_greedy(&pre, &options);
        assert!(out.selected.is_empty());
        assert_eq!(out.tp, 0.0);
        assert_eq!(out.fp, 0.0);
        assert_eq!(out.estimated_precision(), 1.0);
        assert!(out.precision_trace.is_empty());
        let refr = run_greedy_reference(&pre, &options);
        assert_bit_identical(&out, &refr);
    }

    #[test]
    fn unrelated_right_records_are_left_unjoined() {
        let left = grid_left();
        let right: Vec<String> = vec![
            "quantum chromodynamics lattice".to_string(),
            "banana bread recipe".to_string(),
        ];
        let pre = build_pre(&left, &right);
        let out = run_greedy(&pre, &AutoFjOptions::default());
        // Any "joins" here would be low-precision; the estimator should keep
        // the program empty or tiny.
        assert!(out.assignment.iter().flatten().count() <= 1);
    }
}
