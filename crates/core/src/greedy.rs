//! The greedy union-of-configurations search (Algorithm 1 of the paper).
//!
//! Starting from an empty solution `U`, the search repeatedly adds the
//! candidate configuration `C = ⟨f, θ⟩` that maximizes
//! `profit(U ∪ {C}) = TP(U ∪ {C}) / FP(U ∪ {C})` — i.e. the most expected
//! true positives per expected false positive — and stops as soon as the
//! estimated precision of the grown solution would drop below the target
//! `τ`, or no candidate adds new joins.  Those are the only two stops: there
//! is no round cap.  Each round marks its selected candidate dead
//! (`Search::apply`), so a run has at most one round per candidate
//! configuration ([`candidate_configs`]).  There are at most
//! `|functions| × s` of those: at the default `s = 50`, 1 200 in the reduced
//! 24-function space and 7 000 in the full 140-function space.
//!
//! Conflicts (a right record joined to different left records by different
//! configurations) are resolved by keeping the assignment with the higher
//! per-pair precision estimate, as described at the end of §3.1.
//!
//! # Exact integer accounting
//!
//! Every per-pair precision is `p = 1/(1+n)` (Eq. 8/9) for a whole count `n`
//! of reference records in the ball.  So a candidate's marginal change to
//! the solution is a signed histogram `g[n]` plus a join count: a join adds
//! +1 at `n`, a §3.1 replacement also −1 at the displaced join's `n_old`.
//! Its TP/FP delta is `Σ g[n]/(1+n)` and `Σ g[n]·n/(1+n)` in ascending `n`,
//! and the solution's own TP/FP is one more histogram.  Integer adds
//! commute, so no figure depends on accounting order or thread count.
//!
//! Round 1 builds every histogram from the candidate's full coverage.  A
//! round that changes right record `r` then updates only the alive
//! `⟨f, θ⟩` with `d_f(r) ≤ θ` (a partition point in `f`'s thresholds): out
//! goes `r`'s old contribution, in goes its new one.  [`run_greedy_reference`],
//! the from-scratch spec, rebuilds every histogram each round instead; the
//! tests pin both paths to equal histograms and equal outcomes.
//!
//! A delta is **not monotone**: a conflict resolution that moves a record to
//! another left can revive a candidate that agreed with the old left, so
//! unselected candidates are only skipped while `Δtp ≤ 0`, never dropped.

use crate::estimate::{inverse_ball_count, Precompute};
use crate::options::{AutoFjOptions, BallMode};
use crate::trace::{self, Phase};
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

/// The work one greedy run did, counted on the run itself (see
/// [`run_greedy_with_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Accepted rounds (selected configurations).
    pub rounds: usize,
    /// (candidate, covered right record) pairs walked to build the round-1
    /// histograms.
    pub round_one_coverage: u64,
    /// Histogram updates after each accepted round of the union search: one
    /// per (changed right record, alive candidate covering it).
    pub updates_per_round: Vec<u64>,
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

/// Expected true and false positives, of a solution or of a candidate's
/// marginal change to it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Delta {
    tp: f64,
    fp: f64,
}

/// What a right record holds: its join, if any, and that join's ball count.
type Held = (Option<Assigned>, u32);

/// A signed count, per ball count `n`, of the pairs a candidate would add
/// (+1) or displace (−1), plus the number of right records it would newly
/// join.  The solution is the histogram of everything applied so far.
#[derive(Debug, Clone, Default, PartialEq)]
struct Histogram {
    counts: Vec<i32>,
    joins: i32,
}

impl Histogram {
    /// Account `sign` × what offering left `l` with ball count `n` and
    /// precision `p` changes for a right record that holds `held`; return
    /// the offer.
    #[inline]
    fn offer(&mut self, held: Held, l: u32, (n, p): (u32, f64), sign: i32) -> Offer {
        let o = offer(held.0.as_ref(), l, p);
        match o {
            Offer::Keep => {}
            Offer::Join => {
                self.counts[n as usize] += sign;
                self.joins += sign;
            }
            Offer::Replace(_) => {
                self.counts[n as usize] += sign;
                self.counts[held.1 as usize] -= sign;
            }
        }
        o
    }

    /// `Σ g[n]/(1+n)` and `Σ g[n]·n/(1+n)` in ascending `n`, with
    /// `weights[n] = (1/(1+n), n/(1+n))`.
    fn delta(&self, weights: &[(f64, f64)]) -> Delta {
        let mut d = Delta::default();
        for (&g, &(tp, fp)) in self.counts.iter().zip(weights) {
            d.tp += g as f64 * tp;
            d.fp += g as f64 * fp;
        }
        d
    }
}

/// The index of the largest key, the earliest one on equal keys.
fn first_max(keyed: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    keyed
        .reduce(|a, b| if b.1 > a.1 { b } else { a })
        .map(|(i, _)| i)
}

/// Enumerate every candidate configuration of a pre-compute, function-major
/// with ascending thresholds.
pub fn candidate_configs(pre: &Precompute) -> Vec<CandidateConfig> {
    (pre.functions.iter().enumerate())
        .flat_map(|(function, stats)| {
            (stats.thresholds.iter().enumerate()).map(move |(threshold_idx, &threshold)| {
                CandidateConfig {
                    function,
                    threshold,
                    threshold_idx,
                }
            })
        })
        .collect()
}

/// One greedy search: the assignment, the solution's histogram and every
/// candidate's histogram against it.
struct Search<'a> {
    pre: &'a Precompute,
    candidates: Vec<CandidateConfig>,
    /// Which ball table of each `FunctionStats` the per-pair counts come
    /// from: `theta_balls` (the `2θ` ball) or `pair_balls` (the pair's `2d`).
    ball_mode: BallMode,
    /// `(1/(1+n), n/(1+n))` for every ball count `n` of any covered pair in
    /// that table; its length is every histogram's, since a replacement's
    /// `n_old` may come from another function.
    weights: Vec<(f64, f64)>,
    /// Not yet selected.  Selected candidates are marked, never removed, so
    /// candidate order (and with it first-wins tie-breaking) is fixed.
    alive: Vec<bool>,
    hists: Vec<Histogram>,
    deltas: Vec<Delta>,
    assignment: Vec<Option<Assigned>>,
    /// Ball count of each assigned right record's join.
    balls: Vec<u32>,
    solution: Histogram,
    selected: Vec<CandidateConfig>,
    precision_trace: Vec<f64>,
    stats: GreedyStats,
}

impl<'a> Search<'a> {
    /// An empty solution with every candidate's round-1 histogram built.
    fn new(pre: &'a Precompute, ball_mode: BallMode) -> Self {
        let candidates = candidate_configs(pre);
        let max_ball = match ball_mode {
            BallMode::ConfigTheta => (pre.functions.iter())
                .flat_map(|s| s.theta_balls.iter().flatten())
                .max(),
            BallMode::PairDistance => pre.functions.iter().flat_map(|s| &s.pair_balls).max(),
        };
        let width = 1 + max_ball.copied().unwrap_or(0) as usize;
        let num = candidates.len();
        let round_one_coverage = (candidates.iter())
            .map(|c| pre.functions[c.function].joined_count(c.threshold) as u64)
            .sum();
        let mut search = Search {
            pre,
            candidates,
            ball_mode,
            weights: (0..width)
                .map(|n| (inverse_ball_count(n), n as f64 / (1.0 + n as f64)))
                .collect(),
            alive: vec![true; num],
            hists: Vec::new(),
            deltas: Vec::new(),
            assignment: vec![None; pre.num_right()],
            balls: vec![0; pre.num_right()],
            solution: Histogram {
                counts: vec![0; width],
                joins: 0,
            },
            selected: Vec::new(),
            precision_trace: Vec::new(),
            stats: GreedyStats {
                round_one_coverage,
                ..Default::default()
            },
        };
        search.rescore_all();
        search
    }

    /// The ball count of function `f`'s pair at `rank` under its `t`-th
    /// threshold, with its precision `1/(1+n)`.
    #[inline]
    fn ball(&self, f: usize, t: usize, rank: usize) -> (u32, f64) {
        let stats = &self.pre.functions[f];
        let n = match self.ball_mode {
            BallMode::ConfigTheta => stats.theta_balls[t][rank],
            BallMode::PairDistance => stats.pair_balls[rank],
        };
        (n, self.weights[n as usize].0)
    }

    /// Candidate `ci`'s histogram against the current assignment, walked
    /// over its full coverage.
    fn histogram(&self, ci: usize) -> Histogram {
        let c = self.candidates[ci];
        let stats = &self.pre.functions[c.function];
        let mut h = Histogram {
            counts: vec![0; self.weights.len()],
            joins: 0,
        };
        for rank in 0..stats.joined_count(c.threshold) {
            let (r, l) = (stats.sorted_rights[rank].0 as usize, stats.lefts[rank]);
            let ball = self.ball(c.function, c.threshold_idx, rank);
            h.offer((self.assignment[r], self.balls[r]), l, ball, 1);
        }
        h
    }

    /// Rebuild every candidate's histogram from the assignment, in parallel
    /// over candidates.
    fn rescore_all(&mut self) {
        let _t = trace::scoped(Phase::GreedyScore);
        let this = &*self;
        let hists: Vec<Histogram> = (0..this.candidates.len())
            .into_par_iter()
            .with_min_len(4)
            .map(|ci| this.histogram(ci))
            .collect();
        self.deltas = hists.iter().map(|h| h.delta(&self.weights)).collect();
        self.hists = hists;
    }

    /// Move each changed right record's contribution to every alive
    /// candidate covering it from what the record held to what it holds.
    fn update(&mut self, changes: &[(u32, Held)]) {
        let _t = trace::scoped(Phase::GreedyScore);
        let pre = self.pre;
        let mut dirty = vec![false; self.candidates.len()];
        let mut updates = 0u64;
        for &(right, was) in changes {
            let r = right as usize;
            let now = (self.assignment[r], self.balls[r]);
            for (f, stats) in pre.functions.iter().enumerate() {
                let Some(rank) = stats.rank_of[r] else {
                    continue;
                };
                let rank = rank as usize;
                let (l, d) = (stats.lefts[rank], stats.sorted_rights[rank].1);
                let covering = stats.thresholds.partition_point(|&theta| theta < d);
                let first = self.candidates.partition_point(|c| c.function < f);
                for t in covering..stats.thresholds.len() {
                    let ci = first + t;
                    if self.alive[ci] {
                        let ball = self.ball(f, t, rank);
                        self.hists[ci].offer(was, l, ball, -1);
                        self.hists[ci].offer(now, l, ball, 1);
                        dirty[ci] = true;
                        updates += 1;
                    }
                }
            }
        }
        for ci in (0..dirty.len()).filter(|&ci| dirty[ci]) {
            self.deltas[ci] = self.hists[ci].delta(&self.weights);
        }
        self.stats.updates_per_round.push(updates);
    }

    /// Lines 7–11: the alive candidate of highest profit
    /// `(tp + Δtp) / (fp + Δfp)` with `Δtp > 0` (the earlier on equal
    /// profit), if the grown solution's precision beats `tau`.  `Δtp > 0`
    /// keeps the quotient defined: a zero-join round never passes on a
    /// phantom precision of 1.
    fn select(&self, tau: f64) -> Option<usize> {
        let _t = trace::scoped(Phase::GreedyArgmax);
        let Delta { tp, fp } = self.solution.delta(&self.weights);
        let ci = first_max(
            (self.deltas.iter().enumerate())
                .filter(|&(ci, d)| self.alive[ci] && d.tp > 0.0)
                .map(|(ci, d)| (ci, (tp + d.tp) / (fp + d.fp).max(1e-9))),
        )?;
        let (new_tp, new_fp) = (tp + self.deltas[ci].tp, fp + self.deltas[ci].fp);
        (new_tp / (new_tp + new_fp).max(1e-12) > tau).then_some(ci)
    }

    /// Select candidate `ci`: offer its coverage to the assignment under the
    /// §3.1 rule, and return what every record that changed held before.
    fn apply(&mut self, ci: usize) -> Vec<(u32, Held)> {
        let _t = trace::scoped(Phase::ConflictResolve);
        let pre = self.pre;
        let c = self.candidates[ci];
        let stats = &pre.functions[c.function];
        self.alive[ci] = false;
        let mut changes = Vec::new();
        for rank in 0..stats.joined_count(c.threshold) {
            let (right, distance) = stats.sorted_rights[rank];
            let (r, left) = (right as usize, stats.lefts[rank]);
            let (n, precision) = self.ball(c.function, c.threshold_idx, rank);
            let was = (self.assignment[r], self.balls[r]);
            if self.solution.offer(was, left, (n, precision), 1) != Offer::Keep {
                changes.push((right, was));
                self.assignment[r] = Some(Assigned {
                    left,
                    distance,
                    precision,
                    config_ordinal: self.selected.len(),
                });
                self.balls[r] = n;
            }
        }
        let Delta { tp, fp } = self.solution.delta(&self.weights);
        self.selected.push(c);
        self.precision_trace.push(tp / (tp + fp).max(1e-12));
        changes
    }

    fn finish(mut self) -> (GreedyOutcome, GreedyStats) {
        let Delta { tp, fp } = self.solution.delta(&self.weights);
        self.stats.rounds = self.selected.len();
        let outcome = GreedyOutcome {
            selected: self.selected,
            assignment: self.assignment,
            tp,
            fp,
            precision_trace: self.precision_trace,
        };
        (outcome, self.stats)
    }
}

/// Run Algorithm 1 over a pre-compute (see the module docs).
pub fn run_greedy(pre: &Precompute, options: &AutoFjOptions) -> GreedyOutcome {
    run_greedy_with_stats(pre, options).0
}

/// [`run_greedy`], also returning the work the run did.
pub fn run_greedy_with_stats(
    pre: &Precompute,
    options: &AutoFjOptions,
) -> (GreedyOutcome, GreedyStats) {
    let tau = options.precision_target;
    let mut search = Search::new(pre, options.ball_mode);
    if !options.union_of_configurations {
        // The `AutoFJ-UC` ablation: of the configurations whose round-1
        // precision beats the target, the one of highest estimated recall.
        let deltas = search.deltas.iter().enumerate();
        let single = deltas
            .filter(|(_, d)| d.tp > 0.0 && d.tp / (d.tp + d.fp).max(1e-12) > tau)
            .map(|(ci, d)| (ci, d.tp));
        if let Some(ci) = first_max(single) {
            search.apply(ci);
        }
        return search.finish();
    }
    while let Some(ci) = search.select(tau) {
        let changes = search.apply(ci);
        search.update(&changes);
    }
    search.finish()
}

/// The from-scratch spec of [`run_greedy`]: every round rebuilds every
/// candidate's histogram from the assignment instead of updating it per
/// changed record.  Both must produce identical [`GreedyOutcome`]s on any
/// input, at any thread count.  (The `AutoFJ-UC` ablation has no rounds to
/// update, so it runs [`run_greedy`] itself.)
pub fn run_greedy_reference(pre: &Precompute, options: &AutoFjOptions) -> GreedyOutcome {
    if !options.union_of_configurations {
        return run_greedy(pre, options);
    }
    let mut search = Search::new(pre, options.ball_mode);
    while let Some(ci) = search.select(options.precision_target) {
        search.apply(ci);
        search.rescore_all();
    }
    search.finish().0
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
        joins: &[(u32, u32, f32)],
        thresholds: Vec<f32>,
        ball_neighbours: &[(u32, Vec<f32>)],
    ) -> crate::estimate::FunctionStats {
        let mut nearest = vec![None; num_right];
        for &(r, l, d) in joins {
            nearest[r as usize] = Some((l, d));
        }
        crate::estimate::FunctionStats::from_raw(&nearest, thresholds, |l| {
            (ball_neighbours.iter())
                .find(|(x, _)| *x == l)
                .map_or(&[][..], |(_, v)| v)
        })
    }

    #[test]
    fn overlapping_candidates_marginal_profit_shrinks_after_selection() {
        // Candidate A (function 0) covers rights {0, 1}; candidate B
        // (function 1) covers rights {1, 2}, agreeing with A on right 1's
        // left record.  Once A is selected, right 1 no longer contributes to
        // B's marginal delta — a stale score for B would keep claiming
        // tp = 2 and over-select it.
        let f_a = crafted_stats(3, &[(0, 0, 0.1), (1, 0, 0.2)], vec![0.2], &[]);
        let f_b = crafted_stats(3, &[(1, 0, 0.15), (2, 5, 0.1)], vec![0.15], &[]);
        let pre = Precompute::from_parts(vec![f_a, f_b], 3);
        let (a, b) = (0, 1);

        let mut search = Search::new(&pre, BallMode::ConfigTheta);
        let before = search.deltas[b].tp;
        assert_eq!(before, 2.0, "B initially covers two unassigned rights");
        let changes = search.apply(a);
        search.update(&changes);
        let after = search.deltas[b].tp;
        assert!(
            after < before,
            "B's marginal tp must shrink once A claims right 1 ({after} !< {before})"
        );
        assert_eq!(after, 1.0, "only right 2 still contributes");

        // The full searches agree on the final program (and with each other)
        // in both ball modes: no pair has a ball neighbour, so the two agree.
        for ball_mode in [BallMode::ConfigTheta, BallMode::PairDistance] {
            let options = AutoFjOptions {
                ball_mode,
                ..Default::default()
            };
            let inc = run_greedy(&pre, &options);
            let refr = run_greedy_reference(&pre, &options);
            assert_bit_identical(&inc, &refr);
            assert_eq!(inc.selected.len(), 2);
            assert_eq!(inc.tp, 3.0, "right 1 counted once, not twice");
        }
    }

    /// The spec of a histogram's figures: candidate `ci`'s marginal change
    /// summed per pair in `f64`, the way the per-pair precisions read.
    fn direct_delta(search: &Search, ci: usize) -> (f64, f64, i32) {
        let c = search.candidates[ci];
        let stats = &search.pre.functions[c.function];
        let (mut tp, mut fp, mut joins) = (0.0, 0.0, 0);
        for rank in 0..stats.joined_count(c.threshold) {
            let r = stats.sorted_rights[rank].0;
            let l = stats.lefts[rank];
            let p = 1.0 / (1.0 + search.ball(c.function, c.threshold_idx, rank).0 as f64);
            match offer(search.assignment[r as usize].as_ref(), l, p) {
                Offer::Keep => {}
                Offer::Join => {
                    tp += p;
                    fp += 1.0 - p;
                    joins += 1;
                }
                Offer::Replace(old) => {
                    tp += p - old;
                    fp += old - p;
                }
            }
        }
        (tp, fp, joins)
    }

    /// Every alive histogram equals its from-scratch rebuild, and its
    /// figures equal the direct per-pair sum; so does the solution's.
    fn assert_histograms_exact(search: &Search) {
        for ci in (0..search.candidates.len()).filter(|&ci| search.alive[ci]) {
            assert_eq!(search.hists[ci], search.histogram(ci), "candidate {ci}");
            let (tp, fp, joins) = direct_delta(search, ci);
            let d = search.deltas[ci];
            assert!(
                (d.tp - tp).abs() < 1e-12,
                "candidate {ci}: tp {} vs {tp}",
                d.tp
            );
            assert!(
                (d.fp - fp).abs() < 1e-12,
                "candidate {ci}: fp {} vs {fp}",
                d.fp
            );
            assert_eq!(search.hists[ci].joins, joins, "candidate {ci}: joins");
        }
        let joined = search.assignment.iter().flatten();
        let tp: f64 = joined.clone().map(|a| a.precision).sum();
        let fp: f64 = joined.clone().map(|a| 1.0 - a.precision).sum();
        let d = search.solution.delta(&search.weights);
        assert!((d.tp - tp).abs() < 1e-12 && (d.fp - fp).abs() < 1e-12);
        assert_eq!(search.solution.joins as usize, joined.count());
    }

    #[test]
    fn histogram_figures_match_per_pair_sums_through_join_and_replacements() {
        // Right 0 is joined by A (left 0, two ball neighbours: p = 1/3),
        // replaced by B (left 1, one neighbour: p = 1/2), then replaced
        // again by C (left 2, none: p = 1).  D offers right 0 to left 0 at
        // p = 1: worth nothing while A holds it there, worth 1/2 again once
        // B's replacement takes it away from left 0.  D and C also join
        // right 1 (left 3; p = 1 and 1/2).
        let f_a = crafted_stats(
            2,
            &[(0, 0, 0.1), (1, 3, 0.3)],
            vec![0.1, 0.3],
            &[(0, vec![0.05, 0.1, 0.5]), (3, vec![0.2])],
        );
        let f_b = crafted_stats(2, &[(0, 1, 0.1)], vec![0.1], &[(1, vec![0.05])]);
        let f_c = crafted_stats(2, &[(0, 2, 0.1), (1, 3, 0.2)], vec![0.2], &[(3, vec![0.1])]);
        let f_d = crafted_stats(2, &[(0, 0, 0.1), (1, 3, 0.1)], vec![0.1], &[]);
        let pre = Precompute::from_parts(vec![f_a, f_b, f_c, f_d], 2);
        // Candidates: A@0.1, A@0.3, B, C, D.  The ball counts agree in both
        // modes except A@0.3's pair with right 0, whose `2d` ball (d = 0.1)
        // holds two neighbours and whose `2θ` ball holds three.
        let (a, b, c, d) = (0, 2, 3, 4);
        for (ball, a_wide) in [
            (BallMode::ConfigTheta, &[0, 1, 0, 1][..]),
            (BallMode::PairDistance, &[0, 1, 1][..]),
        ] {
            let options = AutoFjOptions {
                ball_mode: ball,
                precision_target: 0.0,
                ..Default::default()
            };
            let inc = run_greedy(&pre, &options);
            assert_bit_identical(&inc, &run_greedy_reference(&pre, &options));
            let mut search = Search::new(&pre, ball);
            assert_histograms_exact(&search);
            assert_eq!(search.hists[1].counts, a_wide, "{ball:?}: A@0.3");
            assert_eq!(search.deltas[d].tp, 2.0);

            let apply = |search: &mut Search, ci: usize| {
                let changes = search.apply(ci);
                search.update(&changes);
                assert_histograms_exact(search);
            };
            apply(&mut search, a);
            assert_eq!(search.deltas[d].tp, 1.0, "right 0 already joins D's left");
            apply(&mut search, b);
            assert_eq!(search.assignment[0].map(|x| x.left), Some(1));
            assert!(
                (search.deltas[d].tp - 1.5).abs() < 1e-12,
                "right 0 scores again"
            );
            assert_eq!(search.select(0.0), Some(d), "and the argmax sees it");
            apply(&mut search, c);
            assert_eq!(search.assignment[0].map(|x| x.left), Some(2));
            assert_eq!(search.assignment[1].map(|x| x.left), Some(3));
            assert_eq!(search.deltas[d].tp, 0.0, "C's joins leave D nothing");
        }
    }

    #[test]
    fn greedy_stats_count_round_one_coverage_plus_changed_covering_pairs() {
        // Function 0 at θ = 0.1 covers right 0 and at θ = 0.2 rights {0, 1};
        // function 1 at θ = 0.15 covers rights {1, 2}.  Round-1 coverage is
        // 1 + 2 + 2 = 5.  Round 1 selects ⟨0, 0.2⟩ (first of the two tp = 2
        // candidates) and changes rights 0 and 1: right 0 is covered by the
        // alive ⟨0, 0.1⟩, right 1 by the alive ⟨1, 0.15⟩, so 2 updates.
        // Round 2 selects ⟨1, 0.15⟩, which changes right 2, covered by no
        // alive candidate: 0 updates.  ⟨0, 0.1⟩ then adds nothing, so the
        // search stops.
        let f_0 = crafted_stats(3, &[(0, 0, 0.1), (1, 0, 0.2)], vec![0.1, 0.2], &[]);
        let f_1 = crafted_stats(3, &[(1, 0, 0.15), (2, 5, 0.1)], vec![0.15], &[]);
        let pre = Precompute::from_parts(vec![f_0, f_1], 3);
        let (out, stats) = run_greedy_with_stats(&pre, &AutoFjOptions::default());
        assert_eq!(out.selected.len(), 2);
        assert_eq!(
            stats,
            GreedyStats {
                rounds: 2,
                round_one_coverage: 5,
                updates_per_round: vec![2, 0],
            }
        );
        // The `2θ` ball tables hold exactly the round-1 coverage.
        let entries = pre.functions.iter().flat_map(|s| &s.theta_balls);
        assert_eq!(entries.map(Vec::len).sum::<usize>(), 5);
    }

    #[test]
    fn incremental_histograms_equal_rebuilt_histograms_every_round() {
        let left = grid_left();
        let right: Vec<String> = left
            .iter()
            .enumerate()
            .map(|(i, s)| match i % 3 {
                0 => format!("{s} x"),
                1 => s.replacen("football", "futbol", 1),
                _ => s.split_whitespace().skip(1).collect::<Vec<_>>().join(" "),
            })
            .collect();
        let pre = build_pre(&left, &right);
        for ball in [BallMode::ConfigTheta, BallMode::PairDistance] {
            let mut inc = Search::new(&pre, ball);
            let mut refr = Search::new(&pre, ball);
            assert_histograms_exact(&inc);
            let mut rounds = 0;
            while let Some(ci) = inc.select(0.5) {
                assert_eq!(refr.select(0.5), Some(ci), "{ball:?} round {rounds}");
                let changes = inc.apply(ci);
                inc.update(&changes);
                refr.apply(ci);
                refr.rescore_all();
                assert_eq!(inc.alive, refr.alive);
                for ci in (0..inc.candidates.len()).filter(|&ci| inc.alive[ci]) {
                    assert_eq!(inc.hists[ci], refr.hists[ci], "{ball:?} candidate {ci}");
                }
                assert_histograms_exact(&inc);
                rounds += 1;
            }
            assert!(rounds >= 2, "{ball:?}: only {rounds} rounds");
            assert_eq!(refr.select(0.5), None);
        }
    }

    #[test]
    fn zero_join_round_stops_without_phantom_precision() {
        // A candidate threshold exists but covers no right record: its delta
        // is tp = fp = 0.  The stop condition must treat this like
        // `GreedyOutcome::estimated_precision` treats `tp + fp <= 0` — the
        // round is simply never accepted (no divide-by-zero "precision 1.0"
        // that would pass any target), and the search terminates immediately
        // instead of looping on a candidate that changes nothing.
        let stats = crafted_stats(4, &[], vec![0.5], &[]);
        let pre = Precompute::from_parts(vec![stats], 4);
        for ball_mode in [BallMode::ConfigTheta, BallMode::PairDistance] {
            let options = AutoFjOptions {
                ball_mode,
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
    }

    #[test]
    fn the_search_stops_only_when_no_candidate_adds_a_join() {
        // 300 functions, each with one threshold covering one right record
        // of its own left at ball count 0: every candidate adds a join at
        // precision 1, so Algorithm 1 selects every one of them, one per
        // round, and stops when none is left.
        let num = 300;
        let functions = (0..num as u32)
            .map(|r| crafted_stats(num, &[(r, r, 0.1)], vec![0.1], &[]))
            .collect();
        let pre = Precompute::from_parts(functions, num);
        assert_eq!(candidate_configs(&pre).len(), num);
        for ball_mode in [BallMode::ConfigTheta, BallMode::PairDistance] {
            let options = AutoFjOptions {
                ball_mode,
                ..Default::default()
            };
            let ((out, stats), trace) = trace::capture(|| run_greedy_with_stats(&pre, &options));
            assert_eq!(stats.rounds, num, "{ball_mode:?}");
            assert_eq!(out.selected.len(), num);
            assert_eq!(out.assignment.iter().flatten().count(), num);
            assert_eq!(
                trace.phase(Phase::GreedyArgmax).entries,
                stats.rounds as u64 + 1,
                "{ball_mode:?}: one argmax per round and one that found nothing"
            );
            assert_bit_identical(&out, &run_greedy_reference(&pre, &options));
        }
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
