//! Unsupervised precision estimation (§3.1 of the paper).
//!
//! For every join function `f` the estimator pre-computes, over the blocked
//! candidate pairs:
//!
//! * the nearest reference record of every right record and its distance
//!   (this is `J_C(r)` for any threshold that admits the pair, Eq. 1),
//!   ranked by ascending distance, and
//! * for every ranked pair, the number of reference records inside its ball
//!   (the "2d-ball" structure of Figure 4), counted over its reference
//!   record's sorted distances to its blocked reference neighbours, which
//!   are dropped once counted.
//!
//! The per-pair precision estimate is the multiplicative inverse of the
//! number of reference records inside the ball (Eq. 8/9): a clean ball means
//! the join is "safe", a crowded ball means the threshold is too lax in that
//! record's neighbourhood.
//!
//! # The incremental-estimate invariant
//!
//! Everything a greedy round needs about a candidate configuration
//! `C = ⟨f, θ⟩` is **frozen at pre-compute time**: the coverage of `C` (the
//! prefix of [`FunctionStats::sorted_rights`] with distance ≤ θ) and the
//! whole ball count `n` of each covered pair, whose precision is `1/(1+n)`
//! ([`FunctionStats::theta_balls`] for the `2θ` ball,
//! [`FunctionStats::pair_balls`] for the pair's own `2d` ball under
//! [`BallMode::PairDistance`](crate::options::BallMode::PairDistance)).
//! Neither depends on the evolving assignment.  A candidate's marginal
//! TP/FP against the current assignment is therefore a sum of per-right
//! contributions, each a pure function of `(n, assignment[r])`, which the
//! greedy search keeps as an integer histogram over `n`.  When a round
//! changes right record `r`, only the candidates whose threshold reaches
//! `d_f(r)` cover it, and each subtracts `r`'s old contribution and adds its
//! new one.  Integer counts make that exact: an updated histogram equals one
//! rebuilt from scratch, so the TP/FP read off it are the same bits; see
//! `greedy` and the `run_greedy_reference` equivalence tests.

use crate::oracle::{DistanceOracle, EvalGroup};
use crate::trace::{self, Phase};
use autofj_text::kernel::KernelFamily;
use rayon::prelude::*;

/// Tolerance for neighbours sitting exactly on the ball boundary; see
/// [`ball_cutoff`].
const BOUNDARY_EPS: f64 = 1e-6;

/// The effective cutoff below which a sorted L–L reference distance counts as
/// inside a ball of the given `radius`: `radius - ε`, so a neighbour exactly
/// on the boundary (`d < w/2 ⇒ 2d < w`, the paper's argument) is not
/// counted, floored at `ε/2` so a zero-radius ball still counts exact
/// duplicates (an exactly-duplicated categorical value must not look safe).
/// Every ball table of [`FunctionStats`] counts through here; public so the
/// snapshot store derives bit-identical counts when serving online.
pub fn ball_cutoff(radius: f64) -> f64 {
    (radius - BOUNDARY_EPS).max(0.5 * BOUNDARY_EPS)
}

/// Count the sorted reference distances strictly below [`ball_cutoff`] of
/// `radius` — the number of same-table neighbours inside the ball, computed
/// exactly like the batch pipeline computes it (f64 comparison over sorted
/// f32 distances).
pub fn ball_count_sorted(sorted_distances: &[f32], radius: f64) -> usize {
    let cutoff = ball_cutoff(radius);
    sorted_distances.partition_point(|&x| (x as f64) < cutoff)
}

/// The per-pair precision estimate of Eq. 8/9 for a pair whose reference
/// record has the sorted L–L distances `sorted_distances`: the inverse of one
/// plus the number of reference neighbours inside the ball of `radius`
/// ([`ball_count_sorted`]).  The snapshot store's query path estimates
/// through here, the greedy search from the same counts.
pub fn ball_precision(sorted_distances: &[f32], radius: f64) -> f64 {
    inverse_ball_count(ball_count_sorted(sorted_distances, radius))
}

/// `1 / (1 + n)` for `n` reference neighbours inside the ball.
#[inline]
pub(crate) fn inverse_ball_count(neighbours: usize) -> f64 {
    1.0 / (1.0 + neighbours as f64)
}

/// Pre-computed statistics for one join function: its covered pairs, each
/// keyed by its rank, and their ball counts.
#[derive(Debug, Clone)]
pub struct FunctionStats {
    /// Right records that have a nearest candidate (blocking or negative
    /// rules may leave none) and its distance, sorted by ascending distance
    /// (ties broken by right index for determinism).  A pair's position here
    /// is its rank.
    pub sorted_rights: Vec<(u32, f32)>,
    /// The nearest left record of each entry of `sorted_rights` (same order).
    pub lefts: Vec<u32>,
    /// Indexed by right record: its rank, or `None` when it has no nearest
    /// candidate.
    pub rank_of: Vec<Option<u32>>,
    /// Candidate thresholds for this function, ascending and deduplicated.
    pub thresholds: Vec<f32>,
    /// `theta_balls[t][rank]`: reference neighbours inside the
    /// `2·thresholds[t]` ball of the pair at `rank` (Eq. 9).  Threshold `t`
    /// covers a prefix of the ranks, so row `t` has
    /// [`Self::joined_count`]`(thresholds[t])` entries and the table holds
    /// exactly the function's round-1 coverage.
    pub theta_balls: Vec<Vec<u32>>,
    /// `pair_balls[rank]`: reference neighbours inside the pair's own `2·d`
    /// ball (Eq. 8), one count for every threshold `θ ≥ d`.
    pub pair_balls: Vec<u32>,
}

impl FunctionStats {
    /// Rank the joined pairs of a `nearest` table (indexed by right record)
    /// and size the ball tables for the thresholds `pick` chooses from the
    /// ranked pairs.  Every count is zero until [`fill_balls`] sets it.
    fn ranked(
        nearest: &[Option<(u32, f32)>],
        pick: impl FnOnce(&[(u32, f32)]) -> Vec<f32>,
    ) -> Self {
        let mut pairs: Vec<(u32, u32, f32)> = (nearest.iter().enumerate())
            .filter_map(|(r, n)| n.map(|(l, d)| (r as u32, l, d)))
            .collect();
        pairs.sort_unstable_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let sorted_rights: Vec<(u32, f32)> = pairs.iter().map(|&(r, _, d)| (r, d)).collect();
        let mut rank_of = vec![None; nearest.len()];
        for (rank, &(r, _)) in sorted_rights.iter().enumerate() {
            rank_of[r as usize] = Some(rank as u32);
        }
        let thresholds = pick(&sorted_rights);
        let theta_balls = (thresholds.iter())
            .map(|&theta| vec![0; sorted_rights.partition_point(|&(_, d)| d <= theta)])
            .collect();
        Self {
            lefts: pairs.iter().map(|&(_, l, _)| l).collect(),
            pair_balls: vec![0; sorted_rights.len()],
            sorted_rights,
            rank_of,
            thresholds,
            theta_balls,
        }
    }

    /// Statistics of one function from its `nearest` table (indexed by
    /// right record), the ascending `thresholds`, and the sorted
    /// neighbourhood of each reference record (`neighbourhood(l)`).  The
    /// counts come from the same code as [`Precompute::build`]'s; used by
    /// tests that hand-craft degenerate inputs.
    pub fn from_raw<'a>(
        nearest: &[Option<(u32, f32)>],
        thresholds: Vec<f32>,
        neighbourhood: impl Fn(u32) -> &'a [f32] + Sync,
    ) -> Self {
        let mut stats = [Self::ranked(nearest, |_| thresholds)];
        fill_balls(&mut stats, |l, _, rows| {
            rows[0].extend_from_slice(neighbourhood(l as u32))
        });
        let [stats] = stats;
        stats
    }

    /// Number of right records joined under threshold `theta` (i.e. whose
    /// nearest distance is ≤ `theta`).
    pub fn joined_count(&self, theta: f32) -> usize {
        self.sorted_rights.partition_point(|&(_, d)| d <= theta)
    }

    /// Append the ball counts of the pair at `rank`, whose reference record
    /// has the sorted neighbourhood `row`: its `2d` ball, then the `2θ` ball
    /// of every threshold covering it, ascending.
    fn count_balls(&self, rank: usize, row: &[f32], out: &mut Vec<u32>) {
        let d = self.sorted_rights[rank].1;
        out.push(ball_count_sorted(row, 2.0 * d as f64) as u32);
        let covering = self.thresholds.partition_point(|&theta| theta < d);
        out.extend(
            (self.thresholds[covering..].iter())
                .map(|&theta| ball_count_sorted(row, 2.0 * theta as f64) as u32),
        );
    }

    /// Store the counts [`Self::count_balls`] appended for `rank` at the
    /// head of `counts`; return how many it took.
    fn set_balls(&mut self, rank: usize, counts: &[u32]) -> usize {
        let d = self.sorted_rights[rank].1;
        let covering = self.thresholds.partition_point(|&theta| theta < d);
        self.pair_balls[rank] = counts[0];
        for (row, &n) in self.theta_balls[covering..].iter_mut().zip(&counts[1..]) {
            row[rank] = n;
        }
        1 + self.thresholds.len() - covering
    }
}

/// Wanted left records per parallel region of [`fill_balls`].
const FILL_BLOCK: usize = 512;

/// Fill the ball tables of every member `stats[m]` of one group, and return
/// the wanted left records: those that are some member's nearest, ascending.
///
/// One parallel region per block of [`FILL_BLOCK`] wanted lefts:
/// `walk(l, wanted, rows)` pushes the sorted neighbourhood of left `l` under
/// each wanted member `m` into `rows[m]` (empty rows on entry), and every
/// pair of every member whose nearest is `l` is counted against it before
/// the rows are dropped.  The counts are integers, scattered in left order
/// after each block, so the tables are the same at any thread count.
fn fill_balls(
    stats: &mut [FunctionStats],
    walk: impl Fn(usize, &[bool], &mut [Vec<f32>]) + Sync,
) -> Vec<u32> {
    let k = stats.len();
    // Every (left, member, rank) pair, grouped by left.
    let mut pairs: Vec<(u32, u32, u32)> = (stats.iter().enumerate())
        .flat_map(|(m, s)| {
            (s.lefts.iter().enumerate()).map(move |(rank, &l)| (l, m as u32, rank as u32))
        })
        .collect();
    pairs.sort_unstable();
    let by_left: Vec<&[(u32, u32, u32)]> = pairs.chunk_by(|a, b| a.0 == b.0).collect();
    // Scattered block by block, so the counts in flight stay bounded however
    // many members the group holds.
    for block in by_left.chunks(FILL_BLOCK) {
        let counted: &[FunctionStats] = stats;
        let counts: Vec<Vec<u32>> = (block.par_iter())
            .with_min_len(16)
            .map(|group| {
                let mut wanted = vec![false; k];
                for &(_, m, _) in *group {
                    wanted[m as usize] = true;
                }
                let mut rows: Vec<Vec<f32>> = vec![Vec::new(); k];
                walk(group[0].0 as usize, &wanted, &mut rows);
                let mut out = Vec::new();
                for &(_, m, rank) in *group {
                    counted[m as usize].count_balls(rank as usize, &rows[m as usize], &mut out);
                }
                out
            })
            .collect();
        for (group, counts) in block.iter().zip(&counts) {
            let mut at = 0;
            for &(_, m, rank) in *group {
                at += stats[m as usize].set_balls(rank as usize, &counts[at..]);
            }
        }
    }
    by_left.iter().map(|group| group[0].0).collect()
}

/// Build the statistics of every member of one [`EvalGroup`] together,
/// sharing the per-pair evaluation work (one marked walk serves all set
/// distances of a scheme).
///
/// The nearest scan is the oracle's [`DistanceOracle::group_nearest`] fold,
/// run as a parallel map over right records; the ball counts come from
/// [`fill_balls`] over the oracle's [`DistanceOracle::group_ll_distances`]
/// walks.  Results are collected in input order, and no floating-point
/// accumulation crosses a chunk boundary, so every member's output is the
/// same at any thread count.  The group's evaluation counts come back
/// beside the statistics.
fn build_group_stats<O: DistanceOracle>(
    group: &EvalGroup,
    oracle: &O,
    lr_candidates: &[Vec<usize>],
    ll_candidates: &[Vec<usize>],
    num_thresholds: usize,
) -> (Vec<FunctionStats>, FamilyWork) {
    let k = group.members.len();
    let num_rows = oracle.num_right().min(lr_candidates.len());
    let rows: Vec<Vec<Option<(u32, f32)>>> = (0..num_rows)
        .into_par_iter()
        .with_min_len(64)
        .map(|r| {
            let mut out = vec![None; k];
            oracle.group_nearest(group, r, &lr_candidates[r], &mut out);
            out
        })
        .collect();
    let mut stats: Vec<FunctionStats> = (0..k)
        .map(|m| {
            let nearest: Vec<Option<(u32, f32)>> = rows.iter().map(|row| row[m]).collect();
            FunctionStats::ranked(&nearest, |sorted| pick_thresholds(sorted, num_thresholds))
        })
        .collect();
    let wanted_lefts = fill_balls(&mut stats, |l, wanted, out| {
        if let Some(cands) = ll_candidates.get(l) {
            oracle.group_ll_distances(group, l, cands, wanted, out);
        }
    });
    let work = FamilyWork {
        lr_pairs: lr_candidates[..num_rows]
            .iter()
            .map(|c| c.len() as u64)
            .sum(),
        ll_pairs: wanted_lefts
            .iter()
            .filter_map(|&l| ll_candidates.get(l as usize))
            .map(|c| c.len() as u64)
            .sum(),
    };
    (stats, work)
}

/// Pick up to `num_thresholds` candidate thresholds from the distribution of
/// nearest-neighbour distances: the unique distance values at evenly spaced
/// quantiles (always including the smallest and largest).
fn pick_thresholds(sorted_rights: &[(u32, f32)], num_thresholds: usize) -> Vec<f32> {
    if sorted_rights.is_empty() {
        return Vec::new();
    }
    let n = sorted_rights.len();
    let mut out: Vec<f32> = Vec::with_capacity(num_thresholds.min(n));
    if num_thresholds >= n {
        out.extend(sorted_rights.iter().map(|&(_, d)| d));
    } else {
        for k in 0..num_thresholds {
            let idx = (k * (n - 1)) / (num_thresholds - 1).max(1);
            out.push(sorted_rights[idx].1);
        }
    }
    out.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    out.dedup();
    out
}

/// The kernel-group evaluations a pre-compute ran for one kernel family:
/// each pair evaluates every member of a group at once.  Counted from the
/// candidate-list lengths, so the figures are exact at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyWork {
    /// L–R pairs of the nearest fold.
    pub lr_pairs: u64,
    /// L–L pairs of the ball walk, over the wanted left records only.
    pub ll_pairs: u64,
}

/// Pre-computed statistics for every function in the search space
/// (Algorithm 1, lines 3–4).
#[derive(Debug, Clone)]
pub struct Precompute {
    /// One entry per join function, aligned with the search space.
    pub functions: Vec<FunctionStats>,
    /// Kernel-group evaluations per family, in order of first group; groups
    /// without a kernel family (cached multi-column distances) run no
    /// kernel and are not counted.
    pub work: Vec<(KernelFamily, FamilyWork)>,
    num_right: usize,
}

impl Precompute {
    /// Build the statistics for every function by iterating the oracle's
    /// [`EvalGroup`]s — functions sharing one kernel evaluation (e.g. all set
    /// distances of a tokenization scheme reading one marked walk) are built
    /// together, then scattered back into function order.
    ///
    /// Groups are built one after another, each with record-parallel inner
    /// loops: within a group the work is uniform, while groups have wildly
    /// different unit costs (an edit-distance bit-vector sweep vs an
    /// interned-set marked walk), so splitting records keeps every chunk the
    /// same shape where splitting groups would leave workers idle behind the
    /// chunk that drew the char-based kernels.  Each group's wall time is
    /// its kernel family's `precompute/<family>` span in the capturing
    /// [`trace`].  Every group is computed independently and scattered in
    /// function order, so the thread count never changes a byte of the
    /// output.
    pub fn build<O: DistanceOracle>(
        oracle: &O,
        lr_candidates: &[Vec<usize>],
        ll_candidates: &[Vec<usize>],
        num_thresholds: usize,
    ) -> Self {
        let groups = oracle.eval_groups();
        let built: Vec<(Vec<FunctionStats>, FamilyWork)> = groups
            .iter()
            .map(|g| {
                let _t = g.family.map(|fam| trace::scoped(Phase::of_family(fam)));
                build_group_stats(g, oracle, lr_candidates, ll_candidates, num_thresholds)
            })
            .collect();
        let mut functions: Vec<Option<FunctionStats>> =
            (0..oracle.num_functions()).map(|_| None).collect();
        let mut work: Vec<(KernelFamily, FamilyWork)> = Vec::new();
        for (g, (stats, group_work)) in groups.iter().zip(built) {
            for (&f_idx, s) in g.members.iter().zip(stats) {
                functions[f_idx] = Some(s);
            }
            if let Some(family) = g.family {
                match work.iter_mut().find(|(f, _)| *f == family) {
                    Some((_, w)) => {
                        w.lr_pairs += group_work.lr_pairs;
                        w.ll_pairs += group_work.ll_pairs;
                    }
                    None => work.push((family, group_work)),
                }
            }
        }
        let functions = functions
            .into_iter()
            .map(|s| s.expect("eval groups must cover every function"))
            .collect();
        Self {
            functions,
            work,
            num_right: oracle.num_right(),
        }
    }

    /// Assemble a pre-compute from already-built per-function statistics.
    ///
    /// Used by tests that need hand-crafted degenerate inputs (zero-join
    /// rounds, overlapping candidate coverage) without driving a full
    /// oracle.
    pub fn from_parts(functions: Vec<FunctionStats>, num_right: usize) -> Self {
        Self {
            functions,
            work: Vec::new(),
            num_right,
        }
    }

    /// Number of right records.
    pub fn num_right(&self) -> usize {
        self.num_right
    }

    /// Total number of candidate configurations `Σ_f |thresholds(f)|`.
    pub fn num_candidate_configs(&self) -> usize {
        self.functions.iter().map(|f| f.thresholds.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SingleColumnOracle;
    use autofj_text::{
        DistanceFunction, JoinFunction, Preprocessing, TokenWeighting, Tokenization,
    };

    fn jaccard_space() -> Vec<JoinFunction> {
        vec![JoinFunction::set_based(
            Preprocessing::Lower,
            Tokenization::Space,
            TokenWeighting::Equal,
            DistanceFunction::Jaccard,
        )]
    }

    /// A reference table on a regular "grid": every record differs from its
    /// neighbours by one token out of five, so nearest L–L distances are all
    /// 1/3 (Jaccard of 4-of-6) ... the exact values matter less than the
    /// *relative* crowding of the 2d-ball.
    fn grid_left() -> Vec<String> {
        let years = ["2005", "2006", "2007", "2008"];
        let teams = ["lsu tigers", "wisconsin badgers", "alabama tide"];
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

    #[test]
    fn nearest_neighbour_is_found() {
        let left = grid_left();
        let right = vec!["2007 lsu tigers football".to_string()];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 10).functions.remove(0);
        assert_eq!(stats.rank_of, [Some(0)]);
        let (l, d) = (stats.lefts[0], stats.sorted_rights[0].1);
        assert_eq!(left[l as usize], "2007 lsu tigers football team");
        assert!(d > 0.0 && d < 0.3);
    }

    /// The `2θ` precision of the pair at `rank` under threshold `theta`.
    fn theta_precision(stats: &FunctionStats, rank: usize, theta: f32) -> f64 {
        let t = stats.thresholds.iter().position(|&x| x == theta).unwrap();
        inverse_ball_count(stats.theta_balls[t][rank] as usize)
    }

    #[test]
    fn safe_pair_has_high_precision_crowded_pair_has_low() {
        let left = grid_left();
        // r0: a small perturbation of an existing record -> clean ball.
        // r1: equally far from several records (its true counterpart is not
        //     in L, mimicking Figure 4(b)) -> crowded ball.
        let right = vec![
            "2007 lsu tigers football team usa".to_string(),
            "2007 oregon ducks football team".to_string(),
        ];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 25).functions.remove(0);
        let (safe, crowded) = (stats.rank_of[0].unwrap(), stats.rank_of[1].unwrap());
        let (safe, crowded) = (safe as usize, crowded as usize);
        let p_safe = theta_precision(&stats, safe, stats.sorted_rights[safe].1);
        let p_crowded = theta_precision(&stats, crowded, stats.sorted_rights[crowded].1);
        assert!(p_safe > p_crowded, "safe {p_safe} vs crowded {p_crowded}");
        assert!(p_safe > 0.9);
        assert!(p_crowded < 0.5);
    }

    #[test]
    fn pair_distance_mode_is_at_least_as_optimistic_as_config_theta() {
        let left = grid_left();
        let right = vec!["2006 wisconsin badgers football".to_string()];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 25).functions.remove(0);
        let theta = *stats.thresholds.last().unwrap();
        let p_theta = theta_precision(&stats, 0, theta);
        let p_pair = inverse_ball_count(stats.pair_balls[0] as usize);
        // The pair-distance ball (2d) is never larger than the config ball (2θ)
        // for θ ≥ d, so its precision estimate is never smaller.
        assert!(p_pair >= p_theta);
    }

    #[test]
    fn ball_tables_count_every_covered_pair_against_its_neighbourhood() {
        let left = grid_left();
        let right: Vec<String> = (left.iter().enumerate())
            .map(|(i, s)| match i % 3 {
                0 => format!("{s} x"),
                1 => s.replacen("football", "futbol", 1),
                _ => s.split_whitespace().skip(1).collect::<Vec<_>>().join(" "),
            })
            .collect();
        // Jaccard and Cosine share one walk: two members of one group.
        let mut fns = jaccard_space();
        fns.push(JoinFunction::set_based(
            Preprocessing::Lower,
            Tokenization::Space,
            TokenWeighting::Equal,
            DistanceFunction::Cosine,
        ));
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let pre = Precompute::build(&oracle, &lr, &ll, 10);
        let group = &oracle.eval_groups()[0];
        assert_eq!(group.members, [0, 1]);
        for (m, stats) in pre.functions.iter().enumerate() {
            assert_eq!(stats.pair_balls.len(), stats.sorted_rights.len());
            for (t, &theta) in stats.thresholds.iter().enumerate() {
                assert_eq!(stats.theta_balls[t].len(), stats.joined_count(theta));
            }
            for (rank, (&(_, d), &l)) in stats.sorted_rights.iter().zip(&stats.lefts).enumerate() {
                let mut rows = vec![Vec::new(); 2];
                let mut wanted = [false; 2];
                wanted[m] = true;
                let l = l as usize;
                oracle.group_ll_distances(group, l, &ll[l], &wanted, &mut rows);
                let row = &rows[m];
                let n = ball_count_sorted(row, 2.0 * d as f64) as u32;
                assert_eq!(stats.pair_balls[rank], n, "function {m} rank {rank}");
                for (t, &theta) in stats.thresholds.iter().enumerate() {
                    if theta >= d {
                        let n = ball_count_sorted(row, 2.0 * theta as f64) as u32;
                        assert_eq!(stats.theta_balls[t][rank], n, "function {m} θ {theta}");
                    }
                }
            }
        }
    }

    #[test]
    fn joined_count_is_monotone_in_theta() {
        let left = grid_left();
        let right: Vec<String> = left.iter().map(|s| format!("{s} x")).collect();
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 10).functions.remove(0);
        let mut prev = 0;
        for &t in &stats.thresholds {
            let c = stats.joined_count(t);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(prev, right.len());
    }

    #[test]
    fn work_counts_group_evaluations_per_family() {
        let left = grid_left();
        let right = vec![
            "2007 lsu tigers football".to_string(),
            "2005 alabama tide football team".to_string(),
            "2008 wisconsin badgers".to_string(),
        ];
        let fns = vec![
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::Edit),
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::JaroWinkler),
            jaccard_space()[0],
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Space,
                TokenWeighting::Equal,
                DistanceFunction::Cosine,
            ),
        ];
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let pre = Precompute::build(&oracle, &lr, &ll, 10);
        let families: Vec<KernelFamily> = pre.work.iter().map(|(f, _)| *f).collect();
        assert_eq!(
            families,
            [KernelFamily::Edit, KernelFamily::Jaro, KernelFamily::Set]
        );
        // One group per family: Jaccard and Cosine share one marked walk.
        let lr_pairs = (right.len() * left.len()) as u64;
        let functions = &pre.functions;
        let members: [&[usize]; 3] = [&[0], &[1], &[2, 3]];
        for (fs, (family, work)) in members.into_iter().zip(&pre.work) {
            assert_eq!(work.lr_pairs, lr_pairs, "{family:?}");
            // Only the lefts that are some member's nearest are walked.
            let mut wanted: Vec<u32> = fs
                .iter()
                .flat_map(|&f| functions[f].lefts.iter().copied())
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            let ll_pairs = (wanted.len() * (left.len() - 1)) as u64;
            assert_eq!(work.ll_pairs, ll_pairs, "{family:?}");
        }
    }

    #[test]
    fn thresholds_are_sorted_unique_and_bounded_by_s() {
        let left = grid_left();
        let right: Vec<String> = (0..40).map(|i| format!("record number {i}")).collect();
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 7).functions.remove(0);
        assert!(stats.thresholds.len() <= 7);
        assert!(stats.thresholds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_right_table_produces_empty_stats() {
        let left = grid_left();
        let right: Vec<String> = vec![];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), 0);
        let pre = Precompute::build(&oracle, &lr, &ll, 50);
        assert_eq!(pre.num_right(), 0);
        assert_eq!(pre.num_candidate_configs(), 0);
    }

    #[test]
    fn exact_duplicate_reference_values_are_never_safe() {
        // A "categorical" column: many reference records share the same value,
        // and the query record equals one of them exactly (distance 0).  The
        // zero-radius ball must still count the duplicate alternatives, so the
        // estimated precision must be low (Appendix A's under-specification
        // argument: such a join cannot be trusted).
        let left: Vec<String> = (0..10)
            .map(|i| {
                if i < 5 {
                    "2008".to_string()
                } else {
                    format!("199{i}")
                }
            })
            .collect();
        let right = vec!["2008".to_string()];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let (lr, ll) = all_candidates(left.len(), right.len());
        let stats = Precompute::build(&oracle, &lr, &ll, 10).functions.remove(0);
        let p = theta_precision(&stats, 0, stats.sorted_rights[0].1);
        assert!(p <= 0.5, "duplicated categorical value got precision {p}");
    }

    #[test]
    fn record_with_no_candidates_has_no_nearest() {
        let left = grid_left();
        let right = vec!["anything".to_string()];
        let fns = jaccard_space();
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        let lr = vec![vec![]]; // blocking (or negative rules) removed everything
        let ll = vec![vec![]; left.len()];
        let stats = Precompute::build(&oracle, &lr, &ll, 10).functions.remove(0);
        assert_eq!(stats.rank_of, [None]);
        assert!(stats.sorted_rights.is_empty());
    }
}
