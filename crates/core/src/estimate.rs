//! Unsupervised precision estimation (§3.1 of the paper).
//!
//! For every join function `f` the estimator pre-computes, over the blocked
//! candidate pairs:
//!
//! * the nearest reference record of every right record and its distance
//!   (this is `J_C(r)` for any threshold that admits the pair, Eq. 1), and
//! * for every reference record that is someone's nearest neighbour, the
//!   sorted distances to its blocked reference neighbours (the "2d-ball"
//!   structure of Figure 4).
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
//! ([`FunctionStats::ball_counts`] for the `2θ` ball; the pair's own `2d`
//! ball under [`BallMode::PairDistance`]).  Neither depends on the evolving
//! assignment.  A candidate's marginal TP/FP against the current assignment
//! is therefore a sum of per-right contributions, each a pure function of
//! `(n, assignment[r])`, which the greedy search keeps as an integer
//! histogram over `n`.  When a round changes right record `r`, only the
//! candidates whose threshold reaches `d_f(r)` cover it, and each subtracts
//! `r`'s old contribution and adds its new one.  Integer counts make that
//! exact: an updated histogram equals one rebuilt from scratch, so the TP/FP
//! read off it are the same bits; see `greedy` and the
//! `run_greedy_reference` equivalence tests.

use crate::options::BallMode;
use crate::oracle::{DistanceOracle, EvalGroup};
use crate::trace::{self, Phase};
use autofj_text::kernel::KernelFamily;
use rayon::prelude::*;

/// Tolerance for neighbours sitting exactly on the ball boundary; see
/// [`FunctionStats::precision_at_rank`].
const BOUNDARY_EPS: f64 = 1e-6;

/// The effective cutoff below which a sorted L–L reference distance counts as
/// inside a ball of the given `radius`: `radius - ε`, floored at `ε/2` so a
/// non-positive radius still counts exact-zero neighbours only.  Shared by
/// [`FunctionStats::from_raw`] and [`FunctionStats::precision_at_rank`], and
/// public so the snapshot store can derive bit-identical ball-count tables
/// when serving the learned program online.
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
/// ([`ball_count_sorted`]).  [`FunctionStats::precision_at_rank`] and the
/// snapshot store's query path both estimate through here.
pub fn ball_precision(sorted_distances: &[f32], radius: f64) -> f64 {
    inverse_ball_count(ball_count_sorted(sorted_distances, radius))
}

/// `1 / (1 + n)` for `n` reference neighbours inside the ball.
#[inline]
pub(crate) fn inverse_ball_count(neighbours: usize) -> f64 {
    1.0 / (1.0 + neighbours as f64)
}

/// Pre-computed statistics for one join function.
#[derive(Debug, Clone)]
pub struct FunctionStats {
    /// For every right record: its nearest left candidate and distance, or
    /// `None` when blocking / negative rules left no candidate.
    pub nearest: Vec<Option<(u32, f32)>>,
    /// Right records that have a nearest candidate, sorted by ascending
    /// distance (ties broken by right index for determinism).
    pub sorted_rights: Vec<(u32, f32)>,
    /// The nearest left record of each entry of `sorted_rights` (same order),
    /// so the greedy search's hot loop skips the `nearest` indirection.
    pub lefts: Vec<u32>,
    /// Indexed by left record: the ascending distances to its blocked left
    /// neighbours, populated only for left records appearing as someone's
    /// nearest neighbour (all other entries stay empty — an empty
    /// neighbourhood and an absent one both count zero ball neighbours).
    pub ll_sorted: Vec<Vec<f32>>,
    /// Candidate thresholds for this function, ascending and deduplicated.
    pub thresholds: Vec<f32>,
    /// `ball_counts[t][l]`: number of reference neighbours of left record `l`
    /// inside the `2·thresholds[t]` ball — the [`BallMode::ConfigTheta`]
    /// cutoff depends only on the threshold and the left record, so the
    /// greedy search's per-pair precision becomes one table lookup instead
    /// of a binary search over `ll_sorted` per rank.
    pub ball_counts: Vec<Vec<u32>>,
}

impl FunctionStats {
    /// Sort the joined right records of a `nearest` table by ascending
    /// distance (ties broken by right index for determinism).
    fn sort_rights(nearest: &[Option<(u32, f32)>]) -> Vec<(u32, f32)> {
        let mut sorted_rights: Vec<(u32, f32)> = nearest
            .iter()
            .enumerate()
            .filter_map(|(r, n)| n.map(|(_, d)| (r as u32, d)))
            .collect();
        sorted_rights.sort_unstable_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        sorted_rights
    }

    /// Assemble statistics from their raw parts, computing the derived
    /// `lefts` and `ball_counts` tables.  Used by the group build and by
    /// tests that hand-craft degenerate inputs.
    pub fn from_raw(
        nearest: Vec<Option<(u32, f32)>>,
        sorted_rights: Vec<(u32, f32)>,
        ll_sorted: Vec<Vec<f32>>,
        thresholds: Vec<f32>,
    ) -> Self {
        let lefts: Vec<u32> = sorted_rights
            .iter()
            .map(|&(r, _)| {
                nearest[r as usize]
                    .expect("sorted right record has a nearest")
                    .0
            })
            .collect();
        // Integer counts collected in threshold order: deterministic at any
        // thread count.  The cutoff formula must match `precision_at_rank`
        // exactly so the table lookup stays bit-identical to the search.
        let ball_counts: Vec<Vec<u32>> = thresholds
            .par_iter()
            .map(|&theta| {
                ll_sorted
                    .iter()
                    .map(|n| ball_count_sorted(n, 2.0 * theta as f64) as u32)
                    .collect()
            })
            .collect();
        Self {
            nearest,
            sorted_rights,
            lefts,
            ll_sorted,
            thresholds,
            ball_counts,
        }
    }

    /// Number of right records joined under threshold `theta` (i.e. whose
    /// nearest distance is ≤ `theta`).
    pub fn joined_count(&self, theta: f32) -> usize {
        self.sorted_rights.partition_point(|&(_, d)| d <= theta)
    }

    /// The per-pair precision estimate for the right record at `rank` within
    /// [`Self::sorted_rights`], under threshold `theta`.
    ///
    /// With [`BallMode::ConfigTheta`] the ball radius is `2θ` (Eq. 9); with
    /// [`BallMode::PairDistance`] it is `2·f(l, r)` (Eq. 8).  Neighbours are
    /// counted strictly inside the ball (with a small tolerance): the paper's
    /// geometric argument is that `d < w/2 ⇒ 2d < w`, so a reference
    /// neighbour sitting *exactly* on the boundary (`w = 2d`, e.g. "one token
    /// added" vs "one token substituted" under Jaccard) does not contradict
    /// the safety of the join and must not be counted.  The one exception is
    /// a degenerate zero-radius ball: reference records at distance ≈ 0 from
    /// `l` are indistinguishable alternatives for `r` and are always counted,
    /// otherwise an exactly-duplicated (e.g. categorical) value would look
    /// perfectly safe.
    pub fn precision_at_rank(&self, rank: usize, theta: f32, mode: BallMode) -> f64 {
        let (r, d) = self.sorted_rights[rank];
        let l = self.nearest[r as usize]
            .expect("rank refers to a joined right record")
            .0;
        let radius = match mode {
            BallMode::ConfigTheta => 2.0 * theta as f64,
            BallMode::PairDistance => 2.0 * d as f64,
        };
        ball_precision(&self.ll_sorted[l as usize], radius)
    }

    /// The nearest left record and distance of right record `r`, if any.
    pub fn nearest_of(&self, r: usize) -> Option<(u32, f32)> {
        self.nearest[r]
    }
}

/// Build the statistics of every member of one [`EvalGroup`] together,
/// sharing the per-pair evaluation work (one merge walk serves all set
/// distances of a scheme).
///
/// The nearest scan is the oracle's [`DistanceOracle::group_nearest`] fold,
/// run as a parallel map over right records; the neighbourhood scan is a
/// parallel map over the union of needed left records.  Results are
/// collected in input order, and no floating-point accumulation crosses a
/// chunk boundary, so every member's output is the same at any thread
/// count.  The group's evaluation counts come back beside the statistics.
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
    let mut nearest_per: Vec<Vec<Option<(u32, f32)>>> =
        (0..k).map(|_| Vec::with_capacity(num_rows)).collect();
    for row in rows {
        for (m, v) in row.into_iter().enumerate() {
            nearest_per[m].push(v);
        }
    }

    // The left records that are someone's nearest under any member, each
    // with its per-member wanted flags (`k` per key) so members only pay for
    // their own rows.  Built from the nearest lists alone, so the cost
    // follows the wanted lefts, not the size of the left table.
    let mut wanted: Vec<(u32, u32)> = nearest_per
        .iter()
        .enumerate()
        .flat_map(|(m, nearest)| nearest.iter().flatten().map(move |n| (n.0, m as u32)))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut keys: Vec<u32> = Vec::new();
    let mut flags: Vec<bool> = Vec::new();
    for (l, m) in wanted {
        if keys.last() != Some(&l) {
            keys.push(l);
            flags.resize(flags.len() + k, false);
        }
        flags[(keys.len() - 1) * k + m as usize] = true;
    }
    let neighbourhoods: Vec<Vec<Vec<f32>>> = (0..keys.len())
        .into_par_iter()
        .with_min_len(16)
        .map(|i| {
            let l = keys[i] as usize;
            let mut out: Vec<Vec<f32>> = vec![Vec::new(); k];
            if let Some(cands) = ll_candidates.get(l) {
                let wanted = &flags[i * k..(i + 1) * k];
                oracle.group_ll_distances(group, l, cands, wanted, &mut out);
            }
            out
        })
        .collect();
    let num_left = oracle.num_left();
    let mut ll_per: Vec<Vec<Vec<f32>>> = (0..k).map(|_| vec![Vec::new(); num_left]).collect();
    for (&l, nb) in keys.iter().zip(neighbourhoods) {
        for (m, v) in nb.into_iter().enumerate() {
            ll_per[m][l as usize] = v;
        }
    }
    let work = FamilyWork {
        lr_pairs: lr_candidates[..num_rows]
            .iter()
            .map(|c| c.len() as u64)
            .sum(),
        ll_pairs: keys
            .iter()
            .filter_map(|&l| ll_candidates.get(l as usize))
            .map(|c| c.len() as u64)
            .sum(),
    };

    let stats = nearest_per
        .into_iter()
        .zip(ll_per)
        .map(|(nearest, ll_sorted)| {
            let sorted_rights = FunctionStats::sort_rights(&nearest);
            let thresholds = pick_thresholds(&sorted_rights, num_thresholds);
            FunctionStats::from_raw(nearest, sorted_rights, ll_sorted, thresholds)
        })
        .collect();
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
    /// distances of a tokenization scheme reading one merge walk) are built
    /// together, then scattered back into function order.
    ///
    /// Groups are built one after another, each with record-parallel inner
    /// loops: within a group the work is uniform, while groups have wildly
    /// different unit costs (an edit-distance bit-vector sweep vs an
    /// interned-set merge walk), so splitting records keeps every chunk the
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
    /// oracle, and by future callers that persist and reload statistics.
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
        let (l, d) = stats.nearest_of(0).unwrap();
        assert_eq!(left[l as usize], "2007 lsu tigers football team");
        assert!(d > 0.0 && d < 0.3);
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
        // Locate each right record's rank.
        let rank_of = |r: u32| {
            stats
                .sorted_rights
                .iter()
                .position(|&(ri, _)| ri == r)
                .unwrap()
        };
        let theta_small = stats.sorted_rights[rank_of(0)].1;
        let p_safe = stats.precision_at_rank(rank_of(0), theta_small, BallMode::ConfigTheta);
        let theta_big = stats.sorted_rights[rank_of(1)].1;
        let p_crowded = stats.precision_at_rank(rank_of(1), theta_big, BallMode::ConfigTheta);
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
        let p_theta = stats.precision_at_rank(0, theta, BallMode::ConfigTheta);
        let p_pair = stats.precision_at_rank(0, theta, BallMode::PairDistance);
        // The pair-distance ball (2d) is never larger than the config ball (2θ)
        // for θ ≥ d, so its precision estimate is never smaller.
        assert!(p_pair >= p_theta);
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
        // One group per family: Jaccard and Cosine share one merge walk.
        let lr_pairs = (right.len() * left.len()) as u64;
        let functions = &pre.functions;
        let members: [&[usize]; 3] = [&[0], &[1], &[2, 3]];
        for (fs, (family, work)) in members.into_iter().zip(&pre.work) {
            assert_eq!(work.lr_pairs, lr_pairs, "{family:?}");
            // Only the lefts that are some member's nearest are walked.
            let mut wanted: Vec<u32> = fs
                .iter()
                .flat_map(|&f| (0..right.len()).filter_map(move |r| functions[f].nearest_of(r)))
                .map(|(l, _)| l)
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
        let p = stats.precision_at_rank(0, stats.sorted_rights[0].1, BallMode::ConfigTheta);
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
        assert!(stats.nearest_of(0).is_none());
        assert!(stats.sorted_rights.is_empty());
    }
}
