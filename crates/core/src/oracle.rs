//! Distance oracles.
//!
//! The precision estimator needs two walks per group of join functions:
//! the nearest left candidate of each right record
//! ([`DistanceOracle::group_nearest`]) and the sorted ball neighbourhood of
//! each left record ([`DistanceOracle::group_ll_distances`]).  Abstracting
//! them behind [`DistanceOracle`] lets the same estimator drive
//!
//! * single-column joins ([`SingleColumnOracle`]: kernel groups walk one
//!   [`PreparedColumn`], sharing one marked walk across the set distances
//!   of a scheme), and
//! * multi-column joins ([`WeightedColumnsOracle`]: weighted sums of cached
//!   per-column distances, Definition 4.1, read by candidate slot), where the
//!   cache ([`MultiColumnDistanceCache`]) is filled once through
//!   [`JoinFunctionSpace::batch_distances`] and reused across the many
//!   weight vectors Algorithm 3 tries.

use autofj_text::kernel::{offer_nearest, plan_kernel_groups, KernelFamily, KernelGroup};
use autofj_text::{JoinFunction, JoinFunctionSpace, PreparedColumn};
use std::ops::Range;

/// An evaluation group advertised by an oracle: functions whose distances
/// the oracle can produce together in one pass per pair (e.g. all set
/// distances derived from one marked walk), plus the kernel family serving
/// them for timing attribution.
#[derive(Debug, Clone)]
pub struct EvalGroup {
    /// The kernel family serving this group, when the oracle knows it.
    pub family: Option<KernelFamily>,
    /// Function indices of the members, in function order.
    pub members: Vec<usize>,
    /// Oracle-private handle (e.g. an index into a kernel plan); opaque to
    /// callers, round-tripped back into the `group_*` methods.
    pub plan_idx: usize,
}

/// Pairwise distances under an indexed family of join functions, served in
/// evaluation groups: the estimator asks only for the nearest left
/// candidate of each right record and for the ball neighbourhood of each
/// left record, one group of functions at a time.
pub trait DistanceOracle: Sync {
    /// Number of join functions.
    fn num_functions(&self) -> usize;
    /// Number of left (reference) records.
    fn num_left(&self) -> usize;
    /// Number of right (query) records.
    fn num_right(&self) -> usize;

    /// The oracle's evaluation groups, covering every function exactly once
    /// in function order.
    fn eval_groups(&self) -> Vec<EvalGroup>;

    /// For every member of `group`, the nearest left candidate of right
    /// record `r` among `candidates` and its `f32` distance, folded through
    /// [`offer_nearest`] in candidate order.  `out` has one slot per member,
    /// aligned with `group.members`.
    fn group_nearest(
        &self,
        group: &EvalGroup,
        r: usize,
        candidates: &[usize],
        out: &mut [Option<(u32, f32)>],
    );

    /// For each member of `group` flagged in `wanted`, the ball
    /// neighbourhood of left record `l`: its finite `f32` distances to the
    /// `candidates`, pushed in candidate order into the member's `out`
    /// vector and then sorted ascending.  Nothing is pushed for unwanted
    /// members.
    fn group_ll_distances(
        &self,
        group: &EvalGroup,
        l: usize,
        candidates: &[usize],
        wanted: &[bool],
        out: &mut [Vec<f32>],
    );
}

/// Oracle for single-column tables: one prepared column holding the left
/// records followed by the right records.
pub struct SingleColumnOracle {
    num_functions: usize,
    column: PreparedColumn,
    num_left: usize,
    num_right: usize,
    /// Kernel plan over `functions`: set/hybrid functions of one scheme
    /// share a marked walk, char functions get threshold-aware kernels.
    groups: Vec<KernelGroup>,
}

impl SingleColumnOracle {
    /// Build the oracle from raw values.
    pub fn build<S: AsRef<str>>(functions: &[JoinFunction], left: &[S], right: &[S]) -> Self {
        let mut all: Vec<&str> = Vec::with_capacity(left.len() + right.len());
        all.extend(left.iter().map(|s| s.as_ref()));
        all.extend(right.iter().map(|s| s.as_ref()));
        Self {
            num_functions: functions.len(),
            column: PreparedColumn::build(&all),
            num_left: left.len(),
            num_right: right.len(),
            groups: plan_kernel_groups(functions),
        }
    }

    /// The prepared column (left records first, then right records).
    pub fn column(&self) -> &PreparedColumn {
        &self.column
    }

    /// Consume the oracle, handing the prepared column to the caller — used
    /// by the snapshot store to freeze the column without re-preparing it.
    pub fn into_column(self) -> PreparedColumn {
        self.column
    }
}

impl DistanceOracle for SingleColumnOracle {
    fn num_functions(&self) -> usize {
        self.num_functions
    }
    fn num_left(&self) -> usize {
        self.num_left
    }
    fn num_right(&self) -> usize {
        self.num_right
    }
    fn eval_groups(&self) -> Vec<EvalGroup> {
        self.groups
            .iter()
            .enumerate()
            .map(|(gi, g)| EvalGroup {
                family: Some(g.family),
                members: g.members.clone(),
                plan_idx: gi,
            })
            .collect()
    }

    /// The kernel group's shared fold, [`KernelGroup::nearest_into`].
    fn group_nearest(
        &self,
        group: &EvalGroup,
        r: usize,
        candidates: &[usize],
        out: &mut [Option<(u32, f32)>],
    ) {
        let rr = self.column.record(self.num_left + r);
        self.groups[group.plan_idx].nearest_into(&self.column, candidates, rr, out);
    }

    /// The kernel group's shared neighbourhood walk,
    /// [`KernelGroup::neighbourhood_into`], unbounded and uncut.
    fn group_ll_distances(
        &self,
        group: &EvalGroup,
        l: usize,
        candidates: &[usize],
        wanted: &[bool],
        out: &mut [Vec<f32>],
    ) {
        let cutoffs: Vec<f64> = wanted
            .iter()
            .map(|&w| if w { f64::INFINITY } else { f64::NEG_INFINITY })
            .collect();
        let (col, lrec) = (&self.column, self.column.record(l));
        self.groups[group.plan_idx].neighbourhood_into(col, lrec, candidates, None, &cutoffs, out);
    }
}

/// Cached per-column distances for every blocked candidate pair and every
/// join function.  Built once per multi-column task, then shared by all the
/// [`WeightedColumnsOracle`] views Algorithm 3 creates.
pub struct MultiColumnDistanceCache {
    num_functions: usize,
    num_columns: usize,
    num_left: usize,
    num_right: usize,
    /// L–R candidate lists in CSR form: right record `r`'s candidates are
    /// `lr_ids[lr_offsets[r]..lr_offsets[r + 1]]`, and so are its slots.
    lr_offsets: Vec<usize>,
    lr_ids: Vec<usize>,
    /// L–L candidate lists, in the same CSR form per left record.
    ll_offsets: Vec<usize>,
    ll_ids: Vec<usize>,
    /// `lr_dist[f][c][slot]`: function `f`'s distance on column `c`.
    lr_dist: Vec<Vec<Vec<f32>>>,
    /// `ll_dist[f][c][slot]`, aligned with the L–L slots.
    ll_dist: Vec<Vec<Vec<f32>>>,
}

/// Flatten candidate lists into CSR offsets and ids.
fn csr(lists: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0);
    let mut ids = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        ids.extend_from_slice(list);
        offsets.push(ids.len());
    }
    (offsets, ids)
}

/// `[f][c][slot]` distances of `pairs` under every function of `space`,
/// one [`JoinFunctionSpace::batch_distances`] call per column, narrowed to
/// `f32` before the next column is evaluated.
fn column_distances(
    space: &JoinFunctionSpace,
    columns: &[PreparedColumn],
    pairs: &[(usize, usize)],
) -> Vec<Vec<Vec<f32>>> {
    let mut dist = vec![Vec::new(); space.len()];
    for col in columns {
        for (per_fn, row) in dist.iter_mut().zip(space.batch_distances(col, pairs)) {
            per_fn.push(row.into_iter().map(|d| d as f32).collect());
        }
    }
    dist
}

impl MultiColumnDistanceCache {
    /// Build the cache.
    ///
    /// * `columns` — per input column, the prepared column over
    ///   `left ++ right` values.
    /// * `num_left` / `num_right` — row counts.
    /// * `lr_candidates[r]` — blocked left candidates of right record `r`.
    /// * `ll_candidates[l]` — blocked left candidates of left record `l`.
    ///
    /// Every pair puts the reference record first, as the directional
    /// containment hybrids need: L–R pairs are `(l, num_left + r)` and L–L
    /// pairs are `(l, l2)`.
    pub fn build(
        space: &JoinFunctionSpace,
        columns: &[PreparedColumn],
        num_left: usize,
        num_right: usize,
        lr_candidates: &[Vec<usize>],
        ll_candidates: &[Vec<usize>],
    ) -> Self {
        let (lr_offsets, lr_ids) = csr(lr_candidates);
        let (ll_offsets, ll_ids) = csr(ll_candidates);
        let lr_pairs: Vec<(usize, usize)> = lr_candidates
            .iter()
            .enumerate()
            .flat_map(|(r, cands)| cands.iter().map(move |&l| (l, num_left + r)))
            .collect();
        let ll_pairs: Vec<(usize, usize)> = ll_candidates
            .iter()
            .enumerate()
            .flat_map(|(l, cands)| cands.iter().map(move |&l2| (l, l2)))
            .collect();
        Self {
            num_functions: space.len(),
            num_columns: columns.len(),
            num_left,
            num_right,
            lr_dist: column_distances(space, columns, &lr_pairs),
            ll_dist: column_distances(space, columns, &ll_pairs),
            lr_offsets,
            lr_ids,
            ll_offsets,
            ll_ids,
        }
    }

    /// Number of input columns cached.
    pub fn num_columns(&self) -> usize {
        self.num_columns
    }

    /// Number of cached L–R pairs.
    pub fn num_lr_pairs(&self) -> usize {
        self.lr_ids.len()
    }

    /// Number of cached L–L pairs.
    pub fn num_ll_pairs(&self) -> usize {
        self.ll_ids.len()
    }
}

/// A view of a [`MultiColumnDistanceCache`] under a specific column-weight
/// vector `w` (Definition 4.1: `F_w(l, r) = Σ_j w_j · f(l[j], r[j])`).
///
/// Distances are read by slot: the estimator passes back exactly the
/// candidate lists the cache was built from, and a different list panics
/// instead of being misread.
pub struct WeightedColumnsOracle<'a> {
    cache: &'a MultiColumnDistanceCache,
    weights: Vec<f64>,
}

impl<'a> WeightedColumnsOracle<'a> {
    /// Create a view with the given weights (must have one entry per cached
    /// column).
    ///
    /// # Panics
    /// Panics if `weights.len()` does not match the cache's column count.
    pub fn new(cache: &'a MultiColumnDistanceCache, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            cache.num_columns,
            "weight vector length must match number of columns"
        );
        Self { cache, weights }
    }

    /// `F_w` of function `f` at `slot`: the cached `f32` column distances,
    /// widened and summed in column order, skipping non-positive weights.
    #[inline]
    fn weighted(&self, f: usize, slot: usize, dist: &[Vec<Vec<f32>>]) -> f64 {
        let mut sum = 0.0;
        for (c, &w) in self.weights.iter().enumerate() {
            if w > 0.0 {
                sum += w * dist[f][c][slot] as f64;
            }
        }
        sum
    }
}

/// The slot range of record `i` in a CSR candidate list, after checking
/// that the caller asks about exactly the cached candidates.
fn slots(offsets: &[usize], ids: &[usize], i: usize, candidates: &[usize]) -> Range<usize> {
    let range = offsets[i]..offsets[i + 1];
    assert_eq!(
        &ids[range.clone()],
        candidates,
        "candidates of record {i} differ from the cached list"
    );
    range
}

impl DistanceOracle for WeightedColumnsOracle<'_> {
    fn num_functions(&self) -> usize {
        self.cache.num_functions
    }
    fn num_left(&self) -> usize {
        self.cache.num_left
    }
    fn num_right(&self) -> usize {
        self.cache.num_right
    }

    /// One group per function: the cache holds no shared walk to exploit.
    fn eval_groups(&self) -> Vec<EvalGroup> {
        (0..self.cache.num_functions)
            .map(|f| EvalGroup {
                family: None,
                members: vec![f],
                plan_idx: f,
            })
            .collect()
    }

    fn group_nearest(
        &self,
        group: &EvalGroup,
        r: usize,
        candidates: &[usize],
        out: &mut [Option<(u32, f32)>],
    ) {
        let (offsets, ids) = (&self.cache.lr_offsets, &self.cache.lr_ids);
        let range = slots(offsets, ids, r, candidates);
        for (best, &f) in out.iter_mut().zip(&group.members) {
            *best = None;
            for (slot, &l) in range.clone().zip(candidates) {
                offer_nearest(best, l as u32, self.weighted(f, slot, &self.cache.lr_dist));
            }
        }
    }

    fn group_ll_distances(
        &self,
        group: &EvalGroup,
        l: usize,
        candidates: &[usize],
        wanted: &[bool],
        out: &mut [Vec<f32>],
    ) {
        let (offsets, ids) = (&self.cache.ll_offsets, &self.cache.ll_ids);
        let range = slots(offsets, ids, l, candidates);
        for ((row, &f), &w) in out.iter_mut().zip(&group.members).zip(wanted) {
            if w {
                row.extend(
                    range
                        .clone()
                        .map(|slot| self.weighted(f, slot, &self.cache.ll_dist) as f32)
                        .filter(|d| d.is_finite()),
                );
                row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofj_text::{DistanceFunction, JoinFunctionSpace, Preprocessing};

    fn small_functions() -> Vec<JoinFunction> {
        vec![
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::Edit),
            JoinFunction::set_based(
                Preprocessing::Lower,
                autofj_text::Tokenization::Space,
                autofj_text::TokenWeighting::Equal,
                DistanceFunction::Jaccard,
            ),
        ]
    }

    /// The evaluation group serving function `f`, and `f`'s slot in it.
    fn group_of(oracle: &impl DistanceOracle, f: usize) -> (EvalGroup, usize) {
        oracle
            .eval_groups()
            .into_iter()
            .find_map(|g| {
                let m = g.members.iter().position(|&x| x == f)?;
                Some((g, m))
            })
            .expect("every function has a group")
    }

    /// Function `f`'s nearest candidate of right record `r`.
    fn nearest(
        oracle: &impl DistanceOracle,
        f: usize,
        r: usize,
        candidates: &[usize],
    ) -> Option<(u32, f32)> {
        let (g, m) = group_of(oracle, f);
        let mut out = vec![None; g.members.len()];
        oracle.group_nearest(&g, r, candidates, &mut out);
        out[m]
    }

    /// Function `f`'s sorted ball row of left record `l`.
    fn ball_row(
        oracle: &impl DistanceOracle,
        f: usize,
        l: usize,
        candidates: &[usize],
    ) -> Vec<f32> {
        let (g, m) = group_of(oracle, f);
        let wanted: Vec<bool> = (0..g.members.len()).map(|i| i == m).collect();
        let mut out = vec![Vec::new(); g.members.len()];
        oracle.group_ll_distances(&g, l, candidates, &wanted, &mut out);
        std::mem::take(&mut out[m])
    }

    #[test]
    fn single_column_oracle_matches_direct_distance() {
        let fns = small_functions();
        let left = ["alpha beta", "gamma delta"];
        let right = ["alpha beta gamma"];
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        assert_eq!(oracle.num_left(), 2);
        assert_eq!(oracle.num_right(), 1);
        let direct = fns[1].distance_str("alpha beta", "alpha beta gamma");
        assert_eq!(nearest(&oracle, 1, 0, &[0]), Some((0, direct as f32)));
        let ll_direct = fns[0].distance_str("alpha beta", "gamma delta");
        assert_eq!(ball_row(&oracle, 0, 0, &[1]), vec![ll_direct as f32]);
    }

    /// Two columns, two left records, one right record: L–R candidates
    /// `[[0, 1]]`, L–L candidates `[[1], [0]]`.
    fn two_column_cache() -> MultiColumnDistanceCache {
        let space = JoinFunctionSpace::from_functions(small_functions(), "small");
        let col_a = PreparedColumn::build(&["alpha beta", "gamma delta", "alpha beta"]);
        let col_b = PreparedColumn::build(&["one", "two", "one two three"]);
        let cache = MultiColumnDistanceCache::build(
            &space,
            &[col_a, col_b],
            2,
            1,
            &[vec![0, 1]],
            &[vec![1], vec![0]],
        );
        assert_eq!(cache.num_lr_pairs(), 2);
        assert_eq!(cache.num_ll_pairs(), 2);
        cache
    }

    #[test]
    fn weighted_oracle_sums_column_distances() {
        let fns = small_functions();
        let cache = two_column_cache();
        let oracle = WeightedColumnsOracle::new(&cache, vec![0.7, 0.3]);
        let expect = 0.7 * fns[1].distance_str("alpha beta", "alpha beta")
            + 0.3 * fns[1].distance_str("one", "one two three");
        let (l, d) = nearest(&oracle, 1, 0, &[0, 1]).expect("a nearest candidate");
        assert_eq!(l, 0);
        assert!((d as f64 - expect).abs() < 1e-5);
        let expect_ll = 0.7 * fns[0].distance_str("alpha beta", "gamma delta")
            + 0.3 * fns[0].distance_str("one", "two");
        let row = ball_row(&oracle, 0, 0, &[1]);
        assert_eq!(row.len(), 1);
        assert!((row[0] as f64 - expect_ll).abs() < 1e-5);

        // Zero-weight column contributes nothing.
        let oracle_a_only = WeightedColumnsOracle::new(&cache, vec![1.0, 0.0]);
        let expect_a = fns[1].distance_str("alpha beta", "alpha beta");
        let (_, d_a) = nearest(&oracle_a_only, 1, 0, &[0, 1]).expect("a nearest candidate");
        assert!((d_a as f64 - expect_a).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "differ from the cached list")]
    fn weighted_oracle_panics_on_a_candidate_list_it_did_not_cache() {
        let cache = two_column_cache();
        let oracle = WeightedColumnsOracle::new(&cache, vec![0.5, 0.5]);
        let _ = nearest(&oracle, 0, 0, &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn mismatched_weight_length_panics() {
        let space = JoinFunctionSpace::from_functions(small_functions(), "small");
        let col = PreparedColumn::build(&["a", "b"]);
        let cache = MultiColumnDistanceCache::build(&space, &[col], 1, 1, &[vec![0]], &[vec![]]);
        let _ = WeightedColumnsOracle::new(&cache, vec![0.5, 0.5]);
    }

    #[test]
    fn full_space_oracle_reports_function_count() {
        let space = JoinFunctionSpace::reduced24();
        let oracle = SingleColumnOracle::build(space.functions(), &["x"], &["y"]);
        assert_eq!(oracle.num_functions(), 24);
    }
}
