//! Distance oracles.
//!
//! The precision-estimation and greedy-search machinery only needs two
//! primitives: the distance between a left and a right record, and the
//! distance between two left records, under the `i`-th join function of the
//! search space.  Abstracting this behind [`DistanceOracle`] lets the same
//! estimator drive
//!
//! * single-column joins ([`SingleColumnOracle`], distances computed directly
//!   from one [`PreparedColumn`]), and
//! * multi-column joins ([`WeightedColumnsOracle`], distances are weighted
//!   sums of cached per-column distances, Definition 4.1), where the cache
//!   ([`MultiColumnDistanceCache`]) is built once and reused across the many
//!   weight vectors Algorithm 3 tries.

use autofj_text::kernel::{offer_nearest, plan_kernel_groups, KernelFamily, KernelGroup};
use autofj_text::{JoinFunction, PreparedColumn};
use rayon::prelude::*;
use std::collections::HashMap;

/// An evaluation group advertised by an oracle: functions whose distances
/// the oracle can produce together in one pass per pair (e.g. all set
/// distances derived from one merge walk), plus the kernel family serving
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

/// Pairwise distances under an indexed family of join functions.
///
/// The `group_*` methods are the batched surface the estimator drives; their
/// default implementations replicate the per-pair `lr`/`ll` calls exactly
/// (byte-identical results), so existing oracles keep their behavior while
/// [`SingleColumnOracle`] overrides them with shared-pass kernels.
pub trait DistanceOracle: Sync {
    /// Number of join functions.
    fn num_functions(&self) -> usize;
    /// Number of left (reference) records.
    fn num_left(&self) -> usize;
    /// Number of right (query) records.
    fn num_right(&self) -> usize;
    /// Distance between left record `l` and right record `r` under function `f`.
    fn lr(&self, f: usize, l: usize, r: usize) -> f64;
    /// Distance between left records `l1` and `l2` under function `f`.
    fn ll(&self, f: usize, l1: usize, l2: usize) -> f64;

    /// The oracle's evaluation groups, covering every function exactly once
    /// in function order.  Default: one group per function, unknown family.
    fn eval_groups(&self) -> Vec<EvalGroup> {
        (0..self.num_functions())
            .map(|f| EvalGroup {
                family: None,
                members: vec![f],
                plan_idx: f,
            })
            .collect()
    }

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
    ) {
        for (slot, &f) in out.iter_mut().zip(&group.members) {
            *slot = None;
            for &l in candidates {
                offer_nearest(slot, l as u32, self.lr(f, l, r));
            }
        }
    }

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
    ) {
        for ((slot, &f), &w) in out.iter_mut().zip(&group.members).zip(wanted) {
            if w {
                slot.extend(
                    candidates
                        .iter()
                        .map(|&l2| self.ll(f, l, l2) as f32)
                        .filter(|d| d.is_finite()),
                );
                slot.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            }
        }
    }
}

/// Oracle for single-column tables: one prepared column holding the left
/// records followed by the right records.
pub struct SingleColumnOracle {
    functions: Vec<JoinFunction>,
    column: PreparedColumn,
    num_left: usize,
    num_right: usize,
    /// Kernel plan over `functions`: set/hybrid functions of one scheme
    /// share a merge walk, char functions get threshold-aware kernels.
    groups: Vec<KernelGroup>,
}

impl SingleColumnOracle {
    /// Build the oracle from raw values.
    pub fn build<S: AsRef<str>>(functions: &[JoinFunction], left: &[S], right: &[S]) -> Self {
        let mut all: Vec<&str> = Vec::with_capacity(left.len() + right.len());
        all.extend(left.iter().map(|s| s.as_ref()));
        all.extend(right.iter().map(|s| s.as_ref()));
        Self {
            functions: functions.to_vec(),
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
        self.functions.len()
    }
    fn num_left(&self) -> usize {
        self.num_left
    }
    fn num_right(&self) -> usize {
        self.num_right
    }
    fn lr(&self, f: usize, l: usize, r: usize) -> f64 {
        self.functions[f].distance(&self.column, l, self.num_left + r)
    }
    fn ll(&self, f: usize, l1: usize, l2: usize) -> f64 {
        self.functions[f].distance(&self.column, l1, l2)
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
    /// `lr_index[r]` maps a left index to its slot in the flattened arrays.
    lr_index: Vec<HashMap<u32, u32>>,
    /// `ll_index[l]` maps another left index to its slot.
    ll_index: Vec<HashMap<u32, u32>>,
    /// `lr_dist[f][c]` is aligned with the flattened L–R pair list.
    lr_dist: Vec<Vec<Vec<f32>>>,
    /// `ll_dist[f][c]` is aligned with the flattened L–L pair list.
    ll_dist: Vec<Vec<Vec<f32>>>,
    /// Start offset of each right record's slots in the flattened L–R arrays.
    lr_offsets: Vec<u32>,
    /// Start offset of each left record's slots in the flattened L–L arrays.
    ll_offsets: Vec<u32>,
}

impl MultiColumnDistanceCache {
    /// Build the cache.
    ///
    /// * `columns` — per input column, the prepared column over
    ///   `left ++ right` values.
    /// * `num_left` / `num_right` — row counts.
    /// * `lr_candidates[r]` — blocked left candidates of right record `r`.
    /// * `ll_candidates[l]` — blocked left candidates of left record `l`.
    pub fn build(
        functions: &[JoinFunction],
        columns: &[PreparedColumn],
        num_left: usize,
        num_right: usize,
        lr_candidates: &[Vec<usize>],
        ll_candidates: &[Vec<usize>],
    ) -> Self {
        let num_columns = columns.len();
        let num_functions = functions.len();

        let mut lr_offsets = Vec::with_capacity(num_right + 1);
        let mut lr_pairs: Vec<(u32, u32)> = Vec::new();
        let mut lr_index = Vec::with_capacity(num_right);
        lr_offsets.push(0u32);
        for (r, cands) in lr_candidates.iter().enumerate() {
            let mut map = HashMap::with_capacity(cands.len());
            for &l in cands {
                map.insert(l as u32, lr_pairs.len() as u32);
                lr_pairs.push((l as u32, r as u32));
            }
            lr_index.push(map);
            lr_offsets.push(lr_pairs.len() as u32);
        }

        let mut ll_offsets = Vec::with_capacity(num_left + 1);
        let mut ll_pairs: Vec<(u32, u32)> = Vec::new();
        let mut ll_index = Vec::with_capacity(num_left);
        ll_offsets.push(0u32);
        for (l, cands) in ll_candidates.iter().enumerate() {
            let mut map = HashMap::with_capacity(cands.len());
            for &l2 in cands {
                map.insert(l2 as u32, ll_pairs.len() as u32);
                ll_pairs.push((l as u32, l2 as u32));
            }
            ll_index.push(map);
            ll_offsets.push(ll_pairs.len() as u32);
        }

        let compute = |pairs: &[(u32, u32)], right_is_query: bool| -> Vec<Vec<Vec<f32>>> {
            (0..num_functions)
                .into_par_iter()
                .map(|f| {
                    (0..num_columns)
                        .map(|c| {
                            pairs
                                .iter()
                                .map(|&(a, b)| {
                                    let right_idx = if right_is_query {
                                        num_left + b as usize
                                    } else {
                                        b as usize
                                    };
                                    functions[f].distance(&columns[c], a as usize, right_idx) as f32
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect()
        };
        let lr_dist = compute(&lr_pairs, true);
        let ll_dist = compute(&ll_pairs, false);

        Self {
            num_functions,
            num_columns,
            num_left,
            num_right,
            lr_index,
            ll_index,
            lr_dist,
            ll_dist,
            lr_offsets,
            ll_offsets,
        }
    }

    /// Number of input columns cached.
    pub fn num_columns(&self) -> usize {
        self.num_columns
    }

    /// Number of cached L–R pairs.
    pub fn num_lr_pairs(&self) -> usize {
        *self.lr_offsets.last().unwrap_or(&0) as usize
    }

    /// Number of cached L–L pairs.
    pub fn num_ll_pairs(&self) -> usize {
        *self.ll_offsets.last().unwrap_or(&0) as usize
    }
}

/// A view of a [`MultiColumnDistanceCache`] under a specific column-weight
/// vector `w` (Definition 4.1: `F_w(l, r) = Σ_j w_j · f(l[j], r[j])`).
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

    /// The weight vector of this view.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    #[inline]
    fn weighted(&self, f: usize, slot: u32, dist: &[Vec<Vec<f32>>]) -> f64 {
        let mut sum = 0.0;
        for (c, &w) in self.weights.iter().enumerate() {
            if w > 0.0 {
                sum += w * dist[f][c][slot as usize] as f64;
            }
        }
        sum
    }
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
    fn lr(&self, f: usize, l: usize, r: usize) -> f64 {
        match self.cache.lr_index[r].get(&(l as u32)) {
            Some(&slot) => self.weighted(f, slot, &self.cache.lr_dist),
            None => f64::INFINITY,
        }
    }
    fn ll(&self, f: usize, l1: usize, l2: usize) -> f64 {
        match self.cache.ll_index[l1].get(&(l2 as u32)) {
            Some(&slot) => self.weighted(f, slot, &self.cache.ll_dist),
            None => f64::INFINITY,
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

    #[test]
    fn single_column_oracle_matches_direct_distance() {
        let fns = small_functions();
        let left = ["alpha beta", "gamma delta"];
        let right = ["alpha beta gamma"];
        let oracle = SingleColumnOracle::build(&fns, &left, &right);
        assert_eq!(oracle.num_left(), 2);
        assert_eq!(oracle.num_right(), 1);
        let direct = fns[1].distance_str("alpha beta", "alpha beta gamma");
        assert!((oracle.lr(1, 0, 0) - direct).abs() < 1e-9);
        let ll_direct = fns[0].distance_str("alpha beta", "gamma delta");
        assert!((oracle.ll(0, 0, 1) - ll_direct).abs() < 1e-9);
    }

    #[test]
    fn weighted_oracle_sums_column_distances() {
        let fns = small_functions();
        let left_a = ["alpha beta".to_string(), "gamma delta".to_string()];
        let right_a = ["alpha beta".to_string()];
        let left_b = ["one".to_string(), "two".to_string()];
        let right_b = ["one two three".to_string()];
        let col_a = PreparedColumn::build(
            &left_a
                .iter()
                .chain(right_a.iter())
                .cloned()
                .collect::<Vec<_>>(),
        );
        let col_b = PreparedColumn::build(
            &left_b
                .iter()
                .chain(right_b.iter())
                .cloned()
                .collect::<Vec<_>>(),
        );
        let lr_cands = vec![vec![0, 1]];
        let ll_cands = vec![vec![1], vec![0]];
        let cache =
            MultiColumnDistanceCache::build(&fns, &[col_a, col_b], 2, 1, &lr_cands, &ll_cands);
        assert_eq!(cache.num_lr_pairs(), 2);
        assert_eq!(cache.num_ll_pairs(), 2);

        let oracle = WeightedColumnsOracle::new(&cache, vec![0.7, 0.3]);
        let expect = 0.7 * fns[1].distance_str("alpha beta", "alpha beta")
            + 0.3 * fns[1].distance_str("one", "one two three");
        assert!((oracle.lr(1, 0, 0) - expect).abs() < 1e-5);

        // Zero-weight column contributes nothing.
        let oracle_a_only = WeightedColumnsOracle::new(&cache, vec![1.0, 0.0]);
        let expect_a = fns[1].distance_str("alpha beta", "alpha beta");
        assert!((oracle_a_only.lr(1, 0, 0) - expect_a).abs() < 1e-5);
    }

    #[test]
    fn weighted_oracle_reports_infinity_for_unblocked_pairs() {
        let fns = small_functions();
        let col = PreparedColumn::build(&["a", "b", "q"]);
        let cache =
            MultiColumnDistanceCache::build(&fns, &[col], 2, 1, &[vec![0]], &[vec![], vec![]]);
        let oracle = WeightedColumnsOracle::new(&cache, vec![1.0]);
        assert!(oracle.lr(0, 1, 0).is_infinite());
        assert!(oracle.ll(0, 0, 1).is_infinite());
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn mismatched_weight_length_panics() {
        let fns = small_functions();
        let col = PreparedColumn::build(&["a", "b"]);
        let cache = MultiColumnDistanceCache::build(&fns, &[col], 1, 1, &[vec![0]], &[vec![]]);
        let _ = WeightedColumnsOracle::new(&cache, vec![0.5, 0.5]);
    }

    #[test]
    fn full_space_oracle_reports_function_count() {
        let space = JoinFunctionSpace::reduced24();
        let oracle = SingleColumnOracle::build(space.functions(), &["x"], &["y"]);
        assert_eq!(oracle.num_functions(), 24);
    }
}
