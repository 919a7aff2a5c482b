//! Join functions and the join-function space (`F` in the paper).
//!
//! A [`JoinFunction`] composes one option from each applicable parameter
//! axis of Table 1 — pre-processing, tokenization, token-weighting, distance
//! function — and maps a pair of prepared records to a distance in `[0, 1]`.
//! The paper's experimental space has 140 functions:
//!
//! ```text
//! 4 preps × 2 char distances          =   8
//! 4 preps × 2 toks × 2 weights × 8 set distances = 128
//! 4 preps × 1 embedding distance      =   4
//!                                       ----
//!                                       140
//! ```

use crate::kernel::{eval_function, plan_kernel_groups, with_scratch};
use crate::prepared::PreparedColumn;
use crate::preprocess::Preprocessing;
use crate::tokenize::Tokenization;
use crate::weights::TokenWeighting;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The distance-function axis of the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistanceFunction {
    /// Jaro-Winkler distance (character-based, `JW`).
    JaroWinkler,
    /// Normalized edit distance (character-based, `ED`).
    Edit,
    /// Weighted Jaccard distance (set-based, `JD`).
    Jaccard,
    /// Weighted cosine distance (set-based, `CD`).
    Cosine,
    /// Weighted Dice distance (set-based, `DD`).
    Dice,
    /// Max-inclusion distance (set-based, `MD`).
    MaxInclusion,
    /// Intersect / overlap-coefficient distance (set-based, `ID`).
    Intersect,
    /// Contain-Jaccard hybrid distance.
    ContainJaccard,
    /// Contain-Cosine hybrid distance.
    ContainCosine,
    /// Contain-Dice hybrid distance.
    ContainDice,
    /// Embedding (hashed GloVe substitute) cosine distance (`GED`).
    Embedding,
}

impl DistanceFunction {
    /// The two character-based distances of Table 1.
    pub const CHAR_BASED: [DistanceFunction; 2] =
        [DistanceFunction::JaroWinkler, DistanceFunction::Edit];

    /// The eight set-based distances of Table 1 (5 standard + 3 hybrid).
    pub const SET_BASED: [DistanceFunction; 8] = [
        DistanceFunction::Jaccard,
        DistanceFunction::Cosine,
        DistanceFunction::Dice,
        DistanceFunction::MaxInclusion,
        DistanceFunction::Intersect,
        DistanceFunction::ContainJaccard,
        DistanceFunction::ContainCosine,
        DistanceFunction::ContainDice,
    ];

    /// Whether this distance operates on token sets (and therefore uses the
    /// tokenization and token-weighting axes).
    pub fn is_set_based(&self) -> bool {
        Self::SET_BASED.contains(self)
    }

    /// Whether this distance operates on raw character sequences.
    pub fn is_char_based(&self) -> bool {
        Self::CHAR_BASED.contains(self)
    }

    /// Short code used in printed join programs.
    pub fn code(&self) -> &'static str {
        match self {
            DistanceFunction::JaroWinkler => "JW",
            DistanceFunction::Edit => "ED",
            DistanceFunction::Jaccard => "JD",
            DistanceFunction::Cosine => "CD",
            DistanceFunction::Dice => "DD",
            DistanceFunction::MaxInclusion => "MD",
            DistanceFunction::Intersect => "ID",
            DistanceFunction::ContainJaccard => "Contain-JD",
            DistanceFunction::ContainCosine => "Contain-CD",
            DistanceFunction::ContainDice => "Contain-DD",
            DistanceFunction::Embedding => "GED",
        }
    }
}

/// A fully specified join function `f ∈ F`.
///
/// `tok` and `weight` are `None` for character-based and embedding distances
/// (which do not use those axes), mirroring the way the paper counts its 140
/// functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinFunction {
    /// Pre-processing option.
    pub prep: Preprocessing,
    /// Tokenization option (set-based distances only).
    pub tok: Option<Tokenization>,
    /// Token-weighting option (set-based distances only).
    pub weight: Option<TokenWeighting>,
    /// Distance function.
    pub dist: DistanceFunction,
}

impl JoinFunction {
    /// A character-based join function.
    pub fn char_based(prep: Preprocessing, dist: DistanceFunction) -> Self {
        debug_assert!(dist.is_char_based());
        Self {
            prep,
            tok: None,
            weight: None,
            dist,
        }
    }

    /// A set-based join function.
    pub fn set_based(
        prep: Preprocessing,
        tok: Tokenization,
        weight: TokenWeighting,
        dist: DistanceFunction,
    ) -> Self {
        debug_assert!(dist.is_set_based());
        Self {
            prep,
            tok: Some(tok),
            weight: Some(weight),
            dist,
        }
    }

    /// An embedding join function.
    pub fn embedding(prep: Preprocessing) -> Self {
        Self {
            prep,
            tok: None,
            weight: None,
            dist: DistanceFunction::Embedding,
        }
    }

    /// Human-readable code of this join function, e.g. `(L, SP, EW, JD)`.
    pub fn code(&self) -> String {
        match (self.tok, self.weight) {
            (Some(t), Some(w)) => format!(
                "({}, {}, {}, {})",
                self.prep.code(),
                t.code(),
                w.code(),
                self.dist.code()
            ),
            _ => format!("({}, {})", self.prep.code(), self.dist.code()),
        }
    }

    /// Distance between the `left`-th and `right`-th records of a prepared
    /// column.  For the directional containment hybrids the `left` record is
    /// treated as the reference (`l`) and `right` as the query (`r`), per the
    /// Table 1 footnote (`r ⊆ l`).
    pub fn distance(&self, col: &PreparedColumn, left: usize, right: usize) -> f64 {
        self.distance_between(col, col.record(left), col.record(right))
    }

    /// Distance between two explicit prepared records, using `col` only for
    /// its weight tables.  This is how the online query path scores a record
    /// that is not part of the column (see
    /// [`PreparedColumn::prepare_query`]); for in-column records it is
    /// exactly [`Self::distance`].
    ///
    /// This evaluates the function's kernel with the calling thread's
    /// scratch; batch callers evaluate a whole [`crate::KernelGroup`] per
    /// pair instead ([`JoinFunctionSpace::batch_distances`]).
    pub fn distance_between(
        &self,
        col: &PreparedColumn,
        lr: &crate::prepared::PreparedRecord,
        rr: &crate::prepared::PreparedRecord,
    ) -> f64 {
        with_scratch(|scratch| eval_function(col, *self, scratch, lr, rr, None))
    }

    /// Distance between two raw strings, building a throw-away prepared
    /// column.  Convenient for examples and tests; hot paths should reuse a
    /// [`PreparedColumn`].
    pub fn distance_str(&self, left: &str, right: &str) -> f64 {
        let col = PreparedColumn::build(&[left, right]);
        self.distance(&col, 0, 1)
    }
}

impl fmt::Display for JoinFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// The space of join functions explored by the auto-programming search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinFunctionSpace {
    functions: Vec<JoinFunction>,
    label: String,
}

impl JoinFunctionSpace {
    /// Build a space from explicit axis choices, following the paper's
    /// counting rule (char distances and the embedding distance ignore the
    /// tokenization / weighting axes).
    pub fn from_axes(
        preps: &[Preprocessing],
        toks: &[Tokenization],
        weights: &[TokenWeighting],
        set_dists: &[DistanceFunction],
        char_dists: &[DistanceFunction],
        include_embedding: bool,
        label: &str,
    ) -> Self {
        let mut functions = Vec::new();
        for &p in preps {
            for &d in char_dists {
                functions.push(JoinFunction::char_based(p, d));
            }
        }
        for &p in preps {
            for &t in toks {
                for &w in weights {
                    for &d in set_dists {
                        functions.push(JoinFunction::set_based(p, t, w, d));
                    }
                }
            }
        }
        if include_embedding {
            for &p in preps {
                functions.push(JoinFunction::embedding(p));
            }
        }
        Self {
            functions,
            label: label.to_string(),
        }
    }

    /// The paper's full experimental space of 140 join functions (Table 1).
    pub fn full() -> Self {
        Self::from_axes(
            &Preprocessing::ALL,
            &Tokenization::ALL,
            &TokenWeighting::ALL,
            &DistanceFunction::SET_BASED,
            &DistanceFunction::CHAR_BASED,
            true,
            "full-140",
        )
    }

    /// A 24-function reduced space (used for Table 6 and the smallest point
    /// of Figure 7c/d): a single pre-processing option for char/set
    /// distances, the five standard set distances, and the embedding distance
    /// under two pre-processing options.
    pub fn reduced24() -> Self {
        let mut s = Self::from_axes(
            &[Preprocessing::Lower],
            &Tokenization::ALL,
            &TokenWeighting::ALL,
            &[
                DistanceFunction::Jaccard,
                DistanceFunction::Cosine,
                DistanceFunction::Dice,
                DistanceFunction::MaxInclusion,
                DistanceFunction::Intersect,
            ],
            &DistanceFunction::CHAR_BASED,
            false,
            "reduced-24",
        );
        s.functions
            .push(JoinFunction::embedding(Preprocessing::Lower));
        s.functions
            .push(JoinFunction::embedding(Preprocessing::LowerStemRemovePunct));
        s
    }

    /// A 70-function space obtained by keeping only the `L` and `L+S+RP`
    /// pre-processing options (the example given in §5.1.4, "Varying
    /// Configuration Spaces").
    pub fn reduced70() -> Self {
        Self::from_axes(
            &[Preprocessing::Lower, Preprocessing::LowerStemRemovePunct],
            &Tokenization::ALL,
            &TokenWeighting::ALL,
            &DistanceFunction::SET_BASED,
            &DistanceFunction::CHAR_BASED,
            true,
            "reduced-70",
        )
    }

    /// A 38-function space: two pre-processings, equal weights only.
    pub fn reduced38() -> Self {
        Self::from_axes(
            &[Preprocessing::Lower, Preprocessing::LowerStemRemovePunct],
            &Tokenization::ALL,
            &[TokenWeighting::Equal],
            &DistanceFunction::SET_BASED,
            &DistanceFunction::CHAR_BASED,
            true,
            "reduced-38",
        )
    }

    /// The graded sub-spaces used by the Figure 7c/d sweep, smallest first.
    pub fn standard_subspaces() -> Vec<JoinFunctionSpace> {
        vec![
            Self::reduced24(),
            Self::reduced38(),
            Self::reduced70(),
            Self::full(),
        ]
    }

    /// The functions of this space.
    pub fn functions(&self) -> &[JoinFunction] {
        &self.functions
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// `true` when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Label describing this space (used in experiment output).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Restrict to a custom list of functions (used in tests and examples).
    pub fn from_functions(functions: Vec<JoinFunction>, label: &str) -> Self {
        Self {
            functions,
            label: label.to_string(),
        }
    }

    /// Evaluate every function of the space over a batch of `(left, right)`
    /// record-index pairs of a prepared column, in parallel over
    /// `(kernel group, pair-block)` work items.
    ///
    /// Returns one distance vector per function, aligned with
    /// [`Self::functions`] and with `pairs` — the batched equivalent of
    /// calling [`JoinFunction::distance`] in two nested loops.  The
    /// multi-column distance cache is filled through it, once per column.
    ///
    /// Splitting by function alone strands the expensive `O(len²)`
    /// char-based functions in one worker's chunk while the set-based marked
    /// walks finish early; the flattened item list interleaves fixed-size
    /// pair blocks of every kernel group, so unit costs even out regardless
    /// of which groups a chunk draws.  Functions sharing a marked walk (the
    /// set/hybrid families of one scheme) are evaluated together per pair
    /// via [`crate::kernel::plan_kernel_groups`].  The block size is a
    /// constant (never derived from the thread count) and every item lands
    /// at a fixed position in the output, so results are identical at any
    /// parallelism.
    pub fn batch_distances(&self, col: &PreparedColumn, pairs: &[(usize, usize)]) -> Vec<Vec<f64>> {
        const PAIR_BLOCK: usize = 1024;
        if pairs.is_empty() {
            return vec![Vec::new(); self.functions.len()];
        }
        let groups = plan_kernel_groups(&self.functions);
        let blocks_per_group = pairs.len().div_ceil(PAIR_BLOCK);
        let items: Vec<(usize, usize)> = (0..groups.len())
            .flat_map(|g| (0..blocks_per_group).map(move |b| (g, b)))
            .collect();
        // Each item evaluates one pair block of one group, pair-major
        // (members contiguous per pair, sharing the per-pair marked walk).
        let evaluated: Vec<Vec<f64>> = items
            .par_iter()
            .map(|&(gi, b)| {
                let g = &groups[gi];
                let start = b * PAIR_BLOCK;
                let end = (start + PAIR_BLOCK).min(pairs.len());
                let k = g.members.len();
                let mut block = vec![0.0f64; (end - start) * k];
                with_scratch(|scratch| {
                    for (chunk, &(l, r)) in block.chunks_mut(k).zip(&pairs[start..end]) {
                        g.eval_records_into(
                            col,
                            scratch,
                            col.record(l),
                            col.record(r),
                            None,
                            chunk,
                        );
                    }
                });
                block
            })
            .collect();
        // Scatter group-major blocks back into one row per function.
        let mut rows = vec![vec![0.0f64; pairs.len()]; self.functions.len()];
        for (item, block) in items.iter().zip(&evaluated) {
            let (gi, b) = *item;
            let g = &groups[gi];
            let start = b * PAIR_BLOCK;
            let k = g.members.len();
            for (p, chunk) in block.chunks(k).enumerate() {
                for (&fi, &d) in g.members.iter().zip(chunk) {
                    rows[fi][start + p] = d;
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_counts_match_paper() {
        let space = JoinFunctionSpace::full();
        assert_eq!(space.len(), 140);
        let char_fns = space
            .functions()
            .iter()
            .filter(|f| f.dist.is_char_based())
            .count();
        let set_fns = space
            .functions()
            .iter()
            .filter(|f| f.dist.is_set_based())
            .count();
        let emb_fns = space
            .functions()
            .iter()
            .filter(|f| f.dist == DistanceFunction::Embedding)
            .count();
        assert_eq!(char_fns, 8);
        assert_eq!(set_fns, 128);
        assert_eq!(emb_fns, 4);
    }

    #[test]
    fn subspace_sizes_are_as_documented() {
        assert_eq!(JoinFunctionSpace::reduced24().len(), 24);
        assert_eq!(JoinFunctionSpace::reduced38().len(), 38);
        assert_eq!(JoinFunctionSpace::reduced70().len(), 70);
        let sizes: Vec<usize> = JoinFunctionSpace::standard_subspaces()
            .iter()
            .map(|s| s.len())
            .collect();
        assert_eq!(sizes, vec![24, 38, 70, 140]);
    }

    #[test]
    fn all_functions_in_full_space_are_distinct() {
        let space = JoinFunctionSpace::full();
        let set: std::collections::HashSet<_> = space.functions().iter().collect();
        assert_eq!(set.len(), space.len());
    }

    #[test]
    fn example_2_1_jaccard_distance() {
        // Example 2.1 of the paper: f = (L, SP, EW, JD) applied to
        // (l1, r1) of Figure 3(a) gives 0.2.
        let f = JoinFunction::set_based(
            Preprocessing::Lower,
            Tokenization::Space,
            TokenWeighting::Equal,
            DistanceFunction::Jaccard,
        );
        let d = f.distance_str("2007 LSU Tigers football team", "LSU Tigers football team");
        assert!((d - 0.2).abs() < 1e-9, "expected 0.2, got {d}");
    }

    #[test]
    fn distances_are_bounded_for_all_functions() {
        let col = PreparedColumn::build(&[
            "2007 LSU Tigers football team",
            "Mississippi State Bulldogs",
            "",
            "Σπάρτη 1821!!",
        ]);
        for f in JoinFunctionSpace::full().functions() {
            for i in 0..col.len() {
                for j in 0..col.len() {
                    let d = f.distance(&col, i, j);
                    assert!(
                        (0.0..=1.0).contains(&d),
                        "{} produced out-of-range distance {d}",
                        f.code()
                    );
                }
            }
        }
    }

    #[test]
    fn identical_records_have_zero_distance_for_symmetric_functions() {
        let col = PreparedColumn::build(&["Grand Hotel Budapest", "Grand Hotel Budapest"]);
        for f in JoinFunctionSpace::full().functions() {
            let d = f.distance(&col, 0, 1);
            assert!(d < 1e-9, "{} gave {d} for identical strings", f.code());
        }
    }

    #[test]
    fn codes_round_trip_through_display() {
        let f = JoinFunction::set_based(
            Preprocessing::LowerStem,
            Tokenization::Gram3,
            TokenWeighting::Idf,
            DistanceFunction::Cosine,
        );
        assert_eq!(format!("{f}"), "(L+S, 3G, IDFW, CD)");
        let g = JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::Edit);
        assert_eq!(g.code(), "(L, ED)");
    }

    #[test]
    fn batch_distances_match_pointwise_evaluation() {
        let space = JoinFunctionSpace::reduced24();
        let col = PreparedColumn::build(&[
            "2007 LSU Tigers football team",
            "2007 LSU Tigers football",
            "Mississippi State Bulldogs",
            "",
        ]);
        let pairs = vec![(0usize, 1usize), (0, 2), (2, 3), (1, 1)];
        let batched = space.batch_distances(&col, &pairs);
        assert_eq!(batched.len(), space.len());
        for (f, row) in space.functions().iter().zip(&batched) {
            assert_eq!(row.len(), pairs.len());
            for (&(l, r), &d) in pairs.iter().zip(row) {
                assert_eq!(d, f.distance(&col, l, r), "{} diverged", f.code());
            }
        }
    }

    #[test]
    fn distance_between_query_record_matches_in_column_distance() {
        let col = PreparedColumn::build(&[
            "2007 LSU Tigers football team",
            "2007 LSU Tigers football",
            "Mississippi State Bulldogs",
        ]);
        for f in JoinFunctionSpace::full().functions() {
            for r in 0..col.len() {
                let q = col.prepare_query(&col.record(r).raw);
                for l in 0..col.len() {
                    let via_query = f.distance_between(&col, col.record(l), &q);
                    let in_column = f.distance(&col, l, r);
                    assert_eq!(via_query, in_column, "{} diverged", f.code());
                }
            }
        }
    }

    #[test]
    fn containment_function_is_directional() {
        let f = JoinFunction::set_based(
            Preprocessing::Lower,
            Tokenization::Space,
            TokenWeighting::Equal,
            DistanceFunction::ContainJaccard,
        );
        let col = PreparedColumn::build(&[
            "super bowl xl champions pittsburgh steelers",
            "super bowl xl",
        ]);
        // right ⊆ left: base distance (< 1)
        assert!(f.distance(&col, 0, 1) < 1.0);
        // left ⊄ right: distance 1
        assert_eq!(f.distance(&col, 1, 0), 1.0);
    }
}
