//! The distance kernels and the planner that shares their work.
//!
//! Every [`JoinFunction`] evaluation ends in this module:
//!
//! * one function between two prepared records routes char distances to the
//!   bit-parallel / banded kernels of [`crate::distance::myers`] and the
//!   bit-parallel Jaro kernel, and set distances to the merge walk of
//!   [`set::overlap`] — [`JoinFunction::distance_between`] is its public
//!   entry point, and the specification the shared walks below are pinned
//!   to;
//! * [`KernelGroup`] / [`plan_kernel_groups`] — the sharing planner: every
//!   set and hybrid function of one `(preprocessing, tokenization)` scheme,
//!   under both token weightings, shares one **marked walk** per pair, since
//!   all of their distances are pure functions of the two weightings'
//!   [`set::SetOverlap`] statistics.  [`KernelGroup::eval_records_into`]
//!   evaluates one pair for every member; the nearest fold, the ball
//!   neighbourhood walk and [`crate::JoinFunctionSpace::batch_distances`]
//!   are built on it.
//!
//! ## The marked walk
//!
//! A set family holds one record of its pairs fixed — the right record of a
//! nearest fold, the reference record of a neighbourhood walk.  It marks the
//! fixed record's tokens in a dense per-thread table of [`KernelScratch`]
//! and sums the record's norms once: its token count, and its Σw and Σw²
//! under IDF.  Each other record is then walked once, adding its own norms
//! and, for each marked token, the intersection's — the overlap
//! accumulation of AllPairs (Bayardo et al., WWW 2007) and PPJoin (Xiao et
//! al., WWW 2008).  Both weightings' overlaps come from those sums: an
//! equal weight and its square are both 1, so every equal-weight sum is a
//! token count, exact as an integer; an IDF sum adds its terms in ascending
//! id order — a record's norms over its own ids, the intersection over the
//! walked record's — which is the order [`set::overlap`]'s merge adds them
//! in.  So every member's distance is bit-identical to the merge walk's,
//! with one walk per pair per scheme instead of one per weighting and
//! family.
//!
//! ## The bound contract
//!
//! With `bound = Some(τ)` a kernel must return the **exact** distance for
//! every pair whose exact distance is `≤ τ`, and for other pairs may return
//! any value `d` with `τ < d ≤ exact`.  Callers that compare against `τ` (or
//! keep a running minimum initialized at `τ`) therefore make byte-identical
//! decisions whether or not the bound is supplied.

use crate::distance::hybrid::{containment_distance, ContainmentBase};
use crate::distance::jaro::{bounded_jaro_winkler_ids, JaroScratch};
use crate::distance::myers::{bounded_normalized_edit, EditScratch};
use crate::distance::{clamp_unit, embed, set};
use crate::joinfn::{DistanceFunction, JoinFunction};
use crate::prepared::{prep_index, scheme_index, PreparedColumn, PreparedRecord};
use crate::weights::{TokenWeighting, WeightTable};
use std::cell::RefCell;

/// Reusable working memory for every kernel family (one per worker thread).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Bit-parallel / banded edit-distance buffers.
    pub edit: EditScratch,
    /// Jaro pattern masks and match-flag words.
    pub jaro: JaroScratch,
    /// The marked walk's table: `marks[id]` is set exactly while `id` is a
    /// token of the record a set family holds fixed (one byte per id up to
    /// the largest id marked so far).
    marks: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// Run `f` with this thread's kernel scratch.  Distance evaluation is never
/// re-entrant per thread, so a single thread-local scratch serves every
/// caller that has no scratch of its own to pass down.
pub fn with_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The kernel family a join function is served by (used for per-family
/// timing attribution and planning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Bit-parallel / banded normalized edit distance.
    Edit,
    /// Bit-parallel Jaro-Winkler.
    Jaro,
    /// Weighted set distances (JD/CD/DD/MD/ID) and their containment
    /// hybrids (Contain-JD/CD/DD): one marked walk per scheme.
    Set,
    /// Hashed-embedding cosine distance.
    Embed,
}

impl KernelFamily {
    /// The family serving a distance function.
    pub fn of(dist: DistanceFunction) -> Self {
        match dist {
            DistanceFunction::Edit => KernelFamily::Edit,
            DistanceFunction::JaroWinkler => KernelFamily::Jaro,
            DistanceFunction::Embedding => KernelFamily::Embed,
            _ => KernelFamily::Set,
        }
    }

    /// Stable lower-case label (bench report phase names).
    pub fn label(&self) -> &'static str {
        match self {
            KernelFamily::Edit => "edit",
            KernelFamily::Jaro => "jaro",
            KernelFamily::Set => "set",
            KernelFamily::Embed => "embed",
        }
    }
}

/// Distance of `func` between two prepared records, using `col` only for
/// its weight tables: char distances go to the bit-parallel / banded and
/// Jaro kernels (honouring `bound`), set distances to one merge walk.
pub(crate) fn eval_function(
    col: &PreparedColumn,
    func: JoinFunction,
    scratch: &mut KernelScratch,
    lr: &PreparedRecord,
    rr: &PreparedRecord,
    bound: Option<f64>,
) -> f64 {
    let pi = prep_index(func.prep);
    match func.dist {
        DistanceFunction::JaroWinkler => {
            bounded_jaro_winkler_ids(&lr.char_ids[pi], &rr.char_ids[pi], bound, &mut scratch.jaro)
        }
        DistanceFunction::Edit => {
            bounded_normalized_edit(&lr.char_ids[pi], &rr.char_ids[pi], bound, &mut scratch.edit)
        }
        DistanceFunction::Embedding => {
            embed::cosine_distance(&lr.embeddings[pi], &rr.embeddings[pi])
        }
        dist => {
            let tok = func.tok.unwrap_or(crate::tokenize::Tokenization::Space);
            let weighting = func.weight.unwrap_or(TokenWeighting::Equal);
            let si = scheme_index(func.prep, tok);
            let weights = col.weight_table(func.prep, tok, weighting);
            let o = set::overlap(&lr.token_sets[si], &rr.token_sets[si], weights);
            set_member_distance(&o, dist)
        }
    }
}

/// Distance of one set / hybrid member from shared overlap statistics.
fn set_member_distance(o: &set::SetOverlap, dist: DistanceFunction) -> f64 {
    let d = match dist {
        DistanceFunction::Jaccard => o.jaccard_distance(),
        DistanceFunction::Cosine => o.cosine_distance(),
        DistanceFunction::Dice => o.dice_distance(),
        DistanceFunction::MaxInclusion => o.max_inclusion_distance(),
        DistanceFunction::Intersect => o.intersect_distance(),
        DistanceFunction::ContainJaccard => containment_distance(o, ContainmentBase::Jaccard),
        DistanceFunction::ContainCosine => containment_distance(o, ContainmentBase::Cosine),
        DistanceFunction::ContainDice => containment_distance(o, ContainmentBase::Dice),
        _ => unreachable!("char/embedding distances are not set members"),
    };
    clamp_unit(d)
}

/// Token sums of one record of a pair, or of the pair's intersection, under
/// both weightings.  An equal weight and its square are both 1, so `count`
/// stands for the equal-weight Σw and Σw² alike, exactly.
#[derive(Debug, Clone, Copy, Default)]
struct SetSums {
    /// Number of tokens.
    count: usize,
    /// Σw under IDF.
    idf: f64,
    /// Σw² under IDF.
    idf_sq: f64,
}

impl SetSums {
    #[inline]
    fn add(&mut self, w: f64) {
        self.count += 1;
        self.idf += w;
        self.idf_sq += w * w;
    }

    /// The sums of a sorted id set, added in ascending id order.
    fn of(ids: &[u32], idf: &WeightTable) -> Self {
        let mut sums = Self::default();
        for &id in ids {
            sums.add(idf.weight(id));
        }
        sums
    }

    /// `(Σw, Σw²)` under `weighting`.
    fn weighted(&self, weighting: TokenWeighting) -> (f64, f64) {
        match weighting {
            TokenWeighting::Equal => (self.count as f64, self.count as f64),
            TokenWeighting::Idf => (self.idf, self.idf_sq),
        }
    }
}

/// The [`set::SetOverlap`] of sets `a` and `b` under `weighting`, from the
/// sums of each and of their intersection `both` — what [`set::overlap`]
/// returns for the same pair, bit for bit.
fn overlap_of(
    a: &SetSums,
    b: &SetSums,
    both: &SetSums,
    weighting: TokenWeighting,
) -> set::SetOverlap {
    let ((weight_a, sq_weight_a), (weight_b, sq_weight_b)) =
        (a.weighted(weighting), b.weighted(weighting));
    let (intersection, sq_intersection) = both.weighted(weighting);
    set::SetOverlap {
        intersection,
        weight_a,
        weight_b,
        sq_weight_a,
        sq_weight_b,
        sq_intersection,
        b_subset_of_a: both.count == b.count,
        a_subset_of_b: both.count == a.count,
    }
}

/// How a [`KernelGroup`] evaluates its members.
#[derive(Debug, Clone)]
pub enum GroupKind {
    /// A single function with its own kernel (char / embedding distances).
    Single(JoinFunction),
    /// Every set and hybrid function of one `(preprocessing, tokenization)`
    /// scheme, under either weighting: one marked walk per pair yields the
    /// sums both weightings' [`set::SetOverlap`] derive from, and each
    /// member's distance comes from its weighting's overlap.
    SetFamily {
        /// Shared pre-processing option.
        prep: crate::preprocess::Preprocessing,
        /// Shared tokenization option.
        tok: crate::tokenize::Tokenization,
        /// Distance member and token weighting per output slot, aligned
        /// with `members`.
        slots: Vec<(DistanceFunction, TokenWeighting)>,
    },
}

/// A set of join functions evaluated together over each pair.
#[derive(Debug, Clone)]
pub struct KernelGroup {
    /// Kernel family (timing attribution; uniform within a group).
    pub family: KernelFamily,
    /// Indices of the member functions in the originating function list.
    pub members: Vec<usize>,
    /// Evaluation strategy.
    pub kind: GroupKind,
}

/// The side of its pairs a [`Fixed`] record is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// A kernel group holding one record of its pairs fixed while other records
/// are evaluated against it in turn.  A set family marks the fixed record's
/// tokens in the scratch's table and sums its norms once, on creation, and
/// clears the marks on drop.
struct Fixed<'a> {
    group: &'a KernelGroup,
    col: &'a PreparedColumn,
    scratch: &'a mut KernelScratch,
    record: &'a PreparedRecord,
    side: Side,
    /// A set family's scheme tokens of `record`, marked in `scratch`; empty
    /// for a single function.
    marked: &'a [u32],
    /// The sums of `marked`.
    sums: SetSums,
}

impl<'a> Fixed<'a> {
    fn new(
        group: &'a KernelGroup,
        col: &'a PreparedColumn,
        scratch: &'a mut KernelScratch,
        record: &'a PreparedRecord,
        side: Side,
    ) -> Self {
        let (marked, sums) = match &group.kind {
            GroupKind::Single(_) => (&[][..], SetSums::default()),
            GroupKind::SetFamily { prep, tok, .. } => {
                let ids = &record.token_sets[scheme_index(*prep, *tok)][..];
                // Sorted ids: the last is the largest.  Query records carry
                // ids at or past the vocabulary's end; the table grows to
                // them.
                if let Some(&max) = ids.last() {
                    if scratch.marks.len() <= max as usize {
                        scratch.marks.resize(max as usize + 1, false);
                    }
                }
                for &id in ids {
                    scratch.marks[id as usize] = true;
                }
                let idf = col.weight_table(*prep, *tok, TokenWeighting::Idf);
                (ids, SetSums::of(ids, idf))
            }
        };
        Self {
            group,
            col,
            scratch,
            record,
            side,
            marked,
            sums,
        }
    }

    /// Evaluate the pair of the fixed record and `other` into `out`, one
    /// slot per member; `bound` as for [`KernelGroup::eval_records_into`].
    fn eval(&mut self, other: &PreparedRecord, bound: Option<f64>, out: &mut [f64]) {
        match &self.group.kind {
            GroupKind::Single(func) => {
                let (lr, rr) = match self.side {
                    Side::Left => (self.record, other),
                    Side::Right => (other, self.record),
                };
                out[0] = eval_function(self.col, *func, self.scratch, lr, rr, bound);
            }
            GroupKind::SetFamily { prep, tok, slots } => {
                let idf = self.col.weight_table(*prep, *tok, TokenWeighting::Idf);
                let marks = &self.scratch.marks;
                let (mut walked, mut both) = (SetSums::default(), SetSums::default());
                for &id in &other.token_sets[scheme_index(*prep, *tok)] {
                    let w = idf.weight(id);
                    walked.add(w);
                    if marks.get(id as usize) == Some(&true) {
                        both.add(w);
                    }
                }
                let (a, b) = match self.side {
                    Side::Left => (&self.sums, &walked),
                    Side::Right => (&walked, &self.sums),
                };
                let [by_equal, by_idf] = TokenWeighting::ALL.map(|w| overlap_of(a, b, &both, w));
                for (slot, &(dist, weighting)) in out.iter_mut().zip(slots) {
                    let o = match weighting {
                        TokenWeighting::Equal => &by_equal,
                        TokenWeighting::Idf => &by_idf,
                    };
                    *slot = set_member_distance(o, dist);
                }
            }
        }
    }
}

impl Drop for Fixed<'_> {
    fn drop(&mut self) {
        for &id in self.marked {
            self.scratch.marks[id as usize] = false;
        }
    }
}

impl KernelGroup {
    /// Evaluate one pair of prepared records into `out` (one slot per
    /// member, aligned with `self.members`).  `bound` is honoured by
    /// single-function char kernels and ignored by the (already cheap)
    /// marked walk, which is always contract-safe.
    pub fn eval_records_into(
        &self,
        col: &PreparedColumn,
        scratch: &mut KernelScratch,
        lr: &PreparedRecord,
        rr: &PreparedRecord,
        bound: Option<f64>,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), self.members.len());
        Fixed::new(self, col, scratch, rr, Side::Right).eval(lr, bound, out);
    }

    /// Fold `candidates` (left records of `col`, in order) into the nearest
    /// one to `rr` per member, through [`offer_nearest`]; `out` gets one
    /// slot per member, aligned with `self.members`.  `rr` is passed
    /// explicitly, so an in-column record and a
    /// [`PreparedColumn::prepare_query`] record take the same code.
    ///
    /// A single-member group passes the incumbent distance as the kernel
    /// bound: the kernel is exact whenever it could beat or tie the
    /// incumbent and otherwise returns a value that still loses the
    /// `d >= best` comparison, so the fold is byte-identical to an unbounded
    /// one.  A set family marks `rr` once and walks each candidate once.
    #[inline]
    pub fn nearest_into(
        &self,
        col: &PreparedColumn,
        candidates: &[usize],
        rr: &PreparedRecord,
        out: &mut [Option<(u32, f32)>],
    ) {
        let k = self.members.len();
        debug_assert_eq!(out.len(), k);
        out.fill(None);
        let mut dists = vec![0.0; k];
        with_scratch(|scratch| {
            let mut fixed = Fixed::new(self, col, scratch, rr, Side::Right);
            for &l in candidates {
                let bound = match (k, out[0]) {
                    (1, Some((_, bd))) => Some(bd as f64),
                    _ => None,
                };
                fixed.eval(col.record(l), bound, &mut dists);
                for (slot, &d) in out.iter_mut().zip(&dists) {
                    offer_nearest(slot, l as u32, d);
                }
            }
        });
    }

    /// The sorted L–L ball neighbourhood of reference record `lr` (Eq. 8/9)
    /// per member: the `f32` distances to `candidates` that are finite and
    /// below the member's entry of `cutoffs`, pushed in candidate order and
    /// then sorted ascending.  `bound` follows the bound contract, so it
    /// must leave every distance a cutoff keeps exact.  A set family marks
    /// `lr` once and walks each candidate once.
    pub fn neighbourhood_into(
        &self,
        col: &PreparedColumn,
        lr: &PreparedRecord,
        candidates: &[usize],
        bound: Option<f64>,
        cutoffs: &[f64],
        out: &mut [Vec<f32>],
    ) {
        let k = self.members.len();
        debug_assert_eq!(out.len(), k);
        let mut dists = vec![0.0; k];
        with_scratch(|scratch| {
            let mut fixed = Fixed::new(self, col, scratch, lr, Side::Left);
            for &l2 in candidates {
                fixed.eval(col.record(l2), bound, &mut dists);
                for ((row, &cutoff), &d) in out.iter_mut().zip(cutoffs).zip(&dists) {
                    let d = d as f32;
                    if d.is_finite() && (d as f64) < cutoff {
                        row.push(d);
                    }
                }
            }
        });
        for row in out {
            row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
    }
}

/// Offer left record `l` at distance `d` to a running nearest-neighbour
/// slot (Eq. 1): `d` is narrowed to `f32`, a non-finite value is skipped,
/// and only a strictly smaller distance replaces the incumbent, so the
/// first of equally near candidates wins.
#[inline]
pub fn offer_nearest(slot: &mut Option<(u32, f32)>, l: u32, d: f64) {
    let d = d as f32;
    if !d.is_finite() {
        return;
    }
    match slot {
        Some((_, bd)) if d >= *bd => {}
        _ => *slot = Some((l, d)),
    }
}

/// Plan shared-evaluation groups over a function list.
///
/// Set-based functions — the standard set distances and their containment
/// hybrids, under either weighting — are grouped by `(preprocessing,
/// tokenization)`: every member's distance is derived from the one marked
/// walk the group performs per pair.  Char and embedding functions become
/// single-member groups.  Groups are ordered by first member appearance and
/// members keep their original indices, so any iteration that respects
/// group/member order reproduces the per-function evaluation order exactly.
pub fn plan_kernel_groups(functions: &[JoinFunction]) -> Vec<KernelGroup> {
    let mut groups: Vec<KernelGroup> = Vec::new();
    for (fi, f) in functions.iter().enumerate() {
        let family = KernelFamily::of(f.dist);
        let (Some(tok), Some(weight), true) = (f.tok, f.weight, f.dist.is_set_based()) else {
            groups.push(KernelGroup {
                family,
                members: vec![fi],
                kind: GroupKind::Single(*f),
            });
            continue;
        };
        let slot = (f.dist, weight);
        let scheme = groups.iter_mut().find_map(|g| match &mut g.kind {
            GroupKind::SetFamily {
                prep,
                tok: t,
                slots,
            } if *prep == f.prep && *t == tok => Some((&mut g.members, slots)),
            _ => None,
        });
        match scheme {
            Some((members, slots)) => {
                members.push(fi);
                slots.push(slot);
            }
            None => groups.push(KernelGroup {
                family,
                members: vec![fi],
                kind: GroupKind::SetFamily {
                    prep: f.prep,
                    tok,
                    slots: vec![slot],
                },
            }),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joinfn::JoinFunctionSpace;

    #[test]
    fn groups_cover_every_function_exactly_once() {
        for space in [
            JoinFunctionSpace::reduced24(),
            JoinFunctionSpace::full(),
            JoinFunctionSpace::reduced38(),
        ] {
            let groups = plan_kernel_groups(space.functions());
            let mut seen = vec![false; space.len()];
            for g in &groups {
                for &m in &g.members {
                    assert!(!seen[m], "function {m} appears in two groups");
                    seen[m] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "some function missing from plan");
        }
    }

    /// `(set-family sizes, number of single groups)` of a space's plan.
    fn plan_shape(space: &JoinFunctionSpace) -> (Vec<usize>, usize) {
        let groups = plan_kernel_groups(space.functions());
        let sets = (groups.iter())
            .filter(|g| matches!(g.kind, GroupKind::SetFamily { .. }))
            .map(|g| g.members.len())
            .collect();
        let singles = (groups.iter())
            .filter(|g| matches!(g.kind, GroupKind::Single(_)))
            .count();
        assert!(groups
            .iter()
            .all(|g| matches!(g.kind, GroupKind::Single(_)) || g.family == KernelFamily::Set));
        (sets, singles)
    }

    #[test]
    fn reduced24_plans_two_scheme_groups_of_ten() {
        // 1 prep × 2 toks, each walking the 5 standard set distances under
        // both weightings at once; 2 char + 2 embed singles.
        let (sets, singles) = plan_shape(&JoinFunctionSpace::reduced24());
        assert_eq!(sets, vec![10, 10]);
        assert_eq!(singles, 4);
    }

    #[test]
    fn full140_plans_eight_scheme_groups_of_sixteen() {
        // 4 preps × 2 toks, each walking the 5 set distances and 3 hybrids
        // under both weightings at once; edit, Jaro and embed per prep.
        let (sets, singles) = plan_shape(&JoinFunctionSpace::full());
        assert_eq!(sets, vec![16; 8]);
        assert_eq!(singles, 12);
        assert_eq!(
            plan_kernel_groups(JoinFunctionSpace::full().functions()).len(),
            20
        );
    }

    #[test]
    fn group_evaluation_matches_per_function_distance() {
        let col = PreparedColumn::build(&[
            "2007 LSU Tigers football team",
            "2007 LSU Tigers football",
            "Mississippi State Bulldogs",
            "",
        ]);
        // Query records hold words the column never saw, so `prepare_query`
        // gives them token ids at or past each vocabulary's end.
        let queries: Vec<PreparedRecord> = ["2008 LSU Tigers hockey club", "Auburn Tigers"]
            .iter()
            .map(|q| col.prepare_query(q))
            .collect();
        let si = scheme_index(crate::Preprocessing::Lower, crate::Tokenization::Space);
        let vocab_len = col.vocab_by_scheme(si).len() as u32;
        assert!(queries
            .iter()
            .all(|q| q.token_sets[si].iter().any(|&id| id >= vocab_len)));
        let rights: Vec<&PreparedRecord> = (0..col.len())
            .map(|r| col.record(r))
            .chain(&queries)
            .collect();
        let lefts: Vec<usize> = (0..col.len()).collect();
        for space in [JoinFunctionSpace::reduced24(), JoinFunctionSpace::full()] {
            let groups = plan_kernel_groups(space.functions());
            let mut scratch = KernelScratch::default();
            for g in &groups {
                let mut out = vec![0.0; g.members.len()];
                let mut nearest = vec![None; g.members.len()];
                for &rr in &rights {
                    let mut expect_nearest = vec![None; g.members.len()];
                    for l in 0..col.len() {
                        g.eval_records_into(&col, &mut scratch, col.record(l), rr, None, &mut out);
                        for ((&fi, &d), best) in g.members.iter().zip(&out).zip(&mut expect_nearest)
                        {
                            let f = space.functions()[fi];
                            let expect = f.distance_between(&col, col.record(l), rr);
                            assert_eq!(d, expect, "{} diverged", f.code());
                            offer_nearest(best, l as u32, expect);
                        }
                    }
                    g.nearest_into(&col, &lefts, rr, &mut nearest);
                    assert_eq!(nearest, expect_nearest);
                }
            }
        }
    }

    #[test]
    fn family_labels_are_stable() {
        assert_eq!(KernelFamily::of(DistanceFunction::Edit).label(), "edit");
        assert_eq!(
            KernelFamily::of(DistanceFunction::JaroWinkler).label(),
            "jaro"
        );
        assert_eq!(KernelFamily::of(DistanceFunction::Jaccard).label(), "set");
        assert_eq!(
            KernelFamily::of(DistanceFunction::ContainDice).label(),
            "set"
        );
        assert_eq!(
            KernelFamily::of(DistanceFunction::Embedding).label(),
            "embed"
        );
    }
}
