//! The distance kernels and the planner that shares their work.
//!
//! Every [`JoinFunction`] evaluation ends in this module:
//!
//! * one function between two prepared records routes char distances to the
//!   bit-parallel / banded kernels of [`crate::distance::myers`] and the
//!   bit-parallel Jaro kernel, and set distances to the merge walk of
//!   [`crate::distance::set`] — [`JoinFunction::distance_between`] is its
//!   public entry point;
//! * [`KernelGroup`] / [`plan_kernel_groups`] — the sharing planner: set (and
//!   hybrid) functions that differ only in the distance member share one
//!   `(preprocessing, tokenization, weighting)` merge walk per pair, since
//!   all of their distances are pure functions of the same [`set::SetOverlap`]
//!   statistics.  [`KernelGroup::eval_records_into`] evaluates one pair for
//!   every member; the nearest fold, the ball neighbourhood walk and
//!   [`crate::JoinFunctionSpace::batch_distances`] are built on it.
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
use std::cell::RefCell;

/// Reusable working memory for every kernel family (one per worker thread).
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Bit-parallel / banded edit-distance buffers.
    pub edit: EditScratch,
    /// Jaro pattern masks and match-flag words.
    pub jaro: JaroScratch,
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
    /// Merge-walk weighted set distances (JD/CD/DD/MD/ID).
    Set,
    /// Containment hybrids (Contain-JD/CD/DD) — a set merge walk plus the
    /// containment gate.
    Hybrid,
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
            DistanceFunction::ContainJaccard
            | DistanceFunction::ContainCosine
            | DistanceFunction::ContainDice => KernelFamily::Hybrid,
            _ => KernelFamily::Set,
        }
    }

    /// Stable lower-case label (bench report phase names).
    pub fn label(&self) -> &'static str {
        match self {
            KernelFamily::Edit => "edit",
            KernelFamily::Jaro => "jaro",
            KernelFamily::Set => "set",
            KernelFamily::Hybrid => "hybrid",
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
            let weighting = func.weight.unwrap_or(crate::weights::TokenWeighting::Equal);
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

/// How a [`KernelGroup`] evaluates its members.
#[derive(Debug, Clone)]
pub enum GroupKind {
    /// A single function with its own kernel (char / embedding distances).
    Single(JoinFunction),
    /// Set or hybrid functions sharing one merge walk per pair: all members
    /// use the same `(preprocessing, tokenization, weighting)` scheme and
    /// differ only in the distance derived from the shared overlap.
    SetFamily {
        /// Shared pre-processing option.
        prep: crate::preprocess::Preprocessing,
        /// Shared tokenization option.
        tok: crate::tokenize::Tokenization,
        /// Shared token weighting.
        weight: crate::weights::TokenWeighting,
        /// Distance member per output slot, aligned with `members`.
        slots: Vec<DistanceFunction>,
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

impl KernelGroup {
    /// Evaluate one pair of prepared records into `out` (one slot per
    /// member, aligned with `self.members`).  `bound` is honoured by
    /// single-function char kernels and ignored by the (already cheap)
    /// merge-walk families, which is always contract-safe.
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
        match &self.kind {
            GroupKind::Single(func) => {
                out[0] = eval_function(col, *func, scratch, lr, rr, bound);
            }
            GroupKind::SetFamily {
                prep,
                tok,
                weight,
                slots,
            } => {
                let si = scheme_index(*prep, *tok);
                let weights = col.weight_table(*prep, *tok, *weight);
                let o = set::overlap(&lr.token_sets[si], &rr.token_sets[si], weights);
                for (slot, &dist) in out.iter_mut().zip(slots) {
                    *slot = set_member_distance(&o, dist);
                }
            }
        }
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
    /// one.  Multi-member groups share one merge walk per pair.
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
            for &l in candidates {
                let bound = match (k, out[0]) {
                    (1, Some((_, bd))) => Some(bd as f64),
                    _ => None,
                };
                self.eval_records_into(col, scratch, col.record(l), rr, bound, &mut dists);
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
    /// must leave every distance a cutoff keeps exact.
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
            for &l2 in candidates {
                self.eval_records_into(col, scratch, lr, col.record(l2), bound, &mut dists);
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
/// Set-based functions are grouped by `(preprocessing, tokenization,
/// weighting, family)` — every member's distance is derived from the one
/// merge walk the group performs per pair (hybrids group separately from the
/// standard set distances so per-family timing stays honest).  Char and
/// embedding functions become single-member groups.  Groups are ordered by
/// first member appearance and members keep their original indices, so any
/// iteration that respects group/member order reproduces the per-function
/// evaluation order exactly.
pub fn plan_kernel_groups(functions: &[JoinFunction]) -> Vec<KernelGroup> {
    let mut groups: Vec<KernelGroup> = Vec::new();
    for (fi, f) in functions.iter().enumerate() {
        let family = KernelFamily::of(f.dist);
        if let (Some(tok), Some(weight), true) = (f.tok, f.weight, f.dist.is_set_based()) {
            if let Some(g) = groups.iter_mut().find(|g| {
                g.family == family
                    && matches!(
                        &g.kind,
                        GroupKind::SetFamily { prep, tok: t, weight: w, .. }
                            if *prep == f.prep && *t == tok && *w == weight
                    )
            }) {
                g.members.push(fi);
                if let GroupKind::SetFamily { slots, .. } = &mut g.kind {
                    slots.push(f.dist);
                }
                continue;
            }
            groups.push(KernelGroup {
                family,
                members: vec![fi],
                kind: GroupKind::SetFamily {
                    prep: f.prep,
                    tok,
                    weight,
                    slots: vec![f.dist],
                },
            });
        } else {
            groups.push(KernelGroup {
                family,
                members: vec![fi],
                kind: GroupKind::Single(*f),
            });
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

    #[test]
    fn reduced24_plans_four_set_family_groups_of_five() {
        let space = JoinFunctionSpace::reduced24();
        let groups = plan_kernel_groups(space.functions());
        let family_sizes: Vec<usize> = groups
            .iter()
            .filter(|g| g.family == KernelFamily::Set)
            .map(|g| g.members.len())
            .collect();
        // 1 prep × 2 toks × 2 weights, each sharing the 5 standard set
        // distances in one merge walk.
        assert_eq!(family_sizes, vec![5, 5, 5, 5]);
        // 2 char + 2 embed singles.
        assert_eq!(groups.len(), 4 + 4);
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
            "hybrid"
        );
        assert_eq!(
            KernelFamily::of(DistanceFunction::Embedding).label(),
            "embed"
        );
    }
}
