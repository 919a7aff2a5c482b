//! Reference-vs-fast properties for the distance kernels (proptest).
//!
//! The bit-parallel / banded / merge-walk kernels behind
//! [`autofj_text::KernelGroup`] must be **bit-identical** to the retained
//! scalar reference implementations on every input, at every bound, at every
//! thread count — these properties pin that contract:
//!
//! * the Myers bit-parallel Levenshtein equals the single-row reference DP,
//!   including across the 64-char block boundary;
//! * the bit-parallel Jaro-Winkler equals the textbook window scan, across
//!   the 64- and 128-char word boundaries;
//! * both kernels read character ids `≥ 256` through the mask table's spill
//!   list, and a reused scratch leaks no mask bits from one call to the next;
//! * a bounded kernel call with `bound = Some(τ)` returns the exact distance
//!   whenever the true distance is ≤ τ, and some value > τ otherwise;
//! * grouped evaluation (`KernelGroup::eval_records_into`,
//!   `batch_distances`) returns the same bytes as the one-function-at-a-time
//!   [`JoinFunction::distance`] path;
//! * every function's per-pair distance — edit, Jaro, embed and every set
//!   member — equals the scalar spec [`spec_distance`] bit for bit;
//! * a set family's marked walk — every set and hybrid member under both
//!   weightings, with the fixed record on either side, over empty sets and
//!   ids at or past the vocabulary's end — returns the bytes of
//!   [`spec_distance`], and so do the nearest fold and the neighbourhood
//!   walk built on it;
//! * every kernel family but the containment hybrids is symmetric bit for
//!   bit: `d(a, b)` and `d(b, a)` are the same `f64`.

use autofj_text::distance::jaro::{bounded_jaro_winkler_ids, JaroScratch};
use autofj_text::distance::myers::{bounded_normalized_edit, levenshtein_ids, EditScratch};
use autofj_text::distance::reference::{
    char_ids, jaro_winkler_distance_reference, levenshtein_reference, normalized_edit_reference,
    spec_distance,
};
use autofj_text::kernel::{offer_nearest, GroupKind};
use autofj_text::{
    plan_kernel_groups, DistanceFunction, JoinFunctionSpace, KernelScratch, PreparedColumn,
    PreparedRecord,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Strategy: short token-ish strings (letters, digits, spaces).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9]{1,8}( [A-Za-z0-9]{1,8}){0,5}").unwrap()
}

/// Strategy: id sequences over a tiny alphabet (forces matches and runs) that
/// regularly cross the 64-cell block boundary of the bit-parallel kernel.
fn ids_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..6, 0..150)
}

/// The shim has no `prop_map`; widen generated ids in the test body.
fn to_u32(v: &[usize]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

/// A mixed alphabet: ASCII, the top of the direct mask table (255) and ids
/// past it (Greek, CJK, an emoji) that the mask table spills.
const MIXED: [u32; 8] = [97, 98, 32, 255, 0x100, 0x3B1, 0x4E2D, 0x1F600];

/// Strategy: indices into [`MIXED`], lengths crossing the word boundaries.
fn mixed_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..MIXED.len(), 0..150)
}

fn to_mixed(v: &[usize]) -> Vec<u32> {
    v.iter().map(|&x| MIXED[x]).collect()
}

/// Jaro-Winkler through `scratch`, bounded and unbounded, against the
/// reference: exact without a bound, and the bound contract with one.
fn check_jaro(
    a: &[u32],
    b: &[u32],
    tau: f64,
    scratch: &mut JaroScratch,
) -> Result<(), TestCaseError> {
    let exact = jaro_winkler_distance_reference(a, b);
    let unbounded = bounded_jaro_winkler_ids(a, b, None, scratch);
    prop_assert_eq!(unbounded.to_bits(), exact.to_bits());
    let bounded = bounded_jaro_winkler_ids(a, b, Some(tau), scratch);
    if exact <= tau {
        prop_assert_eq!(bounded.to_bits(), exact.to_bits());
    } else {
        prop_assert!(
            bounded > tau,
            "exact {exact} > τ {tau} but kernel said {bounded}"
        );
        prop_assert!(bounded <= exact);
    }
    Ok(())
}

/// Strategy: column values over a two-letter word alphabet, so token sets
/// often overlap and contain one another; `""` and `"-"` give records whose
/// token sets are empty in some or all schemes.
fn word_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("(|-|[ab]{1,2}( [ab]{1,2}){0,4})").unwrap()
}

/// Strategy: query values whose `c` words and grams the column never saw,
/// so `prepare_query` gives them ids at or past each vocabulary's end.
fn query_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[abc]{1,2}( [abc]{1,2}){0,4}").unwrap()
}

/// The records a set-family property walks, on either side of a pair: the
/// column's own, `queries` prepared against it, and one record per
/// `crafted` id list, its every scheme's set holding those ids shifted to
/// straddle the scheme's vocabulary end (unmarked, weight 1.0 past it).
fn walk_records(
    col: &PreparedColumn,
    queries: &[String],
    crafted: &[Vec<usize>],
) -> Vec<PreparedRecord> {
    let mut records: Vec<PreparedRecord> = col.records().to_vec();
    records.extend(queries.iter().map(|q| col.prepare_query(q)));
    for ids in crafted {
        let mut rec = col.record(0).clone();
        for (si, set) in rec.token_sets.iter_mut().enumerate() {
            let end = col.vocab_by_scheme(si).len();
            *set = ids
                .iter()
                .map(|&x| (end + x).saturating_sub(24) as u32)
                .collect();
            set.sort_unstable();
            set.dedup();
        }
        records.push(rec);
    }
    records
}

/// The containment hybrids: asymmetric by definition (`B ⊆ A`).
fn is_hybrid(dist: DistanceFunction) -> bool {
    matches!(
        dist,
        DistanceFunction::ContainJaccard
            | DistanceFunction::ContainCosine
            | DistanceFunction::ContainDice
    )
}

/// `build_global` mutates process-wide state; the thread-count sweep
/// serializes on this lock (same pattern as the workspace property tests).
static POOL_LOCK: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bit-parallel Levenshtein kernel equals the reference DP on
    /// arbitrary id sequences, including multi-block patterns.
    #[test]
    fn myers_matches_reference_dp(a in ids_strategy(), b in ids_strategy()) {
        let (a, b) = (to_u32(&a), to_u32(&b));
        let mut scratch = EditScratch::default();
        prop_assert_eq!(
            levenshtein_ids(&a, &b, &mut scratch),
            levenshtein_reference(&a, &b)
        );
        // Scratch reuse (the production pattern) must not change results.
        prop_assert_eq!(
            levenshtein_ids(&b, &a, &mut scratch),
            levenshtein_reference(&b, &a)
        );
    }

    /// Bounded edit distance honours the bound contract: exact when the true
    /// distance is within the bound, strictly above the bound otherwise.
    #[test]
    fn bounded_edit_honours_contract(
        a in ids_strategy(),
        b in ids_strategy(),
        tau in -0.1f64..1.2,
    ) {
        let (a, b) = (to_u32(&a), to_u32(&b));
        let exact = normalized_edit_reference(&a, &b);
        let mut scratch = EditScratch::default();
        let unbounded = bounded_normalized_edit(&a, &b, None, &mut scratch);
        prop_assert_eq!(unbounded.to_bits(), exact.to_bits());
        let bounded = bounded_normalized_edit(&a, &b, Some(tau), &mut scratch);
        if exact <= tau {
            prop_assert_eq!(bounded.to_bits(), exact.to_bits());
        } else {
            prop_assert!(bounded > tau, "exact {exact} > τ {tau} but kernel said {bounded}");
            prop_assert!(bounded <= exact);
        }
    }

    /// Bounded Jaro-Winkler honours the same contract against the scalar
    /// reference on short names.
    #[test]
    fn bounded_jaro_winkler_honours_contract(
        a in name_strategy(),
        b in name_strategy(),
        tau in -0.1f64..1.2,
    ) {
        check_jaro(&char_ids(&a), &char_ids(&b), tau, &mut JaroScratch::default())?;
    }

    /// The bit-parallel Jaro scan equals the reference on id sequences whose
    /// lengths cross the 64- and 128-char word boundaries, in both orders.
    #[test]
    fn jaro_matches_reference_across_words(
        a in ids_strategy(),
        b in ids_strategy(),
        tau in -0.1f64..1.2,
    ) {
        let (a, b) = (to_u32(&a), to_u32(&b));
        let mut scratch = JaroScratch::default();
        check_jaro(&a, &b, tau, &mut scratch)?;
        check_jaro(&b, &a, tau, &mut scratch)?;
    }

    /// Both kernels are exact on ids past the direct mask table (the spill
    /// list), mixed with direct ones.
    #[test]
    fn kernels_match_reference_on_spilled_ids(
        a in mixed_strategy(),
        b in mixed_strategy(),
        tau in -0.1f64..1.2,
    ) {
        let (a, b) = (to_mixed(&a), to_mixed(&b));
        check_jaro(&a, &b, tau, &mut JaroScratch::default())?;
        let mut scratch = EditScratch::default();
        prop_assert_eq!(levenshtein_ids(&a, &b, &mut scratch), levenshtein_reference(&a, &b));
        prop_assert_eq!(
            bounded_normalized_edit(&a, &b, None, &mut scratch).to_bits(),
            normalized_edit_reference(&a, &b).to_bits()
        );
    }

    /// One scratch serves a long call, then a short one, then a non-ASCII
    /// one: no mask bit or match flag of an earlier call leaks into a later
    /// one.
    #[test]
    fn reused_scratch_leaks_nothing(
        long in proptest::collection::vec(0usize..6, 65..150),
        short in proptest::collection::vec(0usize..6, 0..20),
        mixed in mixed_strategy(),
        tau in -0.1f64..1.2,
    ) {
        let calls = [
            (to_u32(&long), to_u32(&long[..long.len() / 2])),
            (to_u32(&short), to_u32(&long)),
            (to_mixed(&mixed), to_u32(&short)),
            (to_u32(&short), to_mixed(&mixed)),
        ];
        let mut jaro = JaroScratch::default();
        let mut edit = EditScratch::default();
        for (a, b) in &calls {
            check_jaro(a, b, tau, &mut jaro)?;
            prop_assert_eq!(levenshtein_ids(a, b, &mut edit), levenshtein_reference(a, b));
        }
    }

    /// `KernelGroup::eval_records_into` — bounded or not — matches the
    /// per-function `JoinFunction::distance` path for every function of the
    /// reduced space, bit for bit (bounded results only where the bound
    /// admits them), and both match the scalar spec.
    #[test]
    fn grouped_eval_into_matches_per_pair_distance(
        strings in proptest::collection::vec(name_strategy(), 2..10),
        tau in 0.0f64..1.1,
    ) {
        let col = PreparedColumn::build(&strings);
        let n = strings.len();
        let space = JoinFunctionSpace::reduced24();
        let functions = space.functions();
        let mut scratch = KernelScratch::default();
        for group in plan_kernel_groups(functions) {
            let k = group.members.len();
            let mut out = vec![0.0f64; k];
            let mut bounded = vec![0.0f64; k];
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let (li, rj) = (col.record(i), col.record(j));
                group.eval_records_into(&col, &mut scratch, li, rj, None, &mut out);
                group.eval_records_into(&col, &mut scratch, li, rj, Some(tau), &mut bounded);
                for (m, &f_idx) in group.members.iter().enumerate() {
                    let exact = functions[f_idx].distance(&col, i, j);
                    let spec = spec_distance(&col, functions[f_idx], li, rj);
                    prop_assert!(
                        exact.to_bits() == spec.to_bits(),
                        "{}: {exact} vs spec {spec}", functions[f_idx].code()
                    );
                    let got = out[m];
                    prop_assert!(
                        got.to_bits() == exact.to_bits(),
                        "{}: {got} vs {exact}", functions[f_idx].code()
                    );
                    let bv = bounded[m];
                    if exact <= tau {
                        prop_assert_eq!(bv.to_bits(), exact.to_bits());
                    } else {
                        prop_assert!(bv > tau, "{}: exact {exact} > τ {tau} but bounded said {bv}",
                            functions[f_idx].code());
                    }
                }
            }
        }
    }

    /// `batch_distances` equals the per-pair path at every thread count.
    #[test]
    fn batch_distances_is_thread_count_invariant(
        strings in proptest::collection::vec(name_strategy(), 2..8),
        threads in 1usize..5,
    ) {
        let col = PreparedColumn::build(&strings);
        let n = strings.len();
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        let space = JoinFunctionSpace::reduced24();
        let expected: Vec<Vec<f64>> = space
            .functions()
            .iter()
            .map(|f| pairs.iter().map(|&(i, j)| f.distance(&col, i, j)).collect())
            .collect();

        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let batched = space.batch_distances(&col, &pairs);
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
        drop(_guard);

        prop_assert_eq!(batched.len(), expected.len());
        for (f, (got, want)) in batched.iter().zip(&expected).enumerate() {
            for (p, (g, w)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "function {f} pair {p}: {g} vs {w}"
                );
            }
        }
    }

    /// Every set family of the full space — the 5 set distances and 3
    /// hybrids of one scheme under both weightings — equals the spec bit for
    /// bit: one pair at a time with the right record fixed, the
    /// neighbourhood walk with the left record fixed, and the nearest fold
    /// with the right record fixed, over empty sets and ids at or past the
    /// vocabulary's end on either side.
    #[test]
    fn marked_walk_matches_overlap_spec(
        strings in proptest::collection::vec(word_strategy(), 1..8),
        queries in proptest::collection::vec(query_strategy(), 1..4),
        crafted in proptest::collection::vec(proptest::collection::vec(0usize..48, 0..10), 1..4),
    ) {
        let col = PreparedColumn::build(&strings);
        let records = walk_records(&col, &queries, &crafted);
        let space = JoinFunctionSpace::full();
        let functions = space.functions();
        let lefts: Vec<usize> = (0..col.len()).collect();
        let mut scratch = KernelScratch::default();
        for group in plan_kernel_groups(functions) {
            if !matches!(group.kind, GroupKind::SetFamily { .. }) {
                continue;
            }
            let k = group.members.len();
            let member = |m: usize| functions[group.members[m]];
            let mut out = vec![0.0f64; k];
            for a in &records {
                for b in &records {
                    group.eval_records_into(&col, &mut scratch, a, b, None, &mut out);
                    for (m, &d) in out.iter().enumerate() {
                        let spec = spec_distance(&col, member(m), a, b);
                        prop_assert!(d.to_bits() == spec.to_bits(),
                            "{}: {d} vs spec {spec}", member(m).code());
                    }
                }
            }
            for x in &records {
                let mut rows = vec![Vec::new(); k];
                group.neighbourhood_into(&col, x, &lefts, None, &vec![f64::INFINITY; k], &mut rows);
                let mut nearest = vec![None; k];
                group.nearest_into(&col, &lefts, x, &mut nearest);
                for m in 0..k {
                    let mut row: Vec<f32> = (lefts.iter())
                        .map(|&l| spec_distance(&col, member(m), x, col.record(l)) as f32)
                        .collect();
                    row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                    prop_assert_eq!(&rows[m], &row);
                    let mut best = None;
                    for &l in &lefts {
                        offer_nearest(&mut best, l as u32, spec_distance(&col, member(m), col.record(l), x));
                    }
                    prop_assert_eq!(nearest[m], best);
                }
            }
        }
    }

    /// `d(a, b)` and `d(b, a)` are the same `f64` for every function of the
    /// full space but the containment hybrids — the set members under both
    /// weightings (ids past the vocabulary's end included), edit, Jaro and
    /// embed — and the edit and Jaro kernels are symmetric on id sequences
    /// that spill the mask table or cross the 64- and 128-char word
    /// boundaries.
    #[test]
    fn kernel_families_are_symmetric(
        strings in proptest::collection::vec(word_strategy(), 1..6),
        queries in proptest::collection::vec(query_strategy(), 1..3),
        crafted in proptest::collection::vec(proptest::collection::vec(0usize..48, 0..10), 1..3),
        mixed in (mixed_strategy(), mixed_strategy()),
        long in (ids_strategy(), ids_strategy()),
    ) {
        let col = PreparedColumn::build(&strings);
        let records = walk_records(&col, &queries, &crafted);
        let space = JoinFunctionSpace::full();
        let functions = space.functions();
        let mut scratch = KernelScratch::default();
        for group in plan_kernel_groups(functions) {
            let k = group.members.len();
            let (mut ab, mut ba) = (vec![0.0f64; k], vec![0.0f64; k]);
            for (i, a) in records.iter().enumerate() {
                for b in &records[i + 1..] {
                    group.eval_records_into(&col, &mut scratch, a, b, None, &mut ab);
                    group.eval_records_into(&col, &mut scratch, b, a, None, &mut ba);
                    for (m, &fi) in group.members.iter().enumerate() {
                        let f = functions[fi];
                        if is_hybrid(f.dist) {
                            continue;
                        }
                        prop_assert!(ab[m].to_bits() == ba[m].to_bits(),
                            "{}: d(a,b) {} vs d(b,a) {}", f.code(), ab[m], ba[m]);
                    }
                }
            }
        }
        let (mut edit, mut jaro) = (EditScratch::default(), JaroScratch::default());
        for (a, b) in [(to_mixed(&mixed.0), to_mixed(&mixed.1)), (to_u32(&long.0), to_u32(&long.1))] {
            prop_assert_eq!(
                bounded_normalized_edit(&a, &b, None, &mut edit).to_bits(),
                bounded_normalized_edit(&b, &a, None, &mut edit).to_bits()
            );
            prop_assert_eq!(
                bounded_jaro_winkler_ids(&a, &b, None, &mut jaro).to_bits(),
                bounded_jaro_winkler_ids(&b, &a, None, &mut jaro).to_bits()
            );
        }
    }
}

/// The containment hybrids are asymmetric by definition: a hybrid is its
/// base distance when the right record's tokens are contained in the left
/// record's (`B ⊆ A`), and 1 otherwise.
#[test]
fn hybrids_are_asymmetric_by_definition() {
    let col = PreparedColumn::build(&["tigers football", "tigers"]);
    let (whole, part) = (col.record(0), col.record(1));
    for f in JoinFunctionSpace::full().functions() {
        if is_hybrid(f.dist) {
            assert!(f.distance_between(&col, whole, part) < 1.0, "{}", f.code());
            assert_eq!(f.distance_between(&col, part, whole), 1.0, "{}", f.code());
        }
    }
}
