//! Property-based tests over the public API (proptest): distance invariants,
//! blocking guarantees, estimator bounds and metric bounds.

use autofj::block::{block_reference, Blocker, GramIndex, ProbeScratch};
use autofj::core::negative_rules::reference::NegativeRuleSet;
use autofj::core::oracle::{DistanceOracle, MultiColumnDistanceCache, WeightedColumnsOracle};
use autofj::core::{candidate_stage, AutoFjOptions, AutoFuzzyJoin, InternedRuleSet, Table};
use autofj::eval::{adjusted_recall, evaluate_assignment, pr_auc, ScoredPrediction};
use autofj::text::prepared::scheme_index;
use autofj::text::{
    DistanceFunction, JoinFunction, JoinFunctionSpace, PreparedColumn, Preprocessing,
    TokenWeighting, Tokenization,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Strategy: short token-ish strings (letters, digits, spaces).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9]{1,8}( [A-Za-z0-9]{1,8}){0,5}").unwrap()
}

/// A small word pool with punctuation, mixed case and non-ASCII letters:
/// records drawn from it often differ by a single word, which is what
/// negative rules learn from.
const SWAP_WORDS: [&str; 18] = [
    "Tigers",
    "tigers!",
    "LSU",
    "l.s.u",
    "2007",
    "2008",
    "Straße",
    "STRASSE",
    "café",
    "Café.",
    "Ärzte",
    "Zürich",
    "football",
    "Football,",
    "baseball",
    "team",
    "teams",
    "(NCAA)",
];

/// Strategy: either a name as above or 2–4 words from [`SWAP_WORDS`].
fn swap_strategy() -> impl Strategy<Value = String> {
    let escaped: Vec<String> = SWAP_WORDS
        .iter()
        .map(|w| {
            w.replace('.', r"\.")
                .replace('(', r"\(")
                .replace(')', r"\)")
        })
        .collect();
    let word = format!("({})", escaped.join("|"));
    proptest::string::string_regex(&format!(
        "{word}( {word}){{1,3}}|[A-Za-z0-9]{{1,8}}( [A-Za-z0-9]{{1,8}}){{0,3}}"
    ))
    .unwrap()
}

/// A copy of row `row` (modulo the row count) with one word of cell `col`
/// (modulo `columns`) replaced by a word of [`SWAP_WORDS`]: a single-word
/// swap of the concatenated record.
fn swapped(
    rows: &[Vec<String>],
    (row, col, pos, word): (usize, usize, usize, usize),
    columns: usize,
) -> Vec<String> {
    let mut out = rows[row % rows.len()].clone();
    let cell = &mut out[col % columns];
    let mut words: Vec<&str> = cell.split(' ').collect();
    let pos = pos % words.len();
    words[pos] = SWAP_WORDS[word % SWAP_WORDS.len()];
    *cell = words.join(" ");
    out
}

/// Concatenate the first `columns` cells of each row the way the
/// multi-column join does (`Table::concatenated_rows`); one column is the
/// single-column case.
fn concatenated(rows: &[Vec<String>], columns: usize) -> Vec<String> {
    let cells = (0..columns)
        .map(|c| {
            let name = format!("c{c}");
            let values: Vec<String> = rows.iter().map(|row| row[c].clone()).collect();
            (name, values)
        })
        .collect::<Vec<_>>();
    let cells: Vec<(&str, Vec<String>)> = cells
        .iter()
        .map(|(name, values)| (name.as_str(), values.clone()))
        .collect();
    Table::from_columns("t", cells).concatenated_rows()
}

/// The `(lower-case + stem + remove-punctuation, space)` word-id sets of a
/// prepared column — the sets the interned negative rules read.
fn rule_id_sets(col: &PreparedColumn) -> Vec<&[u32]> {
    let si = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
    col.records()
        .iter()
        .map(|rec| rec.token_sets[si].as_slice())
        .collect()
}

/// Gram vocabularies of the Zipf-skewed tables: one below the probe's
/// 128-gram head width (every gram owns a head bit) and one well above it.
/// Both are coprime to 7919, so the id scramble in [`zipf_gram_set`] is a
/// permutation.
const ZIPF_VOCABS: [u32; 2] = [64, 601];
/// Resolution of the uniform draws [`zipf_gram_set`] maps onto grams.
const ZIPF_DRAWS: u32 = 1 << 20;

/// Map uniform draws in `0..ZIPF_DRAWS` to a sorted, deduplicated set over
/// `vocab` grams whose frequencies follow a Zipf-like law: `u ↦ ⌊(V +
/// 1)^u⌋ − 1` makes rank `r` about `1/(r + 1)` likely.  Ranks are scrambled
/// onto gram ids so that the probe's rarest-first order differs from id
/// order.
fn zipf_gram_set(draws: &[u32], vocab: u32) -> Vec<u32> {
    let v = f64::from(vocab);
    let mut set: Vec<u32> = draws
        .iter()
        .map(|&d| {
            let u = f64::from(d) / f64::from(ZIPF_DRAWS);
            let rank = ((v + 1.0).powf(u).floor() as u32)
                .saturating_sub(1)
                .min(vocab - 1);
            (rank * 7919) % vocab
        })
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Strategy: a table cell that is 1–3 words of a three-word pool (so
/// one cell's words often contain another's) or a short random name.
fn cell_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex(
        "(lsu|tigers|2007)( (lsu|tigers|2007)){0,2}|[A-Za-z0-9]{1,8}( [A-Za-z0-9]{1,8}){0,2}",
    )
    .unwrap()
}

/// The directional set distances (`r ⊆ l` containment hybrids).
const CONTAINMENT: [DistanceFunction; 3] = [
    DistanceFunction::ContainJaccard,
    DistanceFunction::ContainCosine,
    DistanceFunction::ContainDice,
];

/// Spec of Definition 4.1 over cached `f32` column distances: function
/// `f`'s per-column `distance(a, b)`, narrowed to `f32`, widened and summed
/// in column order, skipping zero weights.
fn weighted_spec(f: &JoinFunction, cols: &[PreparedColumn], w: &[f64], a: usize, b: usize) -> f64 {
    let mut sum = 0.0;
    for (col, &wc) in cols.iter().zip(w) {
        if wc > 0.0 {
            sum += wc * f.distance(col, a, b) as f32 as f64;
        }
    }
    sum
}

/// `build_global` mutates process-wide state; the blocking-equivalence
/// property serializes its thread-count sweeps on this lock so concurrent
/// test threads never observe a half-configured pool.
static POOL_LOCK: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every join function maps every pair into [0, 1] and is zero on
    /// identical strings.
    #[test]
    fn distances_are_bounded_and_reflexive(a in name_strategy(), b in name_strategy()) {
        let col = PreparedColumn::build(&[a.clone(), b.clone()]);
        for f in JoinFunctionSpace::reduced24().functions() {
            let d = f.distance(&col, 0, 1);
            prop_assert!((0.0..=1.0).contains(&d), "{} -> {d}", f.code());
            let self_d = f.distance(&col, 0, 0);
            prop_assert!(self_d.abs() < 1e-9);
        }
    }

    /// Symmetric distance functions are symmetric (containment hybrids are
    /// excluded by design — they are directional).
    #[test]
    fn non_containment_distances_are_symmetric(a in name_strategy(), b in name_strategy()) {
        let col = PreparedColumn::build(&[a, b]);
        for f in JoinFunctionSpace::reduced24().functions() {
            if f.code().contains("Contain") {
                continue;
            }
            let d1 = f.distance(&col, 0, 1);
            let d2 = f.distance(&col, 1, 0);
            prop_assert!((d1 - d2).abs() < 1e-9, "{} asymmetric: {d1} vs {d2}", f.code());
        }
    }

    /// Blocking always keeps an exact duplicate of the probe record.
    #[test]
    fn blocking_never_drops_exact_matches(
        mut names in proptest::collection::vec(name_strategy(), 5..40),
        pick in 0usize..1000,
    ) {
        names.dedup();
        prop_assume!(names.len() >= 5);
        let probe = names[pick % names.len()].clone();
        let mut all = names.clone();
        all.push(probe.clone());
        let out = Blocker::new().block_prepared(&PreparedColumn::build(&all), names.len());
        let target = names.iter().position(|n| *n == probe).unwrap();
        prop_assert!(out.left_candidates_of_right[0].contains(&target));
    }

    /// The candidate stage every pipeline runs — blocking, then negative
    /// rules, over a prepared column — equals the string-path specifications
    /// on random single-column tables and on multi-column tables (2–4
    /// columns joined by `concatenated_rows`, as the multi-column join
    /// does), across blocking factors and at 1 and 4 threads: its blocking
    /// lists equal `block_reference`'s, and its filtered L–R lists equal
    /// `block_reference`'s L–R lists filtered by the string-spec rules
    /// learned from `block_reference`'s L–L lists.  Single-word swaps of
    /// reference rows on both sides make rules learned and applied.
    #[test]
    fn interned_blocking_matches_string_reference(
        base_rows in proptest::collection::vec(
            proptest::collection::vec(swap_strategy(), 4..5), 1..20),
        left_swaps in proptest::collection::vec(
            (0usize..1000, 0usize..4, 0usize..8, 0usize..1000), 0..10),
        right_swaps in proptest::collection::vec(
            (0usize..1000, 0usize..4, 0usize..8, 0usize..1000), 0..12),
        fresh_rows in proptest::collection::vec(
            proptest::collection::vec(swap_strategy(), 4..5), 0..4),
        columns in 1usize..5,
        factor in 0.3f64..3.0,
        threads_pick in 0usize..2,
    ) {
        let threads = if threads_pick == 0 { 1 } else { 4 };
        let mut left_rows = base_rows.clone();
        left_rows.extend(left_swaps.iter().map(|&s| swapped(&base_rows, s, columns)));
        let mut right_rows: Vec<Vec<String>> = right_swaps
            .iter()
            .map(|&s| swapped(&base_rows, s, columns))
            .collect();
        right_rows.extend(fresh_rows);
        let left = concatenated(&left_rows, columns);
        let right = concatenated(&right_rows, columns);
        let expected = block_reference(&left, &right, factor);
        let spec_rules = NegativeRuleSet::learn(&left, &expected.left_candidates_of_left);
        let expected_lr: Vec<Vec<usize>> = expected
            .left_candidates_of_right
            .iter()
            .enumerate()
            .map(|(r, cands)| {
                cands
                    .iter()
                    .copied()
                    .filter(|&l| !spec_rules.forbids(&left[l], &right[r]))
                    .collect()
            })
            .collect();
        let options = AutoFjOptions {
            blocking_factor: factor,
            ..AutoFjOptions::default()
        };
        let all: Vec<&str> = left.iter().chain(&right).map(String::as_str).collect();

        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let stage = candidate_stage(&PreparedColumn::build(&all), left.len(), &options);
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
        drop(_guard);

        prop_assert_eq!(
            &stage.blocking.left_candidates_of_right,
            &expected.left_candidates_of_right
        );
        prop_assert_eq!(
            &stage.blocking.left_candidates_of_left,
            &expected.left_candidates_of_left
        );
        prop_assert_eq!(stage.blocking.candidates_per_record, expected.candidates_per_record);
        prop_assert_eq!(stage.rules.as_ref().map(InternedRuleSet::len), Some(spec_rules.len()));
        prop_assert_eq!(stage.lr_candidates(), &expected_lr[..]);
    }

    /// The MaxScore probe is *exact*: on arbitrary gram-id sets it returns
    /// the same top-k as the dense-walk oracle, and every record the oracle
    /// ranks into the top-k is among the records the probe verified (the
    /// superset guarantee that makes its pruning a candidate-count
    /// reduction, not an approximation).
    #[test]
    fn filtered_probe_is_exact_and_supersets_unfiltered(
        mut sets in proptest::collection::vec(
            proptest::collection::vec(0u32..60, 0..12), 1..25),
        mut probe in proptest::collection::vec(0u32..60, 0..12),
        k in 1usize..30,
        exclude_pick in proptest::option::of(0usize..1000),
    ) {
        for s in &mut sets {
            s.sort_unstable();
            s.dedup();
        }
        probe.sort_unstable();
        probe.dedup();
        let index = GramIndex::from_id_sets(&sets, 60);
        let exclude = exclude_pick.map(|p| (p % sets.len()) as u32);
        let mut scratch = ProbeScratch::new(sets.len());

        let unfiltered = index.top_k_unfiltered(&probe, k, exclude, &mut scratch);
        let mut scored = Vec::new();
        let filtered = index.top_k_traced(&probe, k, exclude, &mut scratch, &mut scored);

        prop_assert_eq!(&filtered, &unfiltered);
        for &li in &unfiltered {
            prop_assert!(
                scored.contains(&(li as u32)),
                "unfiltered top-k record {li} was never admitted for exact scoring"
            );
        }
    }

    /// The pruning of the MaxScore probe never changes what blocking keeps,
    /// hence never the join result: every L–R and L–L candidate list that
    /// `Blocker::block_prepared` and `Blocker::block_id_sets` return equals
    /// the dense-walk oracle's list for that probe, across random tables,
    /// blocking factors and 1 and 4 threads.
    #[test]
    fn blocking_filters_never_change_the_join_result(
        left in proptest::collection::vec(name_strategy(), 1..40),
        right in proptest::collection::vec(name_strategy(), 0..10),
        factor in 0.3f64..3.0,
        threads_pick in 0usize..2,
    ) {
        let threads = if threads_pick == 0 { 1 } else { 4 };
        let all: Vec<&str> = left
            .iter()
            .map(String::as_str)
            .chain(right.iter().map(String::as_str))
            .collect();
        let col = PreparedColumn::build(&all);
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let sets: Vec<Vec<u32>> = (0..col.len())
            .map(|i| col.record(i).token_sets[si].clone())
            .collect();
        let num_grams = col.vocab(Preprocessing::Lower, Tokenization::Gram3).len();
        let (left_sets, right_sets) = sets.split_at(left.len());
        let blocker = Blocker::with_factor(factor);

        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let prepared = blocker.block_prepared(&col, left.len());
        let by_ids = blocker.block_id_sets(left_sets, right_sets, num_grams);
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
        drop(_guard);

        let index = GramIndex::from_id_sets(left_sets, num_grams);
        let k = blocker.candidates_per_record(left.len());
        let mut scratch = ProbeScratch::new(left.len());
        for out in [&prepared, &by_ids] {
            for (r, probe) in right_sets.iter().enumerate() {
                let oracle = index.top_k_unfiltered(probe, k, None, &mut scratch);
                prop_assert_eq!(&out.left_candidates_of_right[r], &oracle);
            }
            for (l, probe) in left_sets.iter().enumerate() {
                let oracle = index.top_k_unfiltered(probe, k, Some(l as u32), &mut scratch);
                prop_assert_eq!(&out.left_candidates_of_left[l], &oracle);
            }
        }
    }

    /// The MaxScore probe is exact where its essential split bites: on
    /// tables of 100–400 records with 15–40 grams each drawn from a
    /// Zipf-skewed gram distribution (a few grams in most records, a long
    /// rare tail) over a vocabulary below or above the head width, with
    /// duplicated records (index tie-breaks) and `k` from 1 to beyond `|L|`,
    /// every probe — each record with and without itself excluded, plus a
    /// fresh one — returns the dense walk's top-k, and the records it
    /// verified cover that top-k.
    #[test]
    fn maxscore_probe_is_exact_on_skewed_tables(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..ZIPF_DRAWS, 15..41), 100..401),
        raw_probe in proptest::collection::vec(0u32..ZIPF_DRAWS, 15..41),
        duplicates in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        k in 1usize..450,
        vocab_pick in 0usize..2,
    ) {
        let vocab = ZIPF_VOCABS[vocab_pick];
        let mut sets: Vec<Vec<u32>> = raw.iter().map(|r| zipf_gram_set(r, vocab)).collect();
        for &(from, to) in &duplicates {
            let from = from % sets.len();
            let to = to % sets.len();
            sets[to] = sets[from].clone();
        }
        let index = GramIndex::from_id_sets(&sets, vocab as usize);
        let mut scratch = ProbeScratch::new(sets.len());
        let mut oracle_scratch = ProbeScratch::new(sets.len());
        let mut scored = Vec::new();
        let fresh = zipf_gram_set(&raw_probe, vocab);
        let probes = sets
            .iter()
            .enumerate()
            .flat_map(|(i, s)| [(s, Some(i as u32)), (s, None)])
            .chain([(&fresh, None)]);
        for (probe, exclude) in probes {
            let oracle = index.top_k_unfiltered(probe, k, exclude, &mut oracle_scratch);
            prop_assert_eq!(&index.top_k(probe, k, exclude, &mut scratch), &oracle);
            let traced = index.top_k_traced(probe, k, exclude, &mut scratch, &mut scored);
            prop_assert_eq!(&traced, &oracle);
            for &li in &oracle {
                prop_assert!(
                    scored.contains(&(li as u32)),
                    "oracle top-k record {li} was never verified (k={k}, exclude={exclude:?})"
                );
            }
        }
    }

    /// The end-to-end joiner never panics on arbitrary inputs and always
    /// produces a consistent result structure.
    #[test]
    fn joiner_is_total_and_consistent(
        left in proptest::collection::vec(name_strategy(), 1..15),
        right in proptest::collection::vec(name_strategy(), 0..10),
    ) {
        let joiner = AutoFuzzyJoin::builder()
            .space(JoinFunctionSpace::reduced24())
            .num_thresholds(8)
            .build();
        let result = joiner.join_values(&left, &right);
        prop_assert_eq!(result.assignment.len(), right.len());
        prop_assert!(result.estimated_precision >= 0.0 && result.estimated_precision <= 1.0);
        prop_assert!(result.num_joined() <= right.len());
        for p in &result.pairs {
            prop_assert!(p.left < left.len());
            prop_assert!(p.right < right.len());
        }
    }

    /// `WeightedColumnsOracle`'s two group walks equal the spec, over the
    /// reduced-24 space plus the containment hybrids, on random 2–3-column
    /// tables (missing values included), random candidate lists
    /// (empty ones included) and weight vectors with zeros: the nearest walk
    /// is a first-wins strict-min fold of `weighted_spec` narrowed to
    /// `f32`, and a wanted ball row holds the finite narrowed values sorted
    /// ascending (an unwanted one stays empty).
    #[test]
    fn weighted_oracle_walks_match_column_sum_spec(
        columns in 2usize..4,
        left in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(cell_strategy()), 3..4), 1..6),
        right in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(cell_strategy()), 3..4), 1..5),
        lr_raw in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..5), 5..6),
        ll_raw in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..5), 6..7),
        weight_steps in proptest::collection::vec(0usize..4, 3..4),
    ) {
        let (nl, nr) = (left.len(), right.len());
        let cols: Vec<PreparedColumn> = (0..columns)
            .map(|c| {
                let values: Vec<&str> = left
                    .iter()
                    .chain(&right)
                    .map(|row| row[c].as_deref().unwrap_or(""))
                    .collect();
                PreparedColumn::build(&values)
            })
            .collect();
        let to_lefts = |raw: &[Vec<usize>], n: usize| -> Vec<Vec<usize>> {
            raw[..n].iter().map(|c| c.iter().map(|&l| l % nl).collect()).collect()
        };
        let lr_cands = to_lefts(&lr_raw, nr);
        let ll_cands = to_lefts(&ll_raw, nl);
        let weights: Vec<f64> = weight_steps[..columns].iter().map(|&k| k as f64 / 3.0).collect();
        // Reduced-24 is all symmetric distances; the directional containment
        // hybrids also pin that each pair puts the reference record first.
        let mut functions = JoinFunctionSpace::reduced24().functions().to_vec();
        functions.extend(CONTAINMENT.map(|d| {
            JoinFunction::set_based(Preprocessing::Lower, Tokenization::Space, TokenWeighting::Idf, d)
        }));
        let space = JoinFunctionSpace::from_functions(functions, "reduced-24+contain");
        let cache = MultiColumnDistanceCache::build(&space, &cols, nl, nr, &lr_cands, &ll_cands);
        let oracle = WeightedColumnsOracle::new(&cache, weights.clone());

        for group in oracle.eval_groups() {
            let k = group.members.len();
            for (r, cands) in lr_cands.iter().enumerate() {
                let mut got = vec![None; k];
                oracle.group_nearest(&group, r, cands, &mut got);
                for (&f, got) in group.members.iter().zip(got) {
                    let func = &space.functions()[f];
                    let mut want: Option<(u32, f32)> = None;
                    for &l in cands {
                        let d = weighted_spec(func, &cols, &weights, l, nl + r) as f32;
                        if d.is_finite() && want.is_none_or(|(_, best)| d < best) {
                            want = Some((l as u32, d));
                        }
                    }
                    prop_assert!(
                        got.map(|(l, d)| (l, d.to_bits())) == want.map(|(l, d)| (l, d.to_bits())),
                        "{} nearest of r={r}: {got:?} vs {want:?}", func.code()
                    );
                }
            }
            for (l, cands) in ll_cands.iter().enumerate() {
                let wanted: Vec<bool> = group.members.iter().map(|&f| (f + l) % 3 != 0).collect();
                let mut got = vec![Vec::new(); k];
                oracle.group_ll_distances(&group, l, cands, &wanted, &mut got);
                for ((&f, &w), got) in group.members.iter().zip(&wanted).zip(got) {
                    let func = &space.functions()[f];
                    let mut want: Vec<f32> = Vec::new();
                    if w {
                        want = cands
                            .iter()
                            .map(|&l2| weighted_spec(func, &cols, &weights, l, l2) as f32)
                            .filter(|d| d.is_finite())
                            .collect();
                        want.sort_by(|a, b| a.total_cmp(b));
                    }
                    let bits = |v: &[f32]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    prop_assert!(
                        bits(&got) == bits(&want),
                        "{} ball row of l={l}: {got:?} vs {want:?}", func.code()
                    );
                }
            }
        }
    }

    /// Negative rules never forbid a pair of identical strings and are
    /// symmetric in their arguments.  The interned rules learned from a
    /// prepared column's (L+S+RP, SP) word-id sets match the string spec:
    /// the same number of rules, and the same verdict on every pair of a
    /// reference record with a reference or query record, on tables rich in
    /// single-word swaps, punctuation, mixed case and non-ASCII letters.
    #[test]
    fn negative_rules_are_sane(
        names in proptest::collection::vec(swap_strategy(), 2..20),
        queries in proptest::collection::vec(swap_strategy(), 0..10),
    ) {
        let rules = NegativeRuleSet::learn_exhaustive(&names);
        for n in &names {
            prop_assert!(!rules.forbids(n, n));
        }
        prop_assert_eq!(rules.forbids(&names[0], &names[1]), rules.forbids(&names[1], &names[0]));

        let all: Vec<&str> = names.iter().chain(&queries).map(String::as_str).collect();
        let col = PreparedColumn::build(&all);
        let sets = rule_id_sets(&col);
        let every_pair: Vec<Vec<usize>> = (0..names.len())
            .map(|i| (0..names.len()).filter(|&j| j != i).collect())
            .collect();
        let interned = InternedRuleSet::learn(&sets[..names.len()], &every_pair);
        prop_assert_eq!(interned.len(), rules.len());
        for l in 0..names.len() {
            for (i, record) in all.iter().enumerate() {
                prop_assert!(
                    interned.forbids(sets[l], sets[i]) == rules.forbids(&names[l], record),
                    "verdicts diverged for ({:?}, {:?})",
                    names[l],
                    record
                );
            }
        }
    }

    /// Evaluation metrics stay in range for arbitrary predictions.
    #[test]
    fn metrics_are_bounded(
        gt in proptest::collection::vec(proptest::option::of(0usize..20), 1..30),
        preds in proptest::collection::vec((0usize..30, 0usize..20, 0.0f64..1.0), 0..40),
    ) {
        let preds: Vec<ScoredPrediction> = preds
            .into_iter()
            .filter(|(r, _, _)| *r < gt.len())
            .map(|(right, left, score)| ScoredPrediction { right, left, score })
            .collect();
        let auc = pr_auc(&preds, &gt);
        prop_assert!((0.0..=1.0).contains(&auc));
        let ar = adjusted_recall(&preds, &gt, 0.9);
        prop_assert!((0.0..=1.0).contains(&ar.recall_relative));
        prop_assert!((0.0..=1.0).contains(&ar.precision));
        let assignment: Vec<Option<usize>> = vec![None; gt.len()];
        let q = evaluate_assignment(&assignment, &gt);
        prop_assert_eq!(q.precision, 1.0);
    }
}
