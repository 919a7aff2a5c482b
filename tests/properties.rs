//! Property-based tests over the public API (proptest): distance invariants,
//! blocking guarantees, estimator bounds and metric bounds.

use autofj::block::{block_reference, Blocker, GramIndex, ProbeScratch};
use autofj::core::{AutoFuzzyJoin, NegativeRuleSet};
use autofj::eval::{adjusted_recall, evaluate_assignment, pr_auc, ScoredPrediction};
use autofj::text::prepared::scheme_index;
use autofj::text::{JoinFunctionSpace, PreparedColumn, Preprocessing, Tokenization};
use proptest::prelude::*;
use std::sync::Mutex;

/// Strategy: short token-ish strings (letters, digits, spaces).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9]{1,8}( [A-Za-z0-9]{1,8}){0,5}").unwrap()
}

/// Gram vocabulary of the Zipf-skewed tables (prime, so the id scramble in
/// [`zipf_gram_set`] is a permutation).
const ZIPF_VOCAB: u32 = 601;
/// Resolution of the uniform draws [`zipf_gram_set`] maps onto grams.
const ZIPF_DRAWS: u32 = 1 << 20;

/// Map uniform draws in `0..ZIPF_DRAWS` to a sorted, deduplicated gram set
/// whose frequencies follow a Zipf-like law: `u ↦ ⌊(V + 1)^u⌋ − 1` makes
/// rank `r` about `1/(r + 1)` likely.  Ranks are scrambled onto gram ids so
/// that the probe's rarest-first order differs from id order.
fn zipf_gram_set(draws: &[u32]) -> Vec<u32> {
    let v = f64::from(ZIPF_VOCAB);
    let mut set: Vec<u32> = draws
        .iter()
        .map(|&d| {
            let u = f64::from(d) / f64::from(ZIPF_DRAWS);
            let rank = ((v + 1.0).powf(u).floor() as u32)
                .saturating_sub(1)
                .min(ZIPF_VOCAB - 1);
            (rank * 7919) % ZIPF_VOCAB
        })
        .collect();
    set.sort_unstable();
    set.dedup();
    set
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
        let out = Blocker::new().block(&names, std::slice::from_ref(&probe));
        let target = names.iter().position(|n| *n == probe).unwrap();
        prop_assert!(out.left_candidates_of_right[0].contains(&target));
    }

    /// The interned-id blocker (both the raw-string and the prepared-column
    /// entry points) produces candidate lists *identical* to the retained
    /// string-path reference implementation, across random tables, blocking
    /// factors and thread counts.
    #[test]
    fn interned_blocking_matches_string_reference(
        left in proptest::collection::vec(name_strategy(), 1..30),
        right in proptest::collection::vec(name_strategy(), 0..15),
        factor in 0.3f64..3.0,
        threads in 1usize..6,
    ) {
        let expected = block_reference(&left, &right, factor);
        let blocker = Blocker::with_factor(factor);

        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let fast = blocker.block(&left, &right);
        let all: Vec<&str> = left
            .iter()
            .map(String::as_str)
            .chain(right.iter().map(String::as_str))
            .collect();
        let col = PreparedColumn::build(&all);
        let prepared = blocker.block_prepared(&col, left.len());
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
        drop(_guard);

        prop_assert_eq!(
            &fast.left_candidates_of_right,
            &expected.left_candidates_of_right
        );
        prop_assert_eq!(
            &fast.left_candidates_of_left,
            &expected.left_candidates_of_left
        );
        prop_assert_eq!(fast.candidates_per_record, expected.candidates_per_record);
        prop_assert_eq!(
            &prepared.left_candidates_of_right,
            &expected.left_candidates_of_right
        );
        prop_assert_eq!(
            &prepared.left_candidates_of_left,
            &expected.left_candidates_of_left
        );
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
    /// rare tail), with duplicated records (index tie-breaks) and `k` from 1
    /// to beyond `|L|`, every probe — each record with and without itself
    /// excluded, plus a fresh one — returns the dense walk's top-k, and the
    /// records it verified cover that top-k.
    #[test]
    fn maxscore_probe_is_exact_on_skewed_tables(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..ZIPF_DRAWS, 15..41), 100..401),
        raw_probe in proptest::collection::vec(0u32..ZIPF_DRAWS, 15..41),
        duplicates in proptest::collection::vec((0usize..1000, 0usize..1000), 0..40),
        k in 1usize..450,
    ) {
        let mut sets: Vec<Vec<u32>> = raw.iter().map(|r| zipf_gram_set(r)).collect();
        for &(from, to) in &duplicates {
            let from = from % sets.len();
            let to = to % sets.len();
            sets[to] = sets[from].clone();
        }
        let index = GramIndex::from_id_sets(&sets, ZIPF_VOCAB as usize);
        let mut scratch = ProbeScratch::new(sets.len());
        let mut oracle_scratch = ProbeScratch::new(sets.len());
        let mut scored = Vec::new();
        let fresh = zipf_gram_set(&raw_probe);
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

    /// Negative rules never forbid a pair of identical strings and are
    /// symmetric in their arguments.
    #[test]
    fn negative_rules_are_sane(names in proptest::collection::vec(name_strategy(), 2..20)) {
        let rules = NegativeRuleSet::learn_exhaustive(&names);
        for n in &names {
            prop_assert!(!rules.forbids(n, n));
        }
        if names.len() >= 2 {
            prop_assert_eq!(rules.forbids(&names[0], &names[1]), rules.forbids(&names[1], &names[0]));
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
