//! The specs of Algorithm 1's stages, composed end to end, against the fast
//! system.
//!
//! Each fast stage is pinned to its own spec elsewhere.  Here the specs are
//! chained into one join, [`spec_join_single_column`], and a property pins
//! that join byte for byte to `join_single_column` and to a served snapshot
//! of its state: the fast system simulates the spec, with byte equality as
//! the equivalence.
//!
//! | stage | spec |
//! |---|---|
//! | blocking | `autofj_block::block_reference` (dense top-k) |
//! | negative rules | `negative_rules::reference::NegativeRuleSet` |
//! | distances | `autofj_text::distance::reference::spec_distance` |
//! | nearest fold, thresholds, ball counts | written out below |
//! | greedy | `greedy::run_greedy_reference` |
//! | assembly | written out below |

use autofj::block::block_reference;
use autofj::core::estimate::{ball_cutoff, FunctionStats, Precompute};
use autofj::core::greedy::run_greedy_reference;
use autofj::core::negative_rules::reference::NegativeRuleSet;
use autofj::core::{
    join_single_column_with_artifacts, AutoFjOptions, BallMode, Config, JoinProgram, JoinResult,
    JoinedPair,
};
use autofj::store::{ServeMatch, ServingState};
use autofj::text::distance::reference::spec_distance;
use autofj::text::{
    DistanceFunction, JoinFunction, JoinFunctionSpace, PreparedColumn, Preprocessing,
    TokenWeighting, Tokenization,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The statistics of function `f` from the spec: the nearest candidate of
/// every right record, quantile thresholds, and ball counts over the spec's
/// L–L distances.
fn spec_function_stats(
    f: JoinFunction,
    col: &PreparedColumn,
    num_left: usize,
    lr: &[Vec<usize>],
    ll: &[Vec<usize>],
    num_thresholds: usize,
) -> FunctionStats {
    let d = |a: usize, b: usize| spec_distance(col, f, col.record(a), col.record(b)) as f32;
    // Eq. 1: the nearest candidate, folded in candidate order; the first of
    // equally near candidates wins.
    let nearest: Vec<Option<(u32, f32)>> = (lr.iter().enumerate())
        .map(|(r, cands)| {
            let mut best: Option<(u32, f32)> = None;
            for &l in cands {
                let dist = d(l, num_left + r);
                if dist.is_finite() && best.is_none_or(|(_, b)| dist < b) {
                    best = Some((l as u32, dist));
                }
            }
            best
        })
        .collect();
    // Joined pairs ranked by (distance, right index).
    let mut ranked: Vec<(u32, u32, f32)> = (nearest.iter().enumerate())
        .filter_map(|(r, n)| n.map(|(l, dist)| (r as u32, l, dist)))
        .collect();
    ranked.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    // The distances at `s` evenly spaced quantiles (every distance when
    // there are no more than `s`), ascending and deduplicated.
    let n = ranked.len();
    let mut thresholds: Vec<f32> = if num_thresholds >= n {
        ranked.iter().map(|p| p.2).collect()
    } else {
        (0..num_thresholds)
            .map(|k| ranked[k * (n - 1) / (num_thresholds - 1).max(1)].2)
            .collect()
    };
    thresholds.sort_by(f32::total_cmp);
    thresholds.dedup();
    // Eq. 8/9: reference neighbours of `l` strictly inside the ball.
    let ball = |l: u32, radius: f64| {
        let l = l as usize;
        (ll[l].iter())
            .filter(|&&l2| (d(l, l2) as f64) < ball_cutoff(radius))
            .count() as u32
    };
    let mut rank_of = vec![None; lr.len()];
    for (rank, &(r, _, _)) in ranked.iter().enumerate() {
        rank_of[r as usize] = Some(rank as u32);
    }
    FunctionStats {
        sorted_rights: ranked.iter().map(|&(r, _, dist)| (r, dist)).collect(),
        lefts: ranked.iter().map(|p| p.1).collect(),
        rank_of,
        theta_balls: (thresholds.iter())
            .map(|&theta| {
                (ranked.iter())
                    .take_while(|p| p.2 <= theta)
                    .map(|p| ball(p.1, 2.0 * theta as f64))
                    .collect()
            })
            .collect(),
        pair_balls: ranked.iter().map(|p| ball(p.1, 2.0 * p.2 as f64)).collect(),
        thresholds,
    }
}

/// Algorithm 1 over single columns, every stage its spec.
fn spec_join_single_column(
    left: &[String],
    right: &[String],
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> JoinResult {
    // Lines 1–2: blocking, then negative rules learned from the L–L lists
    // and applied to the L–R lists.
    let blocking = block_reference(left, right, options.blocking_factor);
    let ll = &blocking.left_candidates_of_left;
    let rules = (options.use_negative_rules).then(|| NegativeRuleSet::learn(left, ll));
    let forbids = |l: usize, r: usize| {
        rules
            .as_ref()
            .is_some_and(|x| x.forbids(&left[l], &right[r]))
    };
    let lr: Vec<Vec<usize>> = (blocking.left_candidates_of_right.iter().enumerate())
        .map(|(r, cands)| cands.iter().copied().filter(|&l| !forbids(l, r)).collect())
        .collect();

    // Lines 3–4: distances and the precision pre-compute.
    let all: Vec<&str> = left.iter().chain(right).map(String::as_str).collect();
    let col = PreparedColumn::build(&all);
    let functions = (space.functions().iter())
        .map(|&f| spec_function_stats(f, &col, left.len(), &lr, ll, options.num_thresholds))
        .collect();
    let pre = Precompute::from_parts(functions, right.len());

    // Lines 5–14: the greedy search, then the result.
    let outcome = run_greedy_reference(&pre, options);
    let pairs = (outcome.assignment.iter().enumerate())
        .filter_map(|(r, a)| {
            a.map(|a| JoinedPair {
                right: r,
                left: a.left as usize,
                distance: a.distance as f64,
                config_index: a.config_ordinal,
                estimated_precision: a.precision,
            })
        })
        .collect();
    JoinResult {
        program: JoinProgram {
            configs: (outcome.selected.iter())
                .map(|c| Config::new(space.functions()[c.function], c.threshold as f64))
                .collect(),
            columns: vec!["value".to_string()],
            column_weights: vec![1.0],
        },
        assignment: (outcome.assignment.iter())
            .map(|a| a.map(|a| a.left as usize))
            .collect(),
        pairs,
        estimated_precision: outcome.estimated_precision(),
        estimated_recall: outcome.estimated_recall(),
        precision_trace: outcome.precision_trace,
    }
}

/// Reduced-24 (edit, Jaro, embed and the five set distances of both
/// tokenizations under both weightings) plus the directional containment
/// hybrids.
fn spec_space() -> JoinFunctionSpace {
    let mut functions = JoinFunctionSpace::reduced24().functions().to_vec();
    for weighting in TokenWeighting::ALL {
        functions.extend(
            [
                DistanceFunction::ContainJaccard,
                DistanceFunction::ContainCosine,
                DistanceFunction::ContainDice,
            ]
            .map(|d| {
                JoinFunction::set_based(Preprocessing::Lower, Tokenization::Space, weighting, d)
            }),
        );
    }
    JoinFunctionSpace::from_functions(functions, "reduced-24+contain")
}

/// Words of the generated rows: a few teams, years and sports, so rows
/// often differ by a single word.
const WORDS: [&str; 10] = [
    "2007", "2008", "LSU", "Tigers", "Badgers", "football", "baseball", "team", "Zürich", "café",
];

/// Strategy: a row of two to four words of [`WORDS`].
fn row_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..WORDS.len(), 2..5)
}

/// The text of a row.
fn row(words: &[usize]) -> String {
    let words: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
    words.join(" ")
}

/// Row `pick` of `rows` (modulo their count) with word `pos` swapped for
/// word `word` of [`WORDS`].
fn swapped(rows: &[Vec<usize>], (pick, pos, word): (usize, usize, usize)) -> String {
    let mut words = rows[pick % rows.len()].clone();
    let n = words.len();
    words[pos % n] = word % WORDS.len();
    row(&words)
}

fn temp_path() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "autofj_spec_pipeline_{}_{n}.afj",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The spec chain equals `join_single_column` byte for byte, and a
    /// serving state frozen from that join, saved and loaded, answers every
    /// right record with the spec's join, across both ball modes, rules on
    /// and off, and 1 and 4 threads, at blocking factors that keep a few or
    /// most reference records and at three precision targets.  The
    /// reference table holds exact duplicates (nearest-fold ties) and
    /// single-word swaps of its rows (learned rules); the query table holds
    /// copies and single-word swaps of reference rows and fresh rows.
    #[test]
    fn spec_pipeline_equals_batch_and_served_joins(
        base in proptest::collection::vec(row_strategy(), 2..12),
        duplicates in proptest::collection::vec(0usize..1000, 0..4),
        left_swaps in proptest::collection::vec((0usize..1000, 0usize..4, 0usize..1000), 0..8),
        copies in proptest::collection::vec(0usize..1000, 0..4),
        right_swaps in proptest::collection::vec((0usize..1000, 0usize..4, 0usize..1000), 1..8),
        fresh in proptest::collection::vec(row_strategy(), 0..3),
        mode_pick in 0usize..2,
        rules_pick in 0usize..2,
        threads_pick in 0usize..2,
        tau_pick in 0usize..3,
        factor in 0.5f64..3.0,
    ) {
        let mut left: Vec<String> = base.iter().map(|w| row(w)).collect();
        left.extend(duplicates.iter().map(|&i| row(&base[i % base.len()])));
        left.extend(left_swaps.iter().map(|&s| swapped(&base, s)));
        let mut right: Vec<String> = copies.iter().map(|&i| left[i % left.len()].clone()).collect();
        right.extend(right_swaps.iter().map(|&s| swapped(&base, s)));
        right.extend(fresh.iter().map(|w| row(w)));
        let options = AutoFjOptions {
            ball_mode: [BallMode::ConfigTheta, BallMode::PairDistance][mode_pick],
            use_negative_rules: rules_pick == 0,
            precision_target: [0.5, 0.7, 0.9][tau_pick],
            blocking_factor: factor,
            num_thresholds: 12,
            ..AutoFjOptions::default()
        };
        let space = spec_space();
        let spec = spec_join_single_column(&left, &right, &space, &options);

        // The only test of this binary, so no other test sees the pool
        // while it is configured.
        rayon::ThreadPoolBuilder::new()
            .num_threads([1, 4][threads_pick])
            .build_global()
            .expect("configure shim pool");
        let (batch, artifacts) = join_single_column_with_artifacts(&left, &right, &space, &options);
        let artifacts = artifacts.expect("non-empty tables run the pipeline");
        let state = ServingState::from_artifacts(&space, &options, &batch, artifacts);
        let path = temp_path();
        state.save(&path).expect("save snapshot");
        let loaded = ServingState::load(&path);
        let _ = std::fs::remove_file(&path);
        let served = loaded.expect("load snapshot").join_all();
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");

        prop_assert_eq!(format!("{batch:?}"), format!("{spec:?}"));
        let mut want: Vec<Option<ServeMatch>> = vec![None; right.len()];
        for p in &spec.pairs {
            want[p.right] = Some(ServeMatch {
                left: p.left,
                distance: p.distance,
                precision: p.estimated_precision,
                config_index: p.config_index,
            });
        }
        prop_assert_eq!(format!("{served:?}"), format!("{want:?}"));
    }
}
