//! Multi-column Auto-FuzzyJoin (Algorithm 3 of the paper, §4).
//!
//! When the join key spans several columns (or no key is given at all), the
//! algorithm must discover which columns matter and how much.  Algorithm 3 is
//! a forward-selection loop: starting from an all-zero column-weight vector
//! it repeatedly tries to blend in one more column at the mixing ratios
//! `k/g`, `0 < k < g`, keeps the blend that maximizes estimated recall, and
//! stops when no additional column improves recall.  `g = 10` is a constant,
//! the paper's setting (§5.1.3), not an option.  Every inner evaluation is a
//! full single-column search (Algorithm 1) over the weighted-sum distance
//! `F_w(l, r) = Σ_j w_j · f(l[j], r[j])` (Definition 4.1).
//!
//! Following §5.2.2, one configuration uses the same join function across all
//! columns, and a missing value is the empty string.  Under our distance
//! functions an empty value has distance 1 to every non-empty value, so a
//! value missing on one side adds the column's full weight to the pair's
//! distance.  Two empty values have distance 0: the code does not give a
//! pair of missing values the maximum distance of §5.2.2.
//!
//! Blocking and negative rules (Algorithm 1 lines 1–2) run once, through
//! [`crate::candidates::candidate_stage`], over a prepared column of the rows
//! with all columns concatenated; every weight vector shares the resulting
//! candidate sets.

use crate::candidates::candidate_stage;
use crate::options::AutoFjOptions;
use crate::oracle::{MultiColumnDistanceCache, WeightedColumnsOracle};
use crate::program::JoinResult;
use crate::single::{assemble_result, join_with_oracle};
use crate::table::Table;
use autofj_text::{JoinFunctionSpace, PreparedColumn};
use rayon::prelude::*;

/// Column-weight discretization steps `g` of Algorithm 3: the paper's
/// experimental setting (§5.1.3).
const WEIGHT_STEPS: usize = 10;

/// Run multi-column Auto-FuzzyJoin over two tables with the same number of
/// columns (aligned by position).
///
/// # Panics
/// Panics if the tables have different column counts or the options are
/// invalid.
pub fn join_multi_column(
    left: &Table,
    right: &Table,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> JoinResult {
    if let Err(msg) = options.validate() {
        panic!("invalid AutoFjOptions: {msg}");
    }
    assert_eq!(
        left.num_columns(),
        right.num_columns(),
        "left and right tables must have the same number of columns"
    );
    let m = left.num_columns();
    let column_names: Vec<String> = left.columns().iter().map(|c| c.name.clone()).collect();
    if left.is_empty() || right.is_empty() || space.is_empty() {
        return JoinResult::empty(right.len(), column_names, vec![0.0; m]);
    }
    if m == 1 {
        let mut r =
            crate::single::join_single_column(left.values(), right.values(), space, options);
        r.program.columns = column_names;
        r.program.column_weights = vec![1.0];
        return r;
    }

    // Blocking and negative rules operate on the concatenation of all
    // columns, once; the candidate sets are shared by every weight vector.
    let candidates = {
        let mut rows = left.concatenated_rows();
        rows.extend(right.concatenated_rows());
        candidate_stage(&PreparedColumn::build(&rows), left.len(), options)
    };
    let lr_candidates = candidates.lr_candidates();
    let ll_candidates = &candidates.blocking.left_candidates_of_left;

    // Per-column prepared text and the distance cache shared by all weight
    // vectors tried below.  Columns are prepared in parallel; the
    // per-record parallelism inside PreparedColumn::build detects it is
    // nested and stays sequential, so the pool is not oversubscribed.
    let prepared: Vec<PreparedColumn> = (0..m)
        .into_par_iter()
        .map(|c| {
            let mut vals: Vec<&str> = left.column(c).values.iter().map(String::as_str).collect();
            vals.extend(right.column(c).values.iter().map(String::as_str));
            PreparedColumn::build(&vals)
        })
        .collect();
    let cache = MultiColumnDistanceCache::build(
        space,
        &prepared,
        left.len(),
        right.len(),
        lr_candidates,
        ll_candidates,
    );

    let evaluate = |weights: &[f64]| {
        let oracle = WeightedColumnsOracle::new(&cache, weights.to_vec());
        join_with_oracle(&oracle, lr_candidates, ll_candidates, options)
    };

    // Algorithm 3.
    let g = WEIGHT_STEPS;
    let mut w = vec![0.0f64; m];
    let mut best_outcome = None; // current accepted solution U
    let mut remaining: Vec<usize> = (0..m).collect();

    loop {
        if remaining.is_empty() {
            break;
        }
        let current_recall = best_outcome
            .as_ref()
            .map(|o: &crate::greedy::GreedyOutcome| o.estimated_recall())
            .unwrap_or(0.0);
        // Enumerate every (column, mixing ratio) blend of the round in the
        // sequential algorithm's order, evaluate them all in parallel (each
        // is an independent full Algorithm 1 run over the shared cache), then
        // scan in order so the strictly-greater tie-breaking — and thus the
        // selected blend — is identical at any thread count.
        let mut blends: Vec<(usize, Vec<f64>)> = Vec::new();
        for &j in &remaining {
            let alphas: Vec<f64> = if w.iter().all(|&x| x == 0.0) {
                // With an all-zero starting vector every α yields the same
                // (rescaled) distance function; evaluating one suffices.
                vec![1.0]
            } else {
                (1..g).map(|k| k as f64 / g as f64).collect()
            };
            for alpha in alphas {
                let mut w_prime: Vec<f64> = w.iter().map(|&x| (1.0 - alpha) * x).collect();
                w_prime[j] += alpha;
                blends.push((j, w_prime));
            }
        }
        let outcomes: Vec<crate::greedy::GreedyOutcome> = blends
            .par_iter()
            .map(|(_, w_prime)| evaluate(w_prime))
            .collect();
        let mut round_best: Option<(crate::greedy::GreedyOutcome, Vec<f64>, usize)> = None;
        for ((j, w_prime), outcome) in blends.into_iter().zip(outcomes) {
            let better = match &round_best {
                None => true,
                Some((b, _, _)) => outcome.estimated_recall() > b.estimated_recall(),
            };
            if better {
                round_best = Some((outcome, w_prime, j));
            }
        }
        match round_best {
            Some((outcome, w_star, j_star)) if outcome.estimated_recall() > current_recall => {
                w = w_star;
                best_outcome = Some(outcome);
                remaining.retain(|&x| x != j_star);
            }
            _ => break,
        }
    }

    let outcome = match best_outcome {
        Some(o) => o,
        None => {
            return JoinResult::empty(right.len(), column_names, vec![0.0; m]);
        }
    };

    // Normalize weights for interpretability (scaling all weights uniformly
    // does not change the induced join because thresholds are data-derived).
    let total: f64 = w.iter().sum();
    let norm_w: Vec<f64> = if total > 0.0 {
        w.iter().map(|x| x / total).collect()
    } else {
        w.clone()
    };
    // Report only the selected (non-zero weight) columns, like Table 4(a).
    let mut selected_names = Vec::new();
    let mut selected_weights = Vec::new();
    for (name, &weight) in column_names.iter().zip(&norm_w) {
        if weight > 0.0 {
            selected_names.push(name.clone());
            selected_weights.push(weight);
        }
    }
    assemble_result(space, &outcome, selected_names, selected_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    /// A movie-like dataset where `title` is informative, `noise` is random
    /// junk, and titles in R carry small perturbations.
    fn movie_tables() -> (Table, Table) {
        let titles: Vec<String> = (0..40)
            .map(|i| format!("The Great Adventure Part {i} Returns"))
            .collect();
        let directors: Vec<String> = (0..40).map(|i| format!("Director {}", i % 7)).collect();
        let noise_left: Vec<String> = (0..40)
            .map(|i| format!("zz{}qq{}", i * 37 % 11, i))
            .collect();
        let left = Table::from_columns(
            "movies-l",
            vec![
                ("title", titles.clone()),
                ("director", directors.clone()),
                ("noise", noise_left),
            ],
        );
        let r_idx: Vec<usize> = (0..20).collect();
        let r_titles: Vec<String> = r_idx
            .iter()
            .map(|&i| format!("The Great Adventure Part {i} Return"))
            .collect();
        let r_directors: Vec<String> = r_idx
            .iter()
            .map(|&i| format!("Director {}", i % 7))
            .collect();
        let r_noise: Vec<String> = r_idx
            .iter()
            .map(|&i| format!("aa{}bb", i * 13 % 17))
            .collect();
        let right = Table::from_columns(
            "movies-r",
            vec![
                ("title", r_titles),
                ("director", r_directors),
                ("noise", r_noise),
            ],
        );
        (left, right)
    }

    #[test]
    fn selects_informative_column_and_joins_correctly() {
        let (left, right) = movie_tables();
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions {
            num_thresholds: 20,
            ..Default::default()
        };
        let result = join_multi_column(&left, &right, &space, &options);
        assert!(
            result.program.columns.contains(&"title".to_string()),
            "title should be selected, got {:?}",
            result.program.columns
        );
        assert!(
            !result.program.columns.contains(&"noise".to_string()),
            "noise column should not be selected"
        );
        // Most right records should join to the correct left record.
        let correct = result.pairs.iter().filter(|p| p.left == p.right).count();
        assert!(
            correct as f64 >= 0.7 * right.len() as f64,
            "correct = {correct}"
        );
    }

    #[test]
    fn mismatched_column_counts_panic() {
        let left = Table::from_columns("l", vec![("a", vec!["x"]), ("b", vec!["y"])]);
        let right = Table::from_columns("r", vec![("a", vec!["x"])]);
        let space = JoinFunctionSpace::reduced24();
        let res = std::panic::catch_unwind(|| {
            join_multi_column(&left, &right, &space, &AutoFjOptions::default())
        });
        assert!(res.is_err());
    }

    #[test]
    fn single_column_table_falls_back_to_single_column_path() {
        let left = Table::from_strings("l", ["alpha beta gamma", "delta epsilon zeta"]);
        let right = Table::from_strings("r", ["alpha beta gamma delta"]);
        let space = JoinFunctionSpace::reduced24();
        let result = join_multi_column(&left, &right, &space, &AutoFjOptions::default());
        assert_eq!(result.program.columns, vec!["value".to_string()]);
    }

    #[test]
    fn empty_right_table_yields_empty_result() {
        let left = Table::from_columns("l", vec![("a", vec!["x", "y"]), ("b", vec!["1", "2"])]);
        let right = Table::from_columns(
            "r",
            vec![("a", Vec::<String>::new()), ("b", Vec::<String>::new())],
        );
        let space = JoinFunctionSpace::reduced24();
        let result = join_multi_column(&left, &right, &space, &AutoFjOptions::default());
        assert_eq!(result.num_joined(), 0);
    }
}
