//! Single-column Auto-FuzzyJoin driver (Algorithm 1 end-to-end).
//!
//! Glues together blocking, negative-rule learning, distance pre-computation
//! and the greedy search, and assembles the user-facing [`JoinResult`].

use crate::candidates::{candidate_stage, Candidates};
use crate::estimate::Precompute;
use crate::greedy::{run_greedy, run_greedy_with_stats, GreedyOutcome};
use crate::negative_rules::InternedRuleSet;
use crate::options::AutoFjOptions;
use crate::oracle::{DistanceOracle, SingleColumnOracle};
use crate::program::{Config, JoinProgram, JoinResult, JoinedPair};
use crate::trace::{self, Phase};
use autofj_block::BlockingOutput;
use autofj_text::JoinFunctionSpace;

/// Everything the single-column pipeline computed on the way to a
/// [`JoinResult`] that an online serving layer needs to replay the join per
/// record: the prepared-column oracle, the blocking candidate sets, the
/// learned negative rules (when enabled), and the raw greedy outcome.
///
/// Returned by [`join_single_column_with_artifacts`]; `None` when the
/// pipeline took the empty-input early exit and never ran.
pub struct PipelineArtifacts {
    /// The oracle holding the prepared column over `left ++ right`.
    pub oracle: SingleColumnOracle,
    /// Blocking output (L–R and L–L candidate sets, candidates per record).
    pub blocking: BlockingOutput,
    /// Learned interned negative rules; `None` when disabled by options.
    pub rules: Option<InternedRuleSet>,
    /// The greedy search outcome the result was assembled from.
    pub outcome: GreedyOutcome,
}

/// Run single-column Auto-FuzzyJoin over raw string columns.
///
/// Every record is tokenized and interned exactly once, when the oracle's
/// prepared column is built; blocking and negative rules then run on the
/// cached interned token sets instead of re-tokenizing per stage (or, for
/// negative rules, per candidate pair).
pub fn join_single_column(
    left: &[String],
    right: &[String],
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> JoinResult {
    join_single_column_with_artifacts(left, right, space, options).0
}

/// Like [`join_single_column`], but also hands back the intermediate
/// [`PipelineArtifacts`] so callers (the snapshot store) can freeze the
/// learned state instead of recomputing it.
pub fn join_single_column_with_artifacts(
    left: &[String],
    right: &[String],
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (JoinResult, Option<PipelineArtifacts>) {
    if let Err(msg) = options.validate() {
        panic!("invalid AutoFjOptions: {msg}");
    }
    let columns = vec!["value".to_string()];
    let weights = vec![1.0];
    if left.is_empty() || right.is_empty() || space.is_empty() {
        return (JoinResult::empty(right.len(), columns, weights), None);
    }

    // Prepare all records once (pre-processing, interned token sets,
    // embeddings); the same column feeds blocking, negative rules and every
    // distance evaluation below.
    let oracle = {
        let _t = trace::scoped(Phase::Prepare);
        SingleColumnOracle::build(space.functions(), left, right)
    };
    // Lines 1–2: blocking over L–L and L–R on the interned 3-gram sets, then
    // negative rules learned from the L–L pairs and applied to the L–R
    // pairs on the cached word-id sets.
    let candidates = candidate_stage(oracle.column(), left.len(), options);

    // Lines 3–4: distances + precision pre-computation.
    let pre = {
        let _t = trace::scoped(Phase::Precompute);
        Precompute::build(
            &oracle,
            candidates.lr_candidates(),
            &candidates.blocking.left_candidates_of_left,
            options.num_thresholds,
        )
    };

    // Lines 5–14: greedy union-of-configurations search (the greedy module
    // times its own score / argmax / conflict-resolve sub-phases).
    let (outcome, greedy) = run_greedy_with_stats(&pre, options);
    trace::record(|t| {
        t.precompute_work = pre.work;
        t.greedy = greedy;
    });
    let result = {
        let _t = trace::scoped(Phase::Assemble);
        assemble_result(space, &outcome, columns, weights)
    };
    let Candidates {
        blocking, rules, ..
    } = candidates;
    let artifacts = PipelineArtifacts {
        oracle,
        blocking,
        rules,
        outcome,
    };
    (result, Some(artifacts))
}

/// Turn a greedy outcome into the user-facing [`JoinResult`].
pub(crate) fn assemble_result(
    space: &JoinFunctionSpace,
    outcome: &GreedyOutcome,
    columns: Vec<String>,
    column_weights: Vec<f64>,
) -> JoinResult {
    let configs: Vec<Config> = outcome
        .selected
        .iter()
        .map(|c| Config::new(space.functions()[c.function], c.threshold as f64))
        .collect();
    let mut pairs = Vec::new();
    let mut assignment = Vec::with_capacity(outcome.assignment.len());
    for (r, a) in outcome.assignment.iter().enumerate() {
        match a {
            Some(a) => {
                assignment.push(Some(a.left as usize));
                pairs.push(JoinedPair {
                    right: r,
                    left: a.left as usize,
                    distance: a.distance as f64,
                    config_index: a.config_ordinal,
                    estimated_precision: a.precision,
                });
            }
            None => assignment.push(None),
        }
    }
    JoinResult {
        program: JoinProgram {
            configs,
            columns,
            column_weights,
        },
        assignment,
        pairs,
        estimated_precision: outcome.estimated_precision(),
        estimated_recall: outcome.estimated_recall(),
        precision_trace: outcome.precision_trace.clone(),
    }
}

/// Run the pre-compute + greedy pipeline over an arbitrary oracle (used by
/// the multi-column search, which supplies weighted-sum distances).
pub(crate) fn join_with_oracle<O: DistanceOracle>(
    oracle: &O,
    lr_candidates: &[Vec<usize>],
    ll_candidates: &[Vec<usize>],
    options: &AutoFjOptions,
) -> GreedyOutcome {
    let pre = Precompute::build(oracle, lr_candidates, ll_candidates, options.num_thresholds);
    run_greedy(&pre, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autofj_text::JoinFunctionSpace;

    fn left_table() -> Vec<String> {
        let mut v = Vec::new();
        for year in 2000..2012 {
            for team in [
                "LSU Tigers football team",
                "LSU Tigers baseball team",
                "Wisconsin Badgers football team",
                "Alabama Crimson Tide football team",
                "Oregon Ducks football team",
            ] {
                v.push(format!("{year} {team}"));
            }
        }
        v
    }

    #[test]
    fn end_to_end_single_column_join_meets_target_and_finds_matches() {
        let left = left_table();
        let right = vec![
            "2003 LSU Tigers football".to_string(),
            "2007 Wisconsin Badgers futball team".to_string(),
            "2010 Oregon Ducks football team (NCAA)".to_string(),
            "totally unrelated string".to_string(),
        ];
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let result = join_single_column(&left, &right, &space, &options);
        assert!(result.estimated_precision >= options.precision_target || result.pairs.is_empty());
        // All three perturbed records join to a left record containing the
        // same year and team.
        for (r, expect) in [
            (0usize, "2003 LSU Tigers football team"),
            (1, "2007 Wisconsin Badgers football team"),
            (2, "2010 Oregon Ducks football team"),
        ] {
            let l = result.assignment[r].expect("record should be joined");
            assert_eq!(left[l], expect);
        }
        // The unrelated record stays unjoined.
        assert!(result.assignment[3].is_none());
        // The program is explainable.
        assert!(result.program.describe().contains("≤"));
    }

    #[test]
    fn negative_rules_prevent_single_token_swaps() {
        let left = left_table();
        // This record's closest left is the baseball variant of the same
        // year/team — exactly the Figure 3(a) (l6, r6) trap.
        let right = vec!["2005 LSU Tigers baseball team".to_string()];
        let space = JoinFunctionSpace::reduced24();
        // Remove the true counterpart from L so the trap is real.
        let left_without: Vec<String> = left
            .iter()
            .filter(|s| *s != "2005 LSU Tigers baseball team")
            .cloned()
            .collect();
        let with_rules =
            join_single_column(&left_without, &right, &space, &AutoFjOptions::default());
        // With negative rules the football/baseball and year rules forbid the
        // false positive.
        assert!(
            with_rules.assignment[0].is_none(),
            "expected no join, got {:?}",
            with_rules.assignment[0].map(|l| left_without[l].clone())
        );
    }

    #[test]
    fn empty_inputs_produce_empty_result() {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let r = join_single_column(&[], &["x".to_string()], &space, &options);
        assert_eq!(r.num_joined(), 0);
        let r = join_single_column(&["x".to_string()], &[], &space, &options);
        assert_eq!(r.assignment.len(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid AutoFjOptions")]
    fn invalid_options_panic() {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions {
            precision_target: 2.0,
            ..Default::default()
        };
        join_single_column(&["a".to_string()], &["b".to_string()], &space, &options);
    }

    #[test]
    fn exact_duplicates_join_with_high_precision() {
        let left = left_table();
        let right: Vec<String> = left.iter().take(10).map(|s| format!("{s}!")).collect();
        let space = JoinFunctionSpace::reduced24();
        let result = join_single_column(&left, &right, &space, &AutoFjOptions::default());
        let correct = result
            .pairs
            .iter()
            .filter(|p| left[p.left] == left[p.right])
            .count();
        assert!(correct >= 8, "only {correct}/10 near-exact matches joined");
    }
}
