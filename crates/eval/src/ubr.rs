//! Upper Bound of Recall (UBR), §5.1.3.
//!
//! Some ground-truth pairs are semantically related but syntactically
//! unreachable for any fuzzy join (e.g. *"Lita (wrestler)"* / *"Amy Dumas"*).
//! The UBR measures, for a given search space, the fraction of ground-truth
//! pairs `(l, r)` for which *some* configuration makes `l` the nearest
//! reference record of `r` — i.e. the best recall any fuzzy-join program over
//! that space could possibly achieve.
//!
//! "Nearest" is the pipeline's own: candidates come from the run's blocker,
//! and each kernel group of the space folds them through the shared nearest
//! fold the estimator and the query path use
//! ([`autofj_text::KernelGroup::nearest_into`]), so `f32` ties break exactly
//! as they do in a join.

use autofj_core::oracle::{DistanceOracle, SingleColumnOracle};
use autofj_core::AutoFjOptions;
use autofj_text::JoinFunctionSpace;
use rayon::prelude::*;

/// Compute the upper bound of (relative) recall for a single-column task.
///
/// Candidates come from the run's blocking (`options.blocker()`, so the
/// blocking factor β is the run's).  For every join function in `space`,
/// every right record's nearest blocked left candidate is the pipeline's
/// own: the oracle's kernel-group fold ([`DistanceOracle::group_nearest`]),
/// with `f32` distances and first-wins ties.  A ground-truth pair is
/// *feasible* if it is the nearest pair under at least one function.  The
/// returned value is `feasible / total-ground-truth` (0 when there is no
/// ground truth).
pub fn upper_bound_recall(
    left: &[String],
    right: &[String],
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    ground_truth: &[Option<usize>],
) -> f64 {
    let total = ground_truth.iter().flatten().count();
    if total == 0 || left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let oracle = SingleColumnOracle::build(space.functions(), left, right);
    let blocking = options
        .blocker()
        .block_prepared(oracle.column(), left.len());
    let groups = oracle.eval_groups();
    let feasible = (0..right.len())
        .into_par_iter()
        .filter(|&r| {
            let Some(truth) = ground_truth[r] else {
                return false;
            };
            let candidates = &blocking.left_candidates_of_right[r];
            groups.iter().any(|g| {
                let mut nearest = vec![None; g.members.len()];
                oracle.group_nearest(g, r, candidates, &mut nearest);
                nearest
                    .iter()
                    .any(|n| n.is_some_and(|(l, _)| l as usize == truth))
            })
        })
        .count();
    feasible as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_pairs_are_counted_unreachable_are_not() {
        let left: Vec<String> = vec![
            "2007 LSU Tigers football team".into(),
            "2008 Wisconsin Badgers football team".into(),
            "Rapastinel".into(),
        ];
        let right: Vec<String> = vec![
            "2007 LSU Tigers football".into(), // reachable (token overlap)
            "GLYX-13".into(),                  // synonym, not reachable syntactically
        ];
        let gt = vec![Some(0), Some(2)];
        let ubr = upper_bound_recall(
            &left,
            &right,
            &JoinFunctionSpace::reduced24(),
            &AutoFjOptions::default(),
            &gt,
        );
        assert!((ubr - 0.5).abs() < 1e-9, "ubr = {ubr}");
    }

    #[test]
    fn empty_ground_truth_gives_zero() {
        let left: Vec<String> = vec!["a".into()];
        let right: Vec<String> = vec!["a".into()];
        assert_eq!(
            upper_bound_recall(
                &left,
                &right,
                &JoinFunctionSpace::reduced24(),
                &AutoFjOptions::default(),
                &[None]
            ),
            0.0
        );
    }

    #[test]
    fn identical_tables_have_full_upper_bound() {
        let left: Vec<String> = (0..20)
            .map(|i| format!("Entity number {i} of the reference"))
            .collect();
        let right = left.clone();
        let gt: Vec<Option<usize>> = (0..20).map(Some).collect();
        let ubr = upper_bound_recall(
            &left,
            &right,
            &JoinFunctionSpace::reduced24(),
            &AutoFjOptions::default(),
            &gt,
        );
        assert_eq!(ubr, 1.0);
    }
}
