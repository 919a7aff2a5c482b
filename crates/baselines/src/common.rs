//! Shared infrastructure for the baseline matchers: candidate generation and
//! the matcher traits.

use autofj_block::Blocker;
use autofj_eval::ScoredPrediction;
use autofj_text::PreparedColumn;

/// Candidate pairs for a task: for every right record, the blocked left
/// candidate indices (ordered by blocking score).
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// `candidates[r]` = blocked left candidates of right record `r`.
    pub candidates: Vec<Vec<usize>>,
}

impl CandidateSet {
    /// Generate candidates with the default blocker (same blocking as
    /// Auto-FuzzyJoin, so every method sees the same pairs).
    pub fn generate(left: &[String], right: &[String]) -> Self {
        let all: Vec<&str> = left.iter().chain(right).map(String::as_str).collect();
        let blocking = Blocker::new().block_prepared(&PreparedColumn::build(&all), left.len());
        Self {
            candidates: blocking.left_candidates_of_right,
        }
    }

    /// Iterate every `(right, left)` candidate pair.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.candidates
            .iter()
            .enumerate()
            .flat_map(|(r, ls)| ls.iter().map(move |&l| (r, l)))
    }

    /// Total number of candidate pairs.
    pub fn len(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }

    /// `true` when no candidate pair survived blocking.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fuzzy-join method that needs no labeled examples.
pub trait UnsupervisedMatcher {
    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// For every right record, produce the best-scoring candidate pair (or
    /// nothing when blocking yields no candidate).  Scores are similarities:
    /// higher = more likely a match.
    fn predict(&self, left: &[String], right: &[String]) -> Vec<ScoredPrediction>;
}

/// A fuzzy-join method trained on labeled examples (the 50 %-of-ground-truth
/// protocol of §5.1.3).
pub trait SupervisedMatcher {
    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Train on the right records listed in `train_rights` (whose ground
    /// truth may be inspected) and predict scores for **all** right records.
    fn fit_predict(
        &self,
        left: &[String],
        right: &[String],
        ground_truth: &[Option<usize>],
        train_rights: &[usize],
        seed: u64,
    ) -> Vec<ScoredPrediction>;
}

/// Split the right records 50/50 into train and test indices,
/// deterministically from a seed (the paper's supervised protocol).
pub fn train_test_split(
    num_right: usize,
    train_fraction: f64,
    seed: u64,
) -> (Vec<usize>, Vec<usize>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut indices: Vec<usize> = (0..num_right).collect();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let cut = ((num_right as f64) * train_fraction).round() as usize;
    let train = indices[..cut.min(num_right)].to_vec();
    let test = indices[cut.min(num_right)..].to_vec();
    (train, test)
}

/// Keep only the best-scoring prediction per right record.
pub fn best_per_right(mut preds: Vec<ScoredPrediction>) -> Vec<ScoredPrediction> {
    use std::collections::HashMap;
    let mut best: HashMap<usize, ScoredPrediction> = HashMap::new();
    for p in preds.drain(..) {
        best.entry(p.right)
            .and_modify(|cur| {
                if p.score > cur.score {
                    *cur = p;
                }
            })
            .or_insert(p);
    }
    let mut out: Vec<ScoredPrediction> = best.into_values().collect();
    out.sort_by_key(|p| p.right);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_counts_pairs() {
        let left: Vec<String> = (0..30).map(|i| format!("item number {i} alpha")).collect();
        let right: Vec<String> = vec!["item number 7 alpha beta".to_string()];
        let cs = CandidateSet::generate(&left, &right);
        assert!(!cs.is_empty());
        assert_eq!(cs.candidates.len(), 1);
        assert!(cs.pairs().count() == cs.len());
    }

    #[test]
    fn train_test_split_is_disjoint_and_complete() {
        let (train, test) = train_test_split(100, 0.5, 3);
        assert_eq!(train.len(), 50);
        assert_eq!(test.len(), 50);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn train_test_split_is_deterministic() {
        assert_eq!(train_test_split(40, 0.5, 9), train_test_split(40, 0.5, 9));
    }

    #[test]
    fn best_per_right_keeps_max_score() {
        let preds = vec![
            ScoredPrediction {
                right: 0,
                left: 1,
                score: 0.2,
            },
            ScoredPrediction {
                right: 0,
                left: 2,
                score: 0.9,
            },
            ScoredPrediction {
                right: 1,
                left: 0,
                score: 0.5,
            },
        ];
        let best = best_per_right(preds);
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].left, 2);
    }
}
