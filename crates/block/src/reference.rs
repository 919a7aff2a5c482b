//! The executable specification of blocking: a dense top-k over sorted
//! gram-id sets.
//!
//! [`BlockingSpec`] is the blocker written the obvious way.  Every probe
//! gram's full postings list is added into a fresh dense score vector in
//! ascending gram-id order, with idf `ln(1 + |L| / (1 + df))` from the
//! reference-side document frequency.  Every touched record is then sorted
//! by `(score desc, index asc)` and the first `k` are kept.  It counts what
//! that walk does in a [`BlockingStats`].  [`block_reference`] is a string
//! front end over it: it tokenizes lower-cased 3-grams and numbers them on
//! first sight over `L`, exactly as a prepared column interns them.
//!
//! Nothing in a pipeline calls this module.  Tests pin the MaxScore probe
//! of [`crate::index`] to it: every candidate list identical, the kept-pair,
//! per-probe-max and postings-total counters equal.  Its scores are
//! bit-identical to the probe's gather-sums, which add the same matching
//! grams in the same ascending order.

use crate::index::{Blocker, BlockingOutput, BlockingStats};
use autofj_text::preprocess::Preprocessing;
use autofj_text::tokenize::qgram_tokenize;
use std::collections::HashMap;

/// The dense top-k blocker over the gram-id sets of the reference records.
#[derive(Debug, Clone)]
pub struct BlockingSpec {
    /// `postings[g]`: the reference records holding gram `g`, ascending.
    postings: Vec<Vec<u32>>,
    /// `idf[g] = ln(1 + |L| / (1 + df(g)))`.
    idf: Vec<f64>,
    num_left: usize,
    /// The counters of every probe so far: the longest kept list, the
    /// records scored (touched, less an excluded one), the records touched,
    /// and the postings read, which are all of the probe grams' postings
    /// (`postings_scanned == postings_total`).  The pair counts stay zero;
    /// [`block_sets`] sets them from its lists.
    pub stats: BlockingStats,
}

impl BlockingSpec {
    /// The spec over the reference records' gram-id sets (each sorted and
    /// deduplicated).
    pub fn new<S: AsRef<[u32]>>(left_sets: &[S]) -> Self {
        let mut postings: Vec<Vec<u32>> = Vec::new();
        for (l, set) in left_sets.iter().enumerate() {
            for &g in set.as_ref() {
                if postings.len() <= g as usize {
                    postings.resize(g as usize + 1, Vec::new());
                }
                postings[g as usize].push(l as u32);
            }
        }
        let n = left_sets.len().max(1) as f64;
        let idf = (postings.iter())
            .map(|p| (1.0 + n / (1.0 + p.len() as f64)).ln())
            .collect();
        Self {
            postings,
            idf,
            num_left: left_sets.len(),
            stats: BlockingStats::default(),
        }
    }

    /// The `k` reference records sharing the most idf weight with `probe`,
    /// best first, ties toward the lower index; `exclude` is never kept.
    pub fn top_k(&mut self, probe: &[u32], k: usize, exclude: Option<u32>) -> Vec<usize> {
        let mut grams = probe.to_vec();
        grams.sort_unstable();
        grams.dedup();
        let mut scores = vec![0.0f64; self.num_left];
        for g in grams {
            let Some(posts) = self.postings.get(g as usize) else {
                continue;
            };
            self.stats.postings_total += posts.len() as u64;
            for &l in posts {
                scores[l as usize] += self.idf[g as usize];
            }
        }
        self.stats.postings_scanned = self.stats.postings_total;
        // Every idf is positive, so a record is touched exactly when its
        // score is.
        let mut scored: Vec<(u32, f64)> = (0..self.num_left as u32)
            .map(|l| (l, scores[l as usize]))
            .filter(|&(_, score)| score > 0.0)
            .collect();
        self.stats.touched_records += scored.len() as u64;
        scored.retain(|&(l, _)| Some(l) != exclude);
        self.stats.scored_records += scored.len() as u64;
        // The first `k` of the full `(score desc, index asc)` order.
        let order = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if scored.len() > k {
            scored.select_nth_unstable_by(k, order);
            scored.truncate(k);
        }
        scored.sort_unstable_by(order);
        self.stats.per_probe_max = self.stats.per_probe_max.max(scored.len() as u64);
        scored.into_iter().map(|(l, _)| l as usize).collect()
    }
}

/// Block gram-id sets with the spec at blocking factor `factor`: every
/// right set, then every left set against the others, and the walk's
/// counters with the kept pairs.
pub fn block_sets<S1: AsRef<[u32]>, S2: AsRef<[u32]>>(
    left_sets: &[S1],
    right_sets: &[S2],
    factor: f64,
) -> BlockingOutput {
    let mut spec = BlockingSpec::new(left_sets);
    let k = Blocker::with_factor(factor).candidates_per_record(left_sets.len());
    let left_candidates_of_right: Vec<Vec<usize>> = (right_sets.iter())
        .map(|probe| spec.top_k(probe.as_ref(), k, None))
        .collect();
    let left_candidates_of_left: Vec<Vec<usize>> = (left_sets.iter().enumerate())
        .map(|(l, probe)| spec.top_k(probe.as_ref(), k, Some(l as u32)))
        .collect();
    let pairs = |lists: &[Vec<usize>]| lists.iter().map(|c| c.len() as u64).sum();
    BlockingOutput {
        stats: BlockingStats {
            lr_pairs: pairs(&left_candidates_of_right),
            ll_pairs: pairs(&left_candidates_of_left),
            ..spec.stats
        },
        left_candidates_of_right,
        left_candidates_of_left,
        candidates_per_record: k,
    }
}

/// Block raw strings with the spec: lower-cased 3-grams numbered on first
/// sight over `left` (grams only `right` holds have no postings and are
/// dropped), then [`block_sets`].  The same lists as
/// [`Blocker::block_prepared`] over a prepared column of `left ++ right`.
pub fn block_reference<S1: AsRef<str>, S2: AsRef<str>>(
    left: &[S1],
    right: &[S2],
    factor: f64,
) -> BlockingOutput {
    let grams = |s: &str| qgram_tokenize(&Preprocessing::Lower.apply(s), 3);
    let sorted = |mut set: Vec<u32>| {
        set.sort_unstable();
        set.dedup();
        set
    };
    let mut ids: HashMap<String, u32> = HashMap::new();
    let left_sets: Vec<Vec<u32>> = (left.iter())
        .map(|s| {
            let set = (grams(s.as_ref()).into_iter())
                .map(|g| {
                    let next = ids.len() as u32;
                    *ids.entry(g).or_insert(next)
                })
                .collect();
            sorted(set)
        })
        .collect();
    let right_sets: Vec<Vec<u32>> = (right.iter())
        .map(|s| {
            sorted(
                grams(s.as_ref())
                    .iter()
                    .filter_map(|g| ids.get(g).copied())
                    .collect(),
            )
        })
        .collect();
    block_sets(&left_sets, &right_sets, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        (0..30)
            .map(|i| format!("200{} team number {} football", i % 10, i))
            .collect()
    }

    #[test]
    fn reference_and_fast_path_agree_on_a_fixed_table() {
        let left = names();
        let right = vec![
            "2003 team number 13 football".to_string(),
            "completely different".to_string(),
            left[4].clone(),
        ];
        let all: Vec<&str> = left.iter().chain(&right).map(String::as_str).collect();
        let col = autofj_text::PreparedColumn::build(&all);
        for factor in [0.5, 1.5, 3.0] {
            let fast = Blocker::with_factor(factor).block_prepared(&col, left.len());
            let slow = block_reference(&left, &right, factor);
            assert_eq!(
                fast.left_candidates_of_right, slow.left_candidates_of_right,
                "L–R diverged at factor {factor}"
            );
            assert_eq!(
                fast.left_candidates_of_left, slow.left_candidates_of_left,
                "L–L diverged at factor {factor}"
            );
            assert_eq!(fast.candidates_per_record, slow.candidates_per_record);
        }
    }

    #[test]
    fn reference_self_exclusion_holds() {
        let left = names();
        let out = block_reference(&left, &[] as &[&str], 1.5);
        for (li, cands) in out.left_candidates_of_left.iter().enumerate() {
            assert!(!cands.contains(&li));
        }
    }

    #[test]
    fn spec_scores_sum_idf_and_break_ties_toward_the_lower_index() {
        // Gram 0 in three records, gram 1 in two, gram 2 in one: idf
        // ln(1 + 4/4), ln(1 + 4/3), ln(1 + 4/2).
        let sets = [vec![0u32, 1], vec![0, 2], vec![0, 1], vec![]];
        let mut spec = BlockingSpec::new(&sets);
        // Records 0 and 2 tie on grams {0, 1} and beat record 1's {0}.
        assert_eq!(spec.top_k(&[1, 0, 1, 7], 4, None), [0, 2, 1]);
        assert_eq!(spec.top_k(&[0, 1], 2, Some(0)), [2, 1]);
        assert_eq!(spec.top_k(&[2], 4, None), [1]);
        assert_eq!(spec.top_k(&[9], 4, None), Vec::<usize>::new());
        let s = spec.stats;
        assert_eq!(s.postings_total, (3 + 2) + (3 + 2) + 1);
        assert_eq!(s.postings_scanned, s.postings_total);
        assert_eq!(
            (s.touched_records, s.scored_records),
            (3 + 3 + 1, 3 + 2 + 1)
        );
        assert_eq!(s.per_probe_max, 3);
    }
}
