//! Retained string-path reference implementation of the blocker.
//!
//! This is the pre-interning pipeline kept as an executable specification:
//! grams are `String`s looked up in a `HashMap`, every probe scores into a
//! fresh `HashMap`, and top-k is a full sort of the scored set.  It is
//! deliberately simple and allocation-heavy — the property tests pin that the
//! interned, scratch-reusing fast path of [`crate::index`] produces candidate
//! lists *identical* to this one on random tables, factors and thread
//! counts, so any future optimization of the hot path is checked against an
//! implementation a reviewer can read top to bottom.
//!
//! To make "identical" hold exactly (not just up to floating-point
//! reordering), both paths accumulate each reference record's score over the
//! probe's unique grams in ascending *gram-id* order — ids are assigned on
//! first sight while scanning the reference records in order, exactly like
//! the fast path's shared vocabulary.

use crate::index::{Blocker, BlockingOutput};
use autofj_text::preprocess::Preprocessing;
use autofj_text::tokenize::qgram_tokenize;
use std::collections::HashMap;

/// String-keyed inverted index (reference path).
struct StringGramIndex {
    /// gram string -> gram id, assigned on first sight over the left records.
    ids: HashMap<String, u32>,
    /// gram id -> postings (left record indices, ascending).
    postings: Vec<Vec<u32>>,
    /// idf weight per gram id.
    idf: Vec<f64>,
    num_left: usize,
}

impl StringGramIndex {
    fn build(left_grams: &[Vec<String>]) -> Self {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut postings: Vec<Vec<u32>> = Vec::new();
        for (li, grams) in left_grams.iter().enumerate() {
            let mut seen: Vec<u32> = Vec::with_capacity(grams.len());
            for g in grams {
                let id = match ids.get(g) {
                    Some(&id) => id,
                    None => {
                        let id = postings.len() as u32;
                        ids.insert(g.clone(), id);
                        postings.push(Vec::new());
                        id
                    }
                };
                seen.push(id);
            }
            seen.sort_unstable();
            seen.dedup();
            for id in seen {
                postings[id as usize].push(li as u32);
            }
        }
        let n = left_grams.len().max(1) as f64;
        let idf = postings
            .iter()
            .map(|p| (1.0 + n / (1.0 + p.len() as f64)).ln())
            .collect();
        Self {
            ids,
            postings,
            idf,
            num_left: left_grams.len(),
        }
    }

    /// Score every left record against a probe gram multiset and return the
    /// top-k indices via a full sort of the scored set.
    fn top_k(&self, probe_grams: &[String], k: usize, exclude: Option<usize>) -> Vec<usize> {
        // Deduplicate probe grams by id and iterate ascending, fixing the
        // floating-point summation order to match the interned path.
        let mut uniq: Vec<u32> = probe_grams
            .iter()
            .filter_map(|g| self.ids.get(g.as_str()).copied())
            .collect();
        uniq.sort_unstable();
        uniq.dedup();
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for id in uniq {
            let w = self.idf[id as usize];
            for &li in &self.postings[id as usize] {
                *scores.entry(li).or_insert(0.0) += w;
            }
        }
        if let Some(ex) = exclude {
            scores.remove(&(ex as u32));
        }
        let mut scored: Vec<(u32, f64)> = scores.into_iter().collect();
        // Sort by score descending, tie-break by index for determinism.
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k.min(self.num_left));
        scored.into_iter().map(|(i, _)| i as usize).collect()
    }
}

/// Run the string-path reference blocker: same candidate lists as
/// [`Blocker::block_prepared`] over a prepared column of `left ++ right`,
/// sequential and allocation-heavy by design.
pub fn block_reference<S1: AsRef<str>, S2: AsRef<str>>(
    left: &[S1],
    right: &[S2],
    factor: f64,
) -> BlockingOutput {
    let prep = Preprocessing::Lower;
    let left_grams: Vec<Vec<String>> = left
        .iter()
        .map(|s| qgram_tokenize(&prep.apply(s.as_ref()), 3))
        .collect();
    let right_grams: Vec<Vec<String>> = right
        .iter()
        .map(|s| qgram_tokenize(&prep.apply(s.as_ref()), 3))
        .collect();
    let index = StringGramIndex::build(&left_grams);
    let k = Blocker::with_factor(factor).candidates_per_record(left.len());
    let left_candidates_of_right = right_grams
        .iter()
        .map(|g| index.top_k(g, k, None))
        .collect();
    let left_candidates_of_left = (0..left_grams.len())
        .map(|li| index.top_k(&left_grams[li], k, Some(li)))
        .collect();
    BlockingOutput {
        left_candidates_of_right,
        left_candidates_of_left,
        candidates_per_record: k,
        // The reference path reports no probe counters; tests compare the
        // candidate lists, never the stats.
        stats: crate::BlockingStats::default(),
    }
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
}
