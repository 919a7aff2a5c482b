//! Negative-rule learning (Algorithm 2 of the paper).
//!
//! The reference table `L` has few or no duplicates, so when two `L` records
//! differ by exactly one word on each side — e.g. *"2007 LSU Tigers football
//! team"* vs *"2007 LSU Tigers baseball team"* — that pair of words
//! (`football` ≠ `baseball`) identifies *different* entities of the same
//! type.  Such learned "negative rules" are then applied to the candidate
//! `L–R` pairs: a pair whose single-word difference matches a learned rule is
//! discarded before the join search even considers it.
//!
//! [`InternedRuleSet`] is the form every pipeline runs.  It works on the
//! word-id sets a `PreparedColumn` caches per record for the
//! `(lower-case + stem + remove-punctuation, space)` scheme — exactly the
//! word sets of Algorithm 2 line 1 — so learning and applying a rule is a
//! merge walk of two sorted `u32` slices, and a rule is a pair of ids.  The
//! candidate stage ([`crate::candidates::candidate_stage`]) learns the rules
//! from the L–L candidate pairs and removes the L–R pairs they forbid; the
//! serving store applies them to each query's candidates.
//!
//! [`mod@reference`] keeps Algorithm 2 over raw strings as an executable
//! specification that only tests call.

pub mod reference;

use std::collections::HashSet;

/// Negative rules over interned word ids, stored as normalized id pairs.
#[derive(Debug, Clone, Default)]
pub struct InternedRuleSet {
    /// Normalized `(min, max)` id pairs.
    rules: HashSet<(u32, u32)>,
}

/// If two sorted, deduplicated id sets differ by exactly one id on each
/// side, return that `(only_in_a, only_in_b)` pair.  Early-exits as soon as
/// a second difference appears on either side.
fn single_id_difference(a: &[u32], b: &[u32]) -> Option<(u32, u32)> {
    let (mut i, mut j) = (0, 0);
    let mut only_a: Option<u32> = None;
    let mut only_b: Option<u32> = None;
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                if only_a.replace(x).is_some() {
                    return None;
                }
                i += 1;
            }
            (Some(_), Some(&y)) => {
                if only_b.replace(y).is_some() {
                    return None;
                }
                j += 1;
            }
            (Some(&x), None) => {
                if only_a.replace(x).is_some() {
                    return None;
                }
                i += 1;
            }
            (None, Some(&y)) => {
                if only_b.replace(y).is_some() {
                    return None;
                }
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    Some((only_a?, only_b?))
}

impl InternedRuleSet {
    /// Learn negative rules from candidate `L–L` pairs over interned word-id
    /// sets: `word_sets[i]` is the sorted, deduplicated id set of reference
    /// record `i`, `ll_candidates[i]` the indices of its blocked neighbours.
    pub fn learn<S: AsRef<[u32]>>(word_sets: &[S], ll_candidates: &[Vec<usize>]) -> Self {
        let mut rules = HashSet::new();
        for (i, neighbours) in ll_candidates.iter().enumerate() {
            for &j in neighbours {
                if i == j {
                    continue;
                }
                if let Some((a, b)) =
                    single_id_difference(word_sets[i].as_ref(), word_sets[j].as_ref())
                {
                    rules.insert((a.min(b), a.max(b)));
                }
            }
        }
        Self { rules }
    }

    /// Number of learned rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when no rules were learned.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules as a sorted pair list — the canonical serialized form, and
    /// the inverse of [`Self::from_pairs`].
    pub fn to_sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.rules.iter().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Rebuild a rule set from serialized pairs (order-insensitive; each pair
    /// is normalized to `(min, max)` like [`Self::learn`] stores them).
    pub fn from_pairs<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> Self {
        Self {
            rules: pairs
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect(),
        }
    }

    /// Whether a candidate pair of word-id sets must be discarded (the two
    /// sets differ by exactly one id on each side and that pair is a rule).
    pub fn forbids(&self, left: &[u32], right: &[u32]) -> bool {
        if self.rules.is_empty() {
            return false;
        }
        match single_id_difference(left, right) {
            Some((a, b)) => self.rules.contains(&(a.min(b), a.max(b))),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_id_difference_walks_sorted_sets() {
        assert_eq!(single_id_difference(&[1, 2, 3], &[1, 2, 4]), Some((3, 4)));
        assert_eq!(single_id_difference(&[1, 2], &[1, 2]), None);
        assert_eq!(single_id_difference(&[1, 2, 3], &[1, 4, 5]), None);
        assert_eq!(single_id_difference(&[1], &[2]), Some((1, 2)));
        // One-sided differences are not single-word *swaps*.
        assert_eq!(single_id_difference(&[1, 2, 3], &[1, 2]), None);
        assert_eq!(single_id_difference(&[], &[7]), None);
        assert_eq!(single_id_difference(&[], &[]), None);
    }
}
