//! Algorithm 2 over raw strings, kept as an executable specification.
//!
//! Rules are pairs of owned words, and every verdict re-tokenizes both
//! records through [`rule_word_set`].  No pipeline calls this module: the
//! candidate stage and the serving store run [`super::InternedRuleSet`] on
//! the word-id sets of the prepared column.  Tests pin that both forms learn
//! the same rules and return the same verdicts, so the interned form is
//! checked against an implementation a reviewer can read top to bottom.

use autofj_text::preprocess::{normalize_whitespace, remove_punctuation, stem_words};
use std::collections::HashSet;

/// A learned negative rule: the unordered pair of single words that
/// distinguish two reference records.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NegativeRule {
    /// Lexicographically smaller word of the pair.
    pub word_a: String,
    /// Lexicographically larger word of the pair.
    pub word_b: String,
}

impl NegativeRule {
    /// Build a rule from two words, normalizing the order so that
    /// `NR(a, b) == NR(b, a)`.
    pub fn new(a: &str, b: &str) -> Self {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        Self {
            word_a: a.to_string(),
            word_b: b.to_string(),
        }
    }
}

/// The set of negative rules learned from a reference table.
#[derive(Debug, Clone, Default)]
pub struct NegativeRuleSet {
    rules: HashSet<NegativeRule>,
}

/// Pre-processing used by Algorithm 2 line 1: lower-casing, stemming,
/// punctuation removal, then splitting into a word set.
pub fn rule_word_set(s: &str) -> HashSet<String> {
    let cleaned = stem_words(&normalize_whitespace(&remove_punctuation(
        &s.to_lowercase(),
    )));
    cleaned.split_whitespace().map(str::to_string).collect()
}

/// If the two word sets differ by exactly one word on each side, return that
/// pair of words.
fn single_word_difference(w1: &HashSet<String>, w2: &HashSet<String>) -> Option<(String, String)> {
    let mut d12 = w1.difference(w2);
    let a = d12.next()?;
    if d12.next().is_some() {
        return None;
    }
    let mut d21 = w2.difference(w1);
    let b = d21.next()?;
    if d21.next().is_some() {
        return None;
    }
    Some((a.clone(), b.clone()))
}

impl NegativeRuleSet {
    /// Learn negative rules from candidate `L–L` pairs (Algorithm 2,
    /// lines 2–7).  `left` holds the raw reference strings and
    /// `ll_candidates[i]` the indices of the blocked neighbours of record `i`.
    pub fn learn<S: AsRef<str>>(left: &[S], ll_candidates: &[Vec<usize>]) -> Self {
        let word_sets: Vec<HashSet<String>> =
            left.iter().map(|s| rule_word_set(s.as_ref())).collect();
        let mut rules = HashSet::new();
        for (i, neighbours) in ll_candidates.iter().enumerate() {
            for &j in neighbours {
                if i == j {
                    continue;
                }
                if let Some((a, b)) = single_word_difference(&word_sets[i], &word_sets[j]) {
                    rules.insert(NegativeRule::new(&a, &b));
                }
            }
        }
        Self { rules }
    }

    /// Learn rules from every pair of reference records (no blocking);
    /// quadratic in `|L|`.
    pub fn learn_exhaustive<S: AsRef<str>>(left: &[S]) -> Self {
        let all: Vec<Vec<usize>> = (0..left.len())
            .map(|i| (0..left.len()).filter(|&j| j != i).collect())
            .collect();
        Self::learn(left, &all)
    }

    /// Number of learned rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when no rules were learned.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether the set contains a specific rule.
    pub fn contains(&self, a: &str, b: &str) -> bool {
        self.rules.contains(&NegativeRule::new(a, b))
    }

    /// Apply the rules to a candidate `(l, r)` pair (Algorithm 2,
    /// lines 8–12): returns `true` when the pair must be *discarded*, i.e.
    /// the two records differ by exactly one word on each side and that word
    /// pair is a learned rule.
    pub fn forbids(&self, left: &str, right: &str) -> bool {
        if self.rules.is_empty() {
            return false;
        }
        let w1 = rule_word_set(left);
        let w2 = rule_word_set(right);
        match single_word_difference(&w1, &w2) {
            Some((a, b)) => self.rules.contains(&NegativeRule::new(&a, &b)),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negative_rules::InternedRuleSet;

    fn reference() -> Vec<String> {
        vec![
            "2007 LSU Tigers football team".to_string(),
            "2007 LSU Tigers baseball team".to_string(),
            "2007 Wisconsin Badgers football team".to_string(),
            "2008 Wisconsin Badgers football team".to_string(),
            "Completely unrelated record".to_string(),
        ]
    }

    #[test]
    fn learns_football_vs_baseball_and_year_rules() {
        let rules = NegativeRuleSet::learn_exhaustive(&reference());
        assert!(rules.contains("football", "baseball"));
        assert!(rules.contains("2007", "2008"));
        // Stemming: "team" is shared, so it is never a rule word.
        assert!(!rules.contains("team", "team"));
    }

    #[test]
    fn rules_are_symmetric() {
        let rules = NegativeRuleSet::learn_exhaustive(&reference());
        assert!(rules.contains("baseball", "football"));
    }

    #[test]
    fn forbids_blocks_the_figure_3a_false_positives() {
        let rules = NegativeRuleSet::learn_exhaustive(&reference());
        // (l6, r6) of Figure 3(a): only difference is football vs baseball.
        assert!(rules.forbids(
            "2007 LSU Tigers football team",
            "2007 LSU Tigers baseball team"
        ));
        // (l7, r7): only difference is the year.
        assert!(rules.forbids(
            "2007 Wisconsin Badgers football team",
            "2008 Wisconsin Badgers football team"
        ));
    }

    #[test]
    fn does_not_forbid_pairs_that_differ_by_unlearned_words() {
        let rules = NegativeRuleSet::learn_exhaustive(&reference());
        assert!(!rules.forbids(
            "2007 LSU Tigers football team",
            "2007 LSU Tigers football squad"
        ));
    }

    #[test]
    fn does_not_forbid_pairs_with_multi_word_differences() {
        let rules = NegativeRuleSet::learn_exhaustive(&reference());
        assert!(!rules.forbids(
            "2007 LSU Tigers football team",
            "2008 LSU Tigers baseball team"
        ));
    }

    #[test]
    fn empty_reference_learns_nothing() {
        let rules = NegativeRuleSet::learn_exhaustive::<&str>(&[]);
        assert!(rules.is_empty());
        assert!(!rules.forbids("a", "b"));
    }

    #[test]
    fn blocked_learning_matches_exhaustive_on_neighbouring_pairs() {
        let left = reference();
        // Hand-build candidate lists that contain the interesting neighbours.
        let cands = vec![vec![1, 2], vec![0], vec![3], vec![2], vec![]];
        let rules = NegativeRuleSet::learn(&left, &cands);
        assert!(rules.contains("football", "baseball"));
        assert!(rules.contains("2007", "2008"));
    }

    #[test]
    fn punctuation_and_case_are_ignored() {
        let left = vec!["Super Bowl XL".to_string(), "Super Bowl XLI".to_string()];
        let rules = NegativeRuleSet::learn_exhaustive(&left);
        assert!(rules.contains("xl", "xli"));
        assert!(rules.forbids("super bowl XL!", "Super Bowl xli"));
    }

    #[test]
    fn interned_rules_match_string_rules() {
        let left = reference();
        let col = autofj_text::PreparedColumn::build(&left);
        let si = autofj_text::prepared::scheme_index(
            autofj_text::Preprocessing::LowerStemRemovePunct,
            autofj_text::Tokenization::Space,
        );
        let sets: Vec<&[u32]> = col
            .records()
            .iter()
            .map(|rec| rec.token_sets[si].as_slice())
            .collect();
        let all: Vec<Vec<usize>> = (0..left.len())
            .map(|i| (0..left.len()).filter(|&j| j != i).collect())
            .collect();
        let interned = InternedRuleSet::learn(&sets, &all);
        let strings = NegativeRuleSet::learn(&left, &all);
        assert_eq!(interned.len(), strings.len());
        // Every pair's verdict agrees between the two representations.
        for i in 0..left.len() {
            for j in 0..left.len() {
                assert_eq!(
                    interned.forbids(sets[i], sets[j]),
                    strings.forbids(&left[i], &left[j]),
                    "verdicts diverged for ({i}, {j})"
                );
            }
        }
    }
}
