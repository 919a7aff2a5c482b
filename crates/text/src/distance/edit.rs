//! Levenshtein (edit) distance over strings.
//!
//! [`levenshtein`] is the `&str` entry point the fuzzywuzzy baseline calls.
//! It routes through the bit-parallel kernel in [`super::myers`] on this
//! thread's reused kernel scratch; the normalized distance the join
//! functions use is [`super::myers::bounded_normalized_edit`].  The
//! original scalar DP lives in [`super::reference`] and is exercised
//! against the kernel by the `kernel_reference` proptests.

use super::myers::levenshtein_ids;
use crate::kernel::with_scratch;

fn ids(s: &str) -> Vec<u32> {
    s.chars().map(|c| c as u32).collect()
}

/// Raw Levenshtein distance between two strings, counted in Unicode scalar
/// values (insertions, deletions, substitutions all cost 1).
pub fn levenshtein(a: &str, b: &str) -> usize {
    with_scratch(|s| levenshtein_ids(&ids(a), &ids(b), &mut s.edit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::myers::{bounded_normalized_edit, EditScratch};

    /// The unbounded normalized distance the edit join functions evaluate:
    /// `levenshtein(a, b) / max(|a|, |b|)`.
    fn normalized(a: &str, b: &str) -> f64 {
        bounded_normalized_edit(&ids(a), &ids(b), None, &mut EditScratch::default())
    }

    #[test]
    fn identical_strings_have_zero_distance() {
        assert_eq!(levenshtein("kitten", "kitten"), 0);
        assert_eq!(normalized("kitten", "kitten"), 0.0);
    }

    #[test]
    fn classic_kitten_sitting_is_three() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }

    #[test]
    fn empty_vs_nonempty_is_length() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(normalized("", ""), 0.0);
        assert_eq!(normalized("", "ab"), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        assert_eq!(levenshtein("flaw", "lawn"), levenshtein("lawn", "flaw"));
    }

    #[test]
    fn unicode_counts_scalar_values() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn normalized_stays_in_unit_interval() {
        let d = normalized("completely", "different!");
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn single_typo_has_small_normalized_distance() {
        // "Missisippi" vs "Mississippi" — the paper's Figure 3(a) motivation
        // for edit distance.
        let d = normalized("missisippi bulldog", "mississippi bulldogs");
        assert!(d < 0.15, "expected a small distance, got {d}");
    }

    #[test]
    fn known_values_match_hand_computation() {
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("saturday", "sunday"), 3);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        // kitten -> sitting: 3 edits over max length 7.
        assert!((normalized("kitten", "sitting") - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn completely_disjoint_strings_have_normalized_distance_one() {
        assert_eq!(normalized("aaaa", "bbbb"), 1.0);
        assert_eq!(normalized("ab", "xyz"), 1.0);
    }

    #[test]
    fn triangle_inequality_holds_on_sample_triples() {
        let words = ["team", "teams", "steam", "meat", "", "mate"];
        for a in words {
            for b in words {
                for c in words {
                    let ab = levenshtein(a, b);
                    let bc = levenshtein(b, c);
                    let ac = levenshtein(a, c);
                    assert!(ac <= ab + bc, "triangle violated for {a:?} {b:?} {c:?}");
                }
            }
        }
    }

    #[test]
    fn distance_bounded_by_longer_length_and_at_least_length_gap() {
        let pairs = [("abc", "abcdef"), ("x", "yz"), ("winter", "wine")];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            let (la, lb) = (a.chars().count(), b.chars().count());
            assert!(d >= la.abs_diff(lb));
            assert!(d <= la.max(lb));
        }
    }
}
