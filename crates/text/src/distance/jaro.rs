//! Jaro and Jaro-Winkler distance over interned character ids.
//!
//! [`bounded_jaro_winkler_ids`] is the production entry point: the kernel
//! layer calls it with the `u32` character ids cached in `PreparedColumn`,
//! and its optional distance bound prunes pairs whose length ratio already
//! caps the similarity below the threshold.
//!
//! The match scan is bit-parallel.  The shared pattern-mask table holds
//! the positions of each character of `b`, and `b`'s matched positions are
//! a bit set, so `a[i]`'s match is the lowest set bit of
//! `mask(a[i]) & window(i) & !matched_b`, read over the window's words in
//! ascending order.  That is exactly the first unmatched `j` the textbook
//! scan picks.  Transpositions pair the set bits of the two match sets in
//! order.  The textbook scalar scan is kept as the spec in
//! [`super::reference`].

use super::masks::PatternMasks;

const PREFIX_SCALE: f64 = 0.1;
const MAX_PREFIX: usize = 4;

/// Reusable buffers for the Jaro kernel (one per worker thread).
#[derive(Debug, Default, Clone)]
pub struct JaroScratch {
    /// Pattern-match masks over `b`.
    masks: PatternMasks,
    /// Matched positions of `a`, one bit each.
    a_matched: Vec<u64>,
    /// Matched positions of `b`, one bit each.
    b_matched: Vec<u64>,
}

/// The bits of word `wi` that lie in the position range `lo..hi`, where
/// `wi` is one of the words that range covers.
#[inline]
fn window_word(lo: usize, hi: usize, wi: usize) -> u64 {
    let base = wi * 64;
    let start = lo.saturating_sub(base);
    let end = (hi - base).min(64);
    (!0u64 >> (64 - end)) & (!0u64 << start)
}

/// Jaro similarity over interned character ids, reusing `scratch`.
pub fn jaro_similarity_ids(a: &[u32], b: &[u32], scratch: &mut JaroScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    let match_window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (a_matched, b_matched) = (&mut scratch.a_matched, &mut scratch.b_matched);
    a_matched.clear();
    a_matched.resize(a.len().div_ceil(64), 0);
    b_matched.clear();
    b_matched.resize(b.len().div_ceil(64), 0);
    scratch.masks.with(b, |pm| {
        // The scan stops at the first `i` whose window starts past the end
        // of `b`: only there does `lo >= hi` hold, and then for every later `i`.
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(match_window);
            let hi = (i + match_window + 1).min(b.len());
            if lo >= hi {
                break;
            }
            let row = pm.row(ca);
            for wi in lo / 64..=(hi - 1) / 64 {
                let free = row[wi] & !b_matched[wi] & window_word(lo, hi, wi);
                if free != 0 {
                    b_matched[wi] |= free & free.wrapping_neg();
                    a_matched[i / 64] |= 1u64 << (i % 64);
                    break;
                }
            }
        }
    });
    let matches: u32 = a_matched.iter().map(|w| w.count_ones()).sum();
    if matches == 0 {
        return 0.0;
    }
    // Count transpositions: pair the k-th matched position of `a` with the
    // k-th matched position of `b`.
    let mut transpositions = 0usize;
    let (mut bw, mut b_bits) = (0usize, b_matched[0]);
    for (aw, &word) in a_matched.iter().enumerate() {
        let mut a_bits = word;
        while a_bits != 0 {
            let i = aw * 64 + a_bits.trailing_zeros() as usize;
            a_bits &= a_bits - 1;
            while b_bits == 0 {
                bw += 1;
                b_bits = b_matched[bw];
            }
            let j = bw * 64 + b_bits.trailing_zeros() as usize;
            b_bits &= b_bits - 1;
            if a[i] != b[j] {
                transpositions += 1;
            }
        }
    }
    let m = matches as f64;
    let t = (transpositions / 2) as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro-Winkler distance over interned character ids, reusing `scratch`:
/// the standard prefix scale of 0.1 and a maximum rewarded prefix of 4.
pub fn jaro_winkler_distance_ids(a: &[u32], b: &[u32], scratch: &mut JaroScratch) -> f64 {
    let jaro = jaro_similarity_ids(a, b, scratch);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    1.0 - (jaro + prefix * PREFIX_SCALE * (1.0 - jaro)).min(1.0)
}

/// Jaro-Winkler distance over interned character ids with an optional bound.
///
/// Contract: equals the exact distance whenever the exact distance is
/// `≤ bound`; otherwise returns some value in `(bound, exact]`.  The prune
/// uses the length-ratio cap on Jaro similarity (`m ≤ min(|a|, |b|)` matches,
/// zero transpositions, maximal Winkler boost), which upper-bounds the true
/// similarity, so the derived lower bound on the distance is safe.
pub fn bounded_jaro_winkler_ids(
    a: &[u32],
    b: &[u32],
    bound: Option<f64>,
    scratch: &mut JaroScratch,
) -> f64 {
    if let Some(bound) = bound {
        if !a.is_empty() && !b.is_empty() {
            let min_len = a.len().min(b.len()) as f64;
            let s_max = (min_len / a.len() as f64 + min_len / b.len() as f64 + 1.0) / 3.0;
            let sim_cap = s_max + MAX_PREFIX as f64 * PREFIX_SCALE * (1.0 - s_max);
            let dist_floor = 1.0 - sim_cap;
            if dist_floor > bound {
                return dist_floor;
            }
        }
    }
    jaro_winkler_distance_ids(a, b, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::reference::{char_ids, jaro_winkler_distance_reference};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    fn jaro(a: &str, b: &str) -> f64 {
        jaro_similarity_ids(&char_ids(a), &char_ids(b), &mut JaroScratch::default())
    }

    fn jw_sim(a: &str, b: &str) -> f64 {
        1.0 - jaro_winkler_distance_ids(&char_ids(a), &char_ids(b), &mut JaroScratch::default())
    }

    #[test]
    fn identical_strings_are_similarity_one() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert_eq!(jw_sim("martha", "martha"), 1.0);
    }

    #[test]
    fn textbook_martha_marhta() {
        assert!(close(jaro("martha", "marhta"), 0.9444));
        assert!(close(jw_sim("martha", "marhta"), 0.9611));
    }

    #[test]
    fn textbook_dwayne_duane() {
        assert!(close(jaro("dwayne", "duane"), 0.8222));
        assert!(close(jw_sim("dwayne", "duane"), 0.84));
    }

    #[test]
    fn disjoint_strings_have_zero_similarity() {
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jw_sim("abc", "xyz"), 0.0);
    }

    #[test]
    fn empty_string_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let pairs = [("crate", "trace"), ("abcdef", "abcdxy"), ("a", "ab")];
        for (x, y) in pairs {
            let d1 = 1.0 - jw_sim(x, y);
            let d2 = 1.0 - jw_sim(y, x);
            assert!((d1 - d2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&d1));
        }
    }

    #[test]
    fn shared_prefix_gets_winkler_boost() {
        assert!(jw_sim("prefixed", "prefixes") >= jaro("prefixed", "prefixes"));
    }

    #[test]
    fn textbook_dixon_dicksonx() {
        // The third classic pair from Winkler's papers.
        assert!(close(jaro("dixon", "dicksonx"), 0.7667));
        assert!(close(jw_sim("dixon", "dicksonx"), 0.8133));
    }

    #[test]
    fn textbook_crate_trace_transpositions() {
        // CRATE/TRACE: 3 matches within the window, 1 transposition pair.
        assert!(close(jaro("crate", "trace"), 0.7333));
    }

    #[test]
    fn winkler_boost_caps_at_four_prefix_chars() {
        // Both pairs differ only after the 4th character, so the rewarded
        // prefix is identical even though the shared prefix is longer.
        let (four, jaro_four) = (jw_sim("abcdexx", "abcdeyy"), jaro("abcdexx", "abcdeyy"));
        let (five, jaro_five) = (jw_sim("abcdefx", "abcdefy"), jaro("abcdefx", "abcdefy"));
        assert!(close(four - jaro_four, 0.4 * (1.0 - jaro_four)));
        assert!(close(five - jaro_five, 0.4 * (1.0 - jaro_five)));
    }

    #[test]
    fn similarity_never_leaves_unit_interval() {
        let words = ["", "a", "ab", "martha", "marhta", "xyzzy", "ααβ"];
        for x in words {
            for y in words {
                let s = jw_sim(x, y);
                assert!((0.0..=1.0).contains(&s), "{x:?}/{y:?} -> {s}");
                assert!((0.0..=1.0).contains(&jaro(x, y)), "{x:?}/{y:?}");
            }
        }
    }

    #[test]
    fn jaro_is_symmetric() {
        let pairs = [("dwayne", "duane"), ("dixon", "dicksonx"), ("", "abc")];
        for (x, y) in pairs {
            assert!((jaro(x, y) - jaro(y, x)).abs() < 1e-12);
        }
    }

    #[test]
    fn bit_parallel_scan_equals_reference_across_words_and_scripts() {
        // Short, multi-word (> 64 and > 128 chars) and non-Latin-1 inputs,
        // through one reused scratch so stale masks or flags would show.
        let long = "abcdefgh".repeat(17);
        let long_edit = format!("x{}ba", &long[3..]);
        let words = [
            "",
            "a",
            "martha",
            "marhta",
            "dixon",
            "dicksonx",
            "ααβ",
            "中文队 2007 😀",
            "2007 中文 team",
            long.as_str(),
            long_edit.as_str(),
        ];
        let mut scratch = JaroScratch::default();
        for x in words {
            for y in words {
                let (xi, yi) = (char_ids(x), char_ids(y));
                assert_eq!(
                    jaro_winkler_distance_ids(&xi, &yi, &mut scratch).to_bits(),
                    jaro_winkler_distance_reference(&xi, &yi).to_bits(),
                    "{x:?}/{y:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_jaro_winkler_honours_contract() {
        let words = [
            "martha",
            "marhta",
            "a",
            "completely different words",
            "mart",
        ];
        let ids = char_ids;
        let mut scratch = JaroScratch::default();
        for x in words {
            for y in words {
                let exact = jaro_winkler_distance_ids(&ids(x), &ids(y), &mut scratch);
                for bound in [0.0, 0.05, 0.2, 0.5, 1.0] {
                    let got = bounded_jaro_winkler_ids(&ids(x), &ids(y), Some(bound), &mut scratch);
                    if exact <= bound {
                        assert_eq!(got, exact, "{x:?}/{y:?} τ={bound}");
                    } else {
                        assert!(
                            got > bound && got <= exact,
                            "{x:?}/{y:?} τ={bound} got {got}"
                        );
                    }
                }
            }
        }
    }
}
