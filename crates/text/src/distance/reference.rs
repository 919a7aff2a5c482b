//! Scalar reference implementations of the distances.
//!
//! These are the original, obviously-correct inner loops that the
//! bit-parallel and banded kernels of [`super::myers`] and the bit-parallel
//! Jaro scan of [`super::jaro`] replaced on the hot path, and
//! [`spec_distance`], the scalar spec of every join function built on them.
//! They stay in-tree as the correctness pin: the `kernel_reference`
//! proptests drive arbitrary strings (and bounds, and thread counts)
//! through both paths and require byte-identical output, and the
//! end-to-end spec pipeline computes every distance here.
//!
//! The character distances work over `u32` character ids (Unicode scalar
//! values or any other equality-preserving interning) so that the reference
//! and the fast kernels consume exactly the same prepared inputs.

use super::hybrid::{containment_distance, ContainmentBase};
use super::{clamp_unit, embed, set};
use crate::prepared::{prep_index, scheme_index};
use crate::{DistanceFunction, JoinFunction, PreparedColumn, PreparedRecord};

/// Single-row dynamic-program Levenshtein distance over id slices
/// (insertions, deletions and substitutions all cost 1).
pub fn levenshtein_reference(a: &[u32], b: &[u32]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string in the inner loop to minimize memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// Normalized reference edit distance: `levenshtein / max(|a|, |b|)`.
pub fn normalized_edit_reference(a: &[u32], b: &[u32]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 0.0;
    }
    levenshtein_reference(a, b) as f64 / max_len as f64
}

/// Allocating reference Jaro similarity over id slices: the textbook
/// window scan over match flags, the spec the bit-parallel kernel in
/// [`super::jaro`] is pinned to.
pub fn jaro_similarity_reference(a: &[u32], b: &[u32]) -> f64 {
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
    let mut a_matched = vec![false; a.len()];
    let mut b_matched = vec![false; b.len()];
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(match_window);
        let hi = (i + match_window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut j = 0usize;
    for (i, &ma) in a_matched.iter().enumerate() {
        if !ma {
            continue;
        }
        while !b_matched[j] {
            j += 1;
        }
        if a[i] != b[j] {
            transpositions += 1;
        }
        j += 1;
    }
    let m = matches as f64;
    let t = (transpositions / 2) as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Reference Jaro-Winkler distance over id slices (prefix scale 0.1, max
/// rewarded prefix 4).
pub fn jaro_winkler_distance_reference(a: &[u32], b: &[u32]) -> f64 {
    const PREFIX_SCALE: f64 = 0.1;
    const MAX_PREFIX: usize = 4;
    let jaro = jaro_similarity_reference(a, b);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(MAX_PREFIX)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    1.0 - (jaro + prefix * PREFIX_SCALE * (1.0 - jaro)).min(1.0)
}

/// The scalar spec of join function `f` between two prepared records, `a`
/// the reference side of the directional containment hybrids, using `col`
/// only for its weight tables: [`normalized_edit_reference`] and
/// [`jaro_winkler_distance_reference`] over the character ids, the cosine
/// distance of the cached embeddings, and a set member's distance from
/// [`set::overlap`] of the pair's token sets under its weighting.  Every
/// kernel group returns these bits.
pub fn spec_distance(
    col: &PreparedColumn,
    f: JoinFunction,
    a: &PreparedRecord,
    b: &PreparedRecord,
) -> f64 {
    let pi = prep_index(f.prep);
    let (ca, cb) = (&a.char_ids[pi], &b.char_ids[pi]);
    match f.dist {
        DistanceFunction::Edit => return normalized_edit_reference(ca, cb),
        DistanceFunction::JaroWinkler => return jaro_winkler_distance_reference(ca, cb),
        DistanceFunction::Embedding => {
            return embed::cosine_distance(&a.embeddings[pi], &b.embeddings[pi])
        }
        _ => {}
    }
    let tok = f.tok.expect("set members carry a tokenization");
    let weighting = f.weight.expect("set members carry a weighting");
    let si = scheme_index(f.prep, tok);
    let weights = col.weight_table(f.prep, tok, weighting);
    let o = set::overlap(&a.token_sets[si], &b.token_sets[si], weights);
    clamp_unit(match f.dist {
        DistanceFunction::Jaccard => o.jaccard_distance(),
        DistanceFunction::Cosine => o.cosine_distance(),
        DistanceFunction::Dice => o.dice_distance(),
        DistanceFunction::MaxInclusion => o.max_inclusion_distance(),
        DistanceFunction::Intersect => o.intersect_distance(),
        DistanceFunction::ContainJaccard => containment_distance(&o, ContainmentBase::Jaccard),
        DistanceFunction::ContainCosine => containment_distance(&o, ContainmentBase::Cosine),
        DistanceFunction::ContainDice => containment_distance(&o, ContainmentBase::Dice),
        other => unreachable!("{other:?} is not a set member"),
    })
}

/// Collect a string's Unicode scalar values as `u32` character ids — the
/// same mapping [`crate::prepared::PreparedColumn`] caches at prepare time.
pub fn char_ids(s: &str) -> Vec<u32> {
    s.chars().map(|c| c as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_classic_values() {
        assert_eq!(
            levenshtein_reference(&char_ids("kitten"), &char_ids("sitting")),
            3
        );
        assert_eq!(
            levenshtein_reference(&char_ids("flaw"), &char_ids("lawn")),
            2
        );
        assert_eq!(levenshtein_reference(&[], &char_ids("abc")), 3);
        assert_eq!(normalized_edit_reference(&[], &[]), 0.0);
    }

    #[test]
    fn reference_jaro_matches_textbook_pairs() {
        let d = 1.0 - jaro_similarity_reference(&char_ids("martha"), &char_ids("marhta"));
        assert!((d - (1.0 - 0.9444)).abs() < 1e-3);
        let jw = jaro_winkler_distance_reference(&char_ids("dwayne"), &char_ids("duane"));
        assert!((jw - (1.0 - 0.84)).abs() < 1e-3);
    }
}
