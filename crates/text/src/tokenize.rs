//! Tokenization options (the `T` axis of the configuration space).
//!
//! The paper considers whitespace tokenization (`SP`) and character 3-gram
//! tokenization (`3G`).  Tokenizers produce *sets* of tokens (duplicates are
//! removed), matching the set-based distance functions of Table 1.

use crate::vocab::Vocab;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A tokenization option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tokenization {
    /// Whitespace tokenization (`SP`).
    Space,
    /// Character q-gram tokenization with q = 3 (`3G`).  Strings shorter than
    /// q yield the whole string as a single token.
    Gram3,
}

impl Tokenization {
    /// The two options of Table 1.
    pub const ALL: [Tokenization; 2] = [Tokenization::Gram3, Tokenization::Space];

    /// Short code used in printed join programs.
    pub fn code(&self) -> &'static str {
        match self {
            Tokenization::Space => "SP",
            Tokenization::Gram3 => "3G",
        }
    }

    /// Tokenize `input` into a vector of tokens (duplicates preserved; callers
    /// that want set semantics should dedup, as [`crate::prepared`] does).
    pub fn tokenize(&self, input: &str) -> Vec<String> {
        match self {
            Tokenization::Space => space_tokenize(input),
            Tokenization::Gram3 => qgram_tokenize(input, 3),
        }
    }

    /// Tokenize `input` directly into interned `u32` token ids, appending to
    /// `out` (duplicates preserved, in order of appearance).  Token strings
    /// are only allocated the first time a token enters the vocabulary, so
    /// steady-state tokenization of a corpus allocates nothing per token —
    /// the hot-path replacement for `tokenize` + [`Vocab::add_document`].
    pub fn intern_into(
        &self,
        input: &str,
        vocab: &mut Vocab,
        out: &mut Vec<u32>,
        scratch: &mut GramScratch,
    ) {
        match self {
            Tokenization::Space => {
                for word in input.split_whitespace() {
                    out.push(vocab.intern(word));
                }
            }
            Tokenization::Gram3 => qgram_intern_into(input, 3, vocab, out, scratch),
        }
    }

    /// Tokenize `input` against a *frozen* vocabulary: known tokens map to
    /// their interned ids, unknown tokens receive deterministic overflow ids
    /// `vocab.len() + k` where `k` is the first-appearance rank of the
    /// distinct unknown token within this call (tracked in `overflow`, a map
    /// from token to rank that is cleared first, so each lookup is O(1)).  The vocabulary is never grown, so this is safe to
    /// run from many readers concurrently — the query-side counterpart of
    /// [`Self::intern_into`].  Overflow ids are stable for a given input but
    /// have no meaning across calls; they exist so that two unknown tokens
    /// compare equal within one record and unequal to everything interned.
    pub fn lookup_into_with_overflow(
        &self,
        input: &str,
        vocab: &Vocab,
        out: &mut Vec<u32>,
        scratch: &mut GramScratch,
        overflow: &mut HashMap<String, u32>,
    ) {
        overflow.clear();
        let base = vocab.len() as u32;
        let mut lookup = |token: &str, out: &mut Vec<u32>| {
            if let Some(id) = vocab.get(token) {
                out.push(id);
                return;
            }
            let slot = match overflow.get(token) {
                Some(&rank) => rank,
                None => {
                    let rank = overflow.len() as u32;
                    overflow.insert(token.to_string(), rank);
                    rank
                }
            };
            out.push(base + slot);
        };
        match self {
            Tokenization::Space => {
                for word in input.split_whitespace() {
                    lookup(word, out);
                }
            }
            Tokenization::Gram3 => {
                for_each_qgram(input, 3, scratch, |gram| lookup(gram, out));
            }
        }
    }
}

/// Reusable buffers for allocation-free q-gram extraction: the normalized
/// character sequence and the current gram, rebuilt in place per record.
#[derive(Debug, Default, Clone)]
pub struct GramScratch {
    chars: Vec<char>,
    gram: String,
}

impl GramScratch {
    /// Fill `chars` with `input`'s characters, whitespace runs collapsed to a
    /// single space and the ends trimmed — the character-level equivalent of
    /// [`crate::preprocess::normalize_whitespace`].
    fn normalize(&mut self, input: &str) {
        self.chars.clear();
        let mut last_was_space = true;
        for ch in input.chars() {
            if ch.is_whitespace() {
                if !last_was_space {
                    self.chars.push(' ');
                    last_was_space = true;
                }
            } else {
                self.chars.push(ch);
                last_was_space = false;
            }
        }
        if self.chars.last() == Some(&' ') {
            self.chars.pop();
        }
    }
}

/// Walk the q-grams of `input` (same gram boundaries as [`qgram_tokenize`])
/// through `visit` without allocating per gram: each gram is rebuilt in the
/// scratch string and passed by reference.
fn for_each_qgram(input: &str, q: usize, scratch: &mut GramScratch, mut visit: impl FnMut(&str)) {
    assert!(q >= 1, "q-gram size must be at least 1");
    scratch.normalize(input);
    if scratch.chars.is_empty() {
        return;
    }
    if scratch.chars.len() <= q {
        scratch.gram.clear();
        scratch.gram.extend(scratch.chars.iter());
        visit(&scratch.gram);
        return;
    }
    for window in scratch.chars.windows(q) {
        scratch.gram.clear();
        scratch.gram.extend(window.iter());
        visit(&scratch.gram);
    }
}

/// Tokenize `input` into character q-grams and intern each gram into `vocab`,
/// appending the ids to `out` (duplicates preserved, in order of appearance).
/// Produces exactly the ids `qgram_tokenize(input, q)` would after interning,
/// but allocates only when a gram is new to the vocabulary.
pub fn qgram_intern_into(
    input: &str,
    q: usize,
    vocab: &mut Vocab,
    out: &mut Vec<u32>,
    scratch: &mut GramScratch,
) {
    for_each_qgram(input, q, scratch, |gram| out.push(vocab.intern(gram)));
}

/// Split on whitespace.
pub fn space_tokenize(input: &str) -> Vec<String> {
    input.split_whitespace().map(str::to_string).collect()
}

/// Character q-grams over the string with whitespace collapsed to a single
/// space (so token boundaries still contribute grams, as py_stringmatching
/// does with padding disabled).
pub fn qgram_tokenize(input: &str, q: usize) -> Vec<String> {
    assert!(q >= 1, "q-gram size must be at least 1");
    let chars: Vec<char> = crate::preprocess::normalize_whitespace(input)
        .chars()
        .collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= q {
        return vec![chars.iter().collect()];
    }
    let mut grams = Vec::with_capacity(chars.len() - q + 1);
    for window in chars.windows(q) {
        grams.push(window.iter().collect());
    }
    grams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_tokenize_splits_words() {
        assert_eq!(
            space_tokenize("2008 lsu tigers"),
            vec!["2008", "lsu", "tigers"]
        );
    }

    #[test]
    fn space_tokenize_empty_is_empty() {
        assert!(space_tokenize("").is_empty());
        assert!(space_tokenize("   ").is_empty());
    }

    #[test]
    fn qgram_tokenize_produces_sliding_windows() {
        assert_eq!(qgram_tokenize("abcd", 3), vec!["abc", "bcd"]);
    }

    #[test]
    fn qgram_tokenize_short_string_is_single_token() {
        assert_eq!(qgram_tokenize("ab", 3), vec!["ab"]);
        assert_eq!(qgram_tokenize("abc", 3), vec!["abc"]);
    }

    #[test]
    fn qgram_count_matches_length() {
        let toks = qgram_tokenize("abcdefgh", 3);
        assert_eq!(toks.len(), 8 - 3 + 1);
    }

    #[test]
    fn qgram_collapses_internal_whitespace() {
        let a = qgram_tokenize("a  b", 3);
        let b = qgram_tokenize("a b", 3);
        assert_eq!(a, b);
    }

    #[test]
    fn unicode_qgrams_respect_char_boundaries() {
        let toks = qgram_tokenize("héllo", 3);
        assert_eq!(toks[0], "hél");
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(Tokenization::Space.code(), "SP");
        assert_eq!(Tokenization::Gram3.code(), "3G");
    }

    #[test]
    fn interned_qgrams_match_string_qgrams() {
        let inputs = ["2008 lsu tigers", "a  b", "ab", "", "héllo wörld", "xyz"];
        let mut vocab = Vocab::new();
        let mut scratch = GramScratch::default();
        for input in inputs {
            let strings = qgram_tokenize(input, 3);
            let mut ids = Vec::new();
            qgram_intern_into(input, 3, &mut vocab, &mut ids, &mut scratch);
            assert_eq!(ids.len(), strings.len(), "{input:?}");
            for (id, s) in ids.iter().zip(&strings) {
                assert_eq!(vocab.token(*id), s, "{input:?}");
            }
        }
    }

    #[test]
    fn intern_into_matches_tokenize_for_both_schemes() {
        for t in Tokenization::ALL {
            let mut vocab = Vocab::new();
            let mut scratch = GramScratch::default();
            let input = "2007 LSU tigers  football";
            let mut ids = Vec::new();
            t.intern_into(input, &mut vocab, &mut ids, &mut scratch);
            let strings = t.tokenize(input);
            assert_eq!(ids.len(), strings.len());
            for (id, s) in ids.iter().zip(&strings) {
                assert_eq!(vocab.token(*id), s);
            }
        }
    }

    #[test]
    fn lookup_with_overflow_matches_interning_on_known_input() {
        for t in Tokenization::ALL {
            let mut vocab = Vocab::new();
            let mut scratch = GramScratch::default();
            let input = "2007 LSU tigers  football";
            let mut interned = Vec::new();
            t.intern_into(input, &mut vocab, &mut interned, &mut scratch);
            let before = vocab.len();
            let mut looked_up = Vec::new();
            let mut overflow = HashMap::new();
            t.lookup_into_with_overflow(input, &vocab, &mut looked_up, &mut scratch, &mut overflow);
            assert_eq!(looked_up, interned);
            assert!(overflow.is_empty());
            assert_eq!(vocab.len(), before, "lookup must not grow the vocab");
        }
    }

    #[test]
    fn lookup_with_overflow_assigns_stable_ids_to_unknowns() {
        let mut vocab = Vocab::new();
        let mut scratch = GramScratch::default();
        let mut ids = Vec::new();
        Tokenization::Space.intern_into("alpha beta", &mut vocab, &mut ids, &mut scratch);
        let base = vocab.len() as u32;
        let mut out = Vec::new();
        let mut overflow = HashMap::new();
        Tokenization::Space.lookup_into_with_overflow(
            "gamma alpha delta gamma",
            &vocab,
            &mut out,
            &mut scratch,
            &mut overflow,
        );
        // gamma -> base+0 (first unknown), delta -> base+1, repeats reuse ids.
        assert_eq!(out, vec![base, vocab.get("alpha").unwrap(), base + 1, base]);
        let ranks = HashMap::from([("gamma".to_string(), 0), ("delta".to_string(), 1)]);
        assert_eq!(overflow, ranks);
        assert_eq!(vocab.len() as u32, base, "lookup must not grow the vocab");
    }
}
