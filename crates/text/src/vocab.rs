//! Token interning.
//!
//! Distance computation over token sets is much cheaper on interned `u32`
//! token ids (sorted `Vec<u32>` per record) than on `String`s.  The
//! [`Vocab`] assigns ids on first sight and records document frequencies so
//! the IDF weighting of [`crate::weights`] can be derived from it.

use std::collections::HashMap;

/// An interner mapping tokens to dense `u32` ids, with document-frequency
/// counts (number of records in which the token appears at least once).
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
    doc_freq: Vec<u32>,
    num_docs: u32,
}

impl Vocab {
    /// Create an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tokens seen so far.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// `true` when no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of documents (records) that contributed to document frequencies.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Intern a token without affecting document frequencies.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.tokens.len() as u32;
        self.ids.insert(token.to_string(), id);
        self.tokens.push(token.to_string());
        self.doc_freq.push(0);
        id
    }

    /// Look up the id of a token if it has been interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string for an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this vocabulary.
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Document frequency of a token id.
    pub fn doc_freq(&self, id: u32) -> u32 {
        self.doc_freq[id as usize]
    }

    /// Intern every token of a document (record) and return the deduplicated,
    /// sorted id set; document frequencies are incremented once per distinct
    /// token.
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) -> Vec<u32> {
        let mut ids: Vec<u32> = tokens.iter().map(|t| self.intern(t.as_ref())).collect();
        ids.sort_unstable();
        ids.dedup();
        for &id in &ids {
            self.doc_freq[id as usize] += 1;
        }
        self.num_docs += 1;
        ids
    }

    /// Register one document given its already-interned token ids: sorts and
    /// deduplicates `ids` in place, then increments document frequencies once
    /// per distinct token — the allocation-free equivalent of
    /// [`Self::add_document`] for callers that interned tokens as they
    /// tokenized (see [`crate::tokenize::qgram_intern_into`]).
    pub fn add_document_ids(&mut self, ids: &mut Vec<u32>) {
        ids.sort_unstable();
        ids.dedup();
        for &id in ids.iter() {
            self.doc_freq[id as usize] += 1;
        }
        self.num_docs += 1;
    }

    /// Smoothed inverse document frequency of a token id:
    /// `ln(1 + N / (1 + df))` — always strictly positive, monotonically
    /// decreasing in `df`.
    pub fn idf(&self, id: u32) -> f64 {
        let n = self.num_docs.max(1) as f64;
        let df = self.doc_freq(id) as f64;
        (1.0 + n / (1.0 + df)).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocab::new();
        let a = v.intern("alpha");
        let b = v.intern("beta");
        assert_ne!(a, b);
        assert_eq!(v.intern("alpha"), a);
        assert_eq!(v.token(a), "alpha");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn add_document_dedups_and_sorts() {
        let mut v = Vocab::new();
        let ids = v.add_document(&["b", "a", "b", "c"]);
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let mut v = Vocab::new();
        v.add_document(&["x", "x", "x"]);
        v.add_document(&["x", "y"]);
        let x = v.get("x").unwrap();
        let y = v.get("y").unwrap();
        assert_eq!(v.doc_freq(x), 2);
        assert_eq!(v.doc_freq(y), 1);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn idf_decreases_with_frequency() {
        let mut v = Vocab::new();
        for _ in 0..10 {
            v.add_document(&["common", "stuff"]);
        }
        v.add_document(&["rare", "common"]);
        let common = v.get("common").unwrap();
        let rare = v.get("rare").unwrap();
        assert!(v.idf(rare) > v.idf(common));
        assert!(v.idf(common) > 0.0);
    }

    #[test]
    fn add_document_ids_matches_add_document() {
        let mut by_str = Vocab::new();
        let mut by_ids = Vocab::new();
        for doc in [&["b", "a", "b", "c"][..], &["c", "c", "d"][..]] {
            by_str.add_document(doc);
            let mut ids: Vec<u32> = doc.iter().map(|t| by_ids.intern(t)).collect();
            by_ids.add_document_ids(&mut ids);
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(by_str.len(), by_ids.len());
        assert_eq!(by_str.num_docs(), by_ids.num_docs());
        for id in 0..by_str.len() as u32 {
            assert_eq!(by_str.doc_freq(id), by_ids.doc_freq(id));
            assert_eq!(by_str.token(id), by_ids.token(id));
        }
    }

    #[test]
    fn empty_document_counts_toward_num_docs() {
        let mut v = Vocab::new();
        let ids = v.add_document::<&str>(&[]);
        assert!(ids.is_empty());
        assert_eq!(v.num_docs(), 1);
    }
}
