//! Token weighting options (the `W` axis of the configuration space).
//!
//! The paper's Table 1 considers equal weights (`EW`) and IDF weights
//! (`IDFW`).  Weights are applied inside the set-based distance functions of
//! [`crate::distance::set`].

use crate::vocab::Vocab;
use serde::{Deserialize, Serialize};

/// A token weighting option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenWeighting {
    /// Every token has weight 1 (`EW`).
    Equal,
    /// Token weight is its smoothed inverse document frequency computed from
    /// the union of both input tables (`IDFW`).
    Idf,
}

impl TokenWeighting {
    /// The two options of Table 1.
    pub const ALL: [TokenWeighting; 2] = [TokenWeighting::Equal, TokenWeighting::Idf];

    /// Short code used in printed join programs.
    pub fn code(&self) -> &'static str {
        match self {
            TokenWeighting::Equal => "EW",
            TokenWeighting::Idf => "IDFW",
        }
    }
}

/// A dense table of per-token weights for one tokenization scheme.  The
/// default table is empty, so it weighs every id `1.0` (see
/// [`Self::weight`]).
#[derive(Debug, Clone, Default)]
pub struct WeightTable {
    weights: Vec<f64>,
}

impl WeightTable {
    /// IDF weights derived from a vocabulary's document frequencies.
    pub fn idf(vocab: &Vocab) -> Self {
        let weights = (0..vocab.len() as u32).map(|id| vocab.idf(id)).collect();
        Self { weights }
    }

    /// Weight of a token id. Ids beyond the table (e.g. tokens seen only
    /// after the table was built) fall back to weight 1.
    #[inline]
    pub fn weight(&self, id: u32) -> f64 {
        self.weights.get(id as usize).copied().unwrap_or(1.0)
    }

    /// Sum of weights over a sorted id set.
    pub fn total(&self, ids: &[u32]) -> f64 {
        ids.iter().map(|&id| self.weight(id)).sum()
    }

    /// Number of token entries.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_table_gives_unit_weights() {
        let t = WeightTable::default();
        assert_eq!(t.weight(0), 1.0);
        assert_eq!(t.weight(2), 1.0);
        assert_eq!(t.total(&[0, 1, 2]), 3.0);
    }

    #[test]
    fn out_of_range_tokens_default_to_one() {
        let mut v = Vocab::new();
        v.add_document(&["a"]);
        v.add_document(&["b"]);
        let t = WeightTable::idf(&v);
        assert_eq!(t.weight(0), v.idf(0));
        assert_eq!(t.weight(99), 1.0);
    }

    #[test]
    fn idf_table_matches_vocab_idf() {
        let mut v = Vocab::new();
        v.add_document(&["a", "b"]);
        v.add_document(&["a"]);
        let t = WeightTable::idf(&v);
        let a = v.get("a").unwrap();
        let b = v.get("b").unwrap();
        assert!((t.weight(a) - v.idf(a)).abs() < 1e-12);
        assert!(t.weight(b) > t.weight(a));
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(TokenWeighting::Equal.code(), "EW");
        assert_eq!(TokenWeighting::Idf.code(), "IDFW");
    }
}
