//! # autofj-block
//!
//! The default blocking component of Auto-FuzzyJoin (§3.2 of the paper).
//!
//! Auto-FuzzyJoin cannot ask users to tune blocking parameters (that would
//! defeat the point of hands-off auto-programming), so the paper fixes one
//! empirically effective default: tokenize every record into character
//! 3-grams, weight each gram by TF-IDF, score a candidate pair by the summed
//! weight of its common grams, and for each probe record keep only the top
//! `β·√|L|` reference records (default `β = 1.5`; Figure 6(d) sweeps β).
//!
//! The same blocker is used for both the `L–R` candidate pairs (what the join
//! considers) and the `L–L` candidate pairs (what the precision estimation
//! and negative-rule learning consider).

//! The hot path ([`index`]) runs on interned `u32` gram ids: one exact
//! top-k probe walks the probe's full postings lists rarest-first into a
//! scratch-reusing dense accumulator, prunes the touched records with a
//! bitmap bound over the index's 128 most frequent grams, and scores the
//! survivors by gather-sum into a bounded heap.  [`mod@reference`] keeps
//! the simple string-path implementation as an executable specification
//! that property tests compare against.

pub mod index;
pub mod reference;

pub use index::{Blocker, BlockingOutput, BlockingStats, GramIndex, ProbeScratch};
pub use reference::block_reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_factor_is_paper_default() {
        let b = Blocker::default();
        assert!((b.factor() - 1.5).abs() < 1e-12);
    }
}
