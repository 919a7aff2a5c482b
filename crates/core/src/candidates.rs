//! The candidate stage of Algorithm 1 (lines 1–2): blocking, then the
//! negative rules of Algorithm 2.
//!
//! Every pipeline runs this one stage over a [`PreparedColumn`] holding the
//! `num_left` reference records followed by the query records: the
//! single-column join over its oracle's column, the multi-column join
//! (Algorithm 3) over a column of concatenated rows, and the serving store
//! when it rebuilds a state for a learned program.  Blocking reads the
//! column's `(lower-case, 3-gram)` id sets; the rules read its
//! `(lower-case + stem + remove-punctuation, space)` word-id sets, which are
//! exactly the word sets of Algorithm 2 line 1 (the string form is kept as
//! an executable specification in [`crate::negative_rules::reference`]).

use crate::negative_rules::InternedRuleSet;
use crate::options::AutoFjOptions;
use crate::trace::{self, Phase};
use autofj_block::BlockingOutput;
use autofj_text::prepared::scheme_index;
use autofj_text::{PreparedColumn, Preprocessing, Tokenization};
use rayon::prelude::*;

/// The output of the candidate stage.
pub struct Candidates {
    /// Blocking output (L–R and L–L candidate sets, candidates per record).
    pub blocking: BlockingOutput,
    /// Learned interned negative rules; `None` when disabled by options.
    pub rules: Option<InternedRuleSet>,
    /// The L–R lists with forbidden pairs removed; `None` when no rule can
    /// remove a pair (rules disabled, or none learned), so the blocking
    /// lists serve as they are instead of being copied.
    filtered: Option<Vec<Vec<usize>>>,
}

impl Candidates {
    /// For every right record, the left candidates the join search
    /// considers: the blocking list minus the pairs a rule forbids.
    pub fn lr_candidates(&self) -> &[Vec<usize>] {
        self.filtered
            .as_deref()
            .unwrap_or(&self.blocking.left_candidates_of_right)
    }
}

/// Block `col` (reference records at `0..num_left`, query records after
/// them), learn negative rules from the L–L candidate pairs when the options
/// enable them, and remove the L–R pairs they forbid.  Each right record's
/// list is filtered independently in parallel; the result is identical at
/// every thread count.
pub fn candidate_stage(
    col: &PreparedColumn,
    num_left: usize,
    options: &AutoFjOptions,
) -> Candidates {
    let blocking = {
        let _t = trace::scoped(Phase::Block);
        options.blocker().block_prepared(col, num_left)
    };
    if !options.use_negative_rules {
        return Candidates {
            blocking,
            rules: None,
            filtered: None,
        };
    }
    let _t = trace::scoped(Phase::NegativeRules);
    let si = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
    let word_sets: Vec<&[u32]> = col
        .records()
        .iter()
        .map(|rec| rec.token_sets[si].as_slice())
        .collect();
    let rules = InternedRuleSet::learn(&word_sets[..num_left], &blocking.left_candidates_of_left);
    let lr = &blocking.left_candidates_of_right;
    let filtered = (!rules.is_empty()).then(|| {
        (0..lr.len())
            .into_par_iter()
            .map(|r| {
                lr[r]
                    .iter()
                    .copied()
                    .filter(|&l| !rules.forbids(word_sets[l], word_sets[num_left + r]))
                    .collect::<Vec<usize>>()
            })
            .collect()
    });
    Candidates {
        blocking,
        rules: Some(rules),
        filtered,
    }
}
