//! Cached per-record representations used to evaluate many join functions
//! over the same tables without repeating pre-processing work.
//!
//! A [`PreparedColumn`] is built once over the concatenation of the records
//! whose pairwise distances will be needed (Auto-FuzzyJoin builds it over
//! `L ∪ R` so that IDF weights reflect both tables, as the blocking and
//! weighting of the paper do).  It caches, for every record:
//!
//! * the interned character-id vector of the pre-processed string per
//!   [`Preprocessing`] option (4 variants) — the char distances only need
//!   id equality, so Unicode scalar values serve as ids directly,
//! * the sorted, deduplicated token-id set per `(Preprocessing,
//!   Tokenization)` scheme (8 variants),
//! * the hashed document embedding per [`Preprocessing`] option (4 variants).
//!
//! The pre-processed strings themselves are transient: they live only until
//! the record's tokens are interned (or, for a query, looked up).

use crate::distance::embed::{self, Embedding};
use crate::preprocess::Preprocessing;
use crate::tokenize::{GramScratch, Tokenization};
use crate::vocab::Vocab;
use crate::weights::{TokenWeighting, WeightTable};
use rayon::prelude::*;
use std::collections::HashMap;

/// Number of pre-processing variants.
pub const NUM_PREP: usize = 4;
/// Number of `(pre-processing, tokenization)` schemes.
pub const NUM_SCHEMES: usize = 8;

/// Index of a pre-processing option in the cached arrays.
#[inline]
pub fn prep_index(p: Preprocessing) -> usize {
    match p {
        Preprocessing::Lower => 0,
        Preprocessing::LowerStem => 1,
        Preprocessing::LowerRemovePunct => 2,
        Preprocessing::LowerStemRemovePunct => 3,
    }
}

/// Index of a tokenization option.
#[inline]
pub fn tok_index(t: Tokenization) -> usize {
    match t {
        Tokenization::Gram3 => 0,
        Tokenization::Space => 1,
    }
}

/// Index of a `(pre-processing, tokenization)` scheme.
#[inline]
pub fn scheme_index(p: Preprocessing, t: Tokenization) -> usize {
    prep_index(p) * 2 + tok_index(t)
}

/// Cached representations of a single record.
#[derive(Debug, Clone)]
pub struct PreparedRecord {
    /// Original raw string.
    pub raw: String,
    /// Interned character-id vectors of the pre-processed strings (Unicode
    /// scalar values as `u32`), consumed by the char-distance kernels.
    pub char_ids: [Vec<u32>; NUM_PREP],
    /// Sorted, deduplicated token id sets per scheme.
    pub token_sets: [Vec<u32>; NUM_SCHEMES],
    /// Hashed document embeddings per pre-processing option.
    pub embeddings: [Embedding; NUM_PREP],
}

/// A column of prepared records plus the vocabularies / weight tables shared
/// by all of them.
#[derive(Debug, Clone)]
pub struct PreparedColumn {
    records: Vec<PreparedRecord>,
    vocabs: [Vocab; NUM_SCHEMES],
    idf_tables: [WeightTable; NUM_SCHEMES],
    /// The equal-weight table of every scheme: empty, so
    /// [`WeightTable::weight`] gives every id — interned or a query overflow
    /// id — its past-the-end weight `1.0`.
    equal_table: WeightTable,
}

/// Per-record output of the parallel preparation phase, before tokens are
/// interned into the shared vocabularies (or looked up, for a query).  The
/// pre-processed strings live only here.
struct RawPrepared {
    raw: String,
    strings: [String; NUM_PREP],
    char_ids: [Vec<u32>; NUM_PREP],
    embeddings: [Embedding; NUM_PREP],
}

/// Records prepared in parallel per batch; bounds how many pre-processed
/// string variants are alive ahead of the sequential interning cursor, so
/// peak memory stays close to a fully-sequential build.
const PREPARE_BATCH: usize = 4096;

/// The pure (vocabulary-free) part of record preparation: pre-processed
/// strings, character-id vectors, and embeddings.  Deterministic per record,
/// so it can run in parallel during builds.
fn prepare_raw(raw: &str) -> RawPrepared {
    let mut prepped: [String; NUM_PREP] = Default::default();
    let mut char_ids: [Vec<u32>; NUM_PREP] = Default::default();
    let mut embeddings = [[0f32; embed::DIM]; NUM_PREP];
    for p in Preprocessing::ALL {
        let pi = prep_index(p);
        let s = p.apply(raw);
        char_ids[pi] = s.chars().map(|c| c as u32).collect();
        // Document embedding over space tokens of the preprocessed string
        // with unit weights (spaCy-style mean vector).
        embeddings[pi] = embed::embed_document(s.split_whitespace().map(|t| (t, 1.0)));
        prepped[pi] = s;
    }
    RawPrepared {
        raw: raw.to_string(),
        strings: prepped,
        char_ids,
        embeddings,
    }
}

/// Sequentially intern one prepared record into the shared vocabularies,
/// registering its document frequencies — the order-sensitive half of
/// [`PreparedColumn::append_records`].
fn intern_record(
    rec: RawPrepared,
    vocabs: &mut [Vocab; NUM_SCHEMES],
    scratch: &mut GramScratch,
    ids: &mut Vec<u32>,
) -> PreparedRecord {
    let mut token_sets: [Vec<u32>; NUM_SCHEMES] = Default::default();
    for p in Preprocessing::ALL {
        let pi = prep_index(p);
        for t in Tokenization::ALL {
            let si = scheme_index(p, t);
            ids.clear();
            t.intern_into(&rec.strings[pi], &mut vocabs[si], ids, scratch);
            vocabs[si].add_document_ids(ids);
            token_sets[si] = ids.clone();
        }
    }
    PreparedRecord {
        raw: rec.raw,
        char_ids: rec.char_ids,
        token_sets,
        embeddings: rec.embeddings,
    }
}

impl PreparedColumn {
    /// Build a prepared column from raw strings: an empty column plus
    /// [`Self::append_records`], so the state after `build(a)` +
    /// `append_records(b)` equals `build(a ++ b)` by construction.
    pub fn build<S: AsRef<str> + Sync>(strings: &[S]) -> Self {
        let mut col = Self {
            records: Vec::new(),
            vocabs: Default::default(),
            idf_tables: Default::default(),
            equal_table: WeightTable::default(),
        };
        col.append_records(strings);
        col
    }

    /// Append records to the column, extending the shared vocabularies and
    /// document frequencies.
    ///
    /// The per-record work (pre-processing, character decomposition,
    /// embedding) runs in parallel over fixed-size batches; tokenization then
    /// interns token ids directly into the shared vocabularies — sequentially
    /// in record order, reusing one scratch buffer and never materializing
    /// token strings — so token ids (and everything derived from them) are
    /// identical at every thread count and batch boundaries cannot matter.
    /// The IDF tables are re-derived at the end since document frequencies
    /// shift.
    pub fn append_records<S: AsRef<str> + Sync>(&mut self, strings: &[S]) {
        let mut scratch = GramScratch::default();
        let mut ids: Vec<u32> = Vec::new();
        self.records.reserve(strings.len());
        // One batch buffer for the whole stream: `collect_into_vec` +
        // `drain` keep its allocation alive across batches, so the
        // transient footprint of a 100k-record build is one batch, not one
        // Vec per batch.
        let mut raw_batch: Vec<RawPrepared> = Vec::with_capacity(PREPARE_BATCH.min(strings.len()));
        for batch in strings.chunks(PREPARE_BATCH.max(1)) {
            batch
                .par_iter()
                .map(|raw| prepare_raw(raw.as_ref()))
                .collect_into_vec(&mut raw_batch);
            for rec in raw_batch.drain(..) {
                self.records
                    .push(intern_record(rec, &mut self.vocabs, &mut scratch, &mut ids));
            }
        }
        self.idf_tables = std::array::from_fn(|i| WeightTable::idf(&self.vocabs[i]));
    }

    /// Prepare a query record against this column's *frozen* vocabularies:
    /// token sets are produced by lookup only (the vocabularies never grow,
    /// so concurrent readers are safe), with unknown tokens mapped to
    /// deterministic per-scheme overflow ids `vocab.len() + k` (see
    /// [`Tokenization::lookup_into_with_overflow`]).  Overflow ids are out of
    /// range for every weight table, which fall back to weight `1.0`, and can
    /// never collide with an interned id — so a query whose tokens are all
    /// known produces exactly the token sets a batch build would have.
    pub fn prepare_query(&self, raw: &str) -> PreparedRecord {
        let rec = prepare_raw(raw);
        let mut token_sets: [Vec<u32>; NUM_SCHEMES] = Default::default();
        let mut scratch = GramScratch::default();
        let mut overflow = HashMap::new();
        for p in Preprocessing::ALL {
            let pi = prep_index(p);
            for t in Tokenization::ALL {
                let si = scheme_index(p, t);
                let mut ids = Vec::new();
                t.lookup_into_with_overflow(
                    &rec.strings[pi],
                    &self.vocabs[si],
                    &mut ids,
                    &mut scratch,
                    &mut overflow,
                );
                ids.sort_unstable();
                ids.dedup();
                token_sets[si] = ids;
            }
        }
        PreparedRecord {
            raw: rec.raw,
            char_ids: rec.char_ids,
            token_sets,
            embeddings: rec.embeddings,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the column holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Access a prepared record.
    pub fn record(&self, idx: usize) -> &PreparedRecord {
        &self.records[idx]
    }

    /// All prepared records.
    pub fn records(&self) -> &[PreparedRecord] {
        &self.records
    }

    /// The vocabulary of a `(pre-processing, tokenization)` scheme.
    pub fn vocab(&self, p: Preprocessing, t: Tokenization) -> &Vocab {
        &self.vocabs[scheme_index(p, t)]
    }

    /// The vocabulary at a raw [`scheme_index`], for callers that hold a
    /// scheme index rather than its `(pre-processing, tokenization)` pair.
    pub fn vocab_by_scheme(&self, si: usize) -> &Vocab {
        &self.vocabs[si]
    }

    /// The weight table for a scheme under a weighting option.  Every scheme
    /// shares one empty equal-weight table, which weighs every id `1.0`.
    pub fn weight_table(
        &self,
        p: Preprocessing,
        t: Tokenization,
        w: TokenWeighting,
    ) -> &WeightTable {
        match w {
            TokenWeighting::Equal => &self.equal_table,
            TokenWeighting::Idf => &self.idf_tables[scheme_index(p, t)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> PreparedColumn {
        PreparedColumn::build(&[
            "2007 LSU Tigers football team",
            "2008 LSU Tigers football team",
            "2007 Wisconsin Badgers football team",
        ])
    }

    #[test]
    fn build_caches_all_variants() {
        let col = sample();
        assert_eq!(col.len(), 3);
        let r = col.record(0);
        assert_eq!(r.raw, "2007 LSU Tigers football team");
        // The lower-cased variant's character ids spell the lower-cased text.
        let lower: String = r.char_ids[prep_index(Preprocessing::Lower)]
            .iter()
            .map(|&c| char::from_u32(c).unwrap())
            .collect();
        assert_eq!(lower, "2007 lsu tigers football team");
        // All 8 token sets are non-empty.
        for s in &r.token_sets {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn token_sets_are_sorted_and_deduped() {
        let col = PreparedColumn::build(&["aaa aaa bbb aaa"]);
        for set in &col.record(0).token_sets {
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn scheme_indices_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in Preprocessing::ALL {
            for t in Tokenization::ALL {
                assert!(seen.insert(scheme_index(p, t)));
            }
        }
        assert_eq!(seen.len(), NUM_SCHEMES);
    }

    #[test]
    fn idf_weight_tables_cover_vocab() {
        let col = sample();
        for p in Preprocessing::ALL {
            for t in Tokenization::ALL {
                let v = col.vocab(p, t);
                let w = col.weight_table(p, t, TokenWeighting::Idf);
                assert_eq!(v.len(), w.len());
            }
        }
    }

    #[test]
    fn empty_column_is_supported() {
        let col = PreparedColumn::build::<&str>(&[]);
        assert!(col.is_empty());
    }

    fn columns_equal(a: &PreparedColumn, b: &PreparedColumn) -> bool {
        if a.len() != b.len() {
            return false;
        }
        for (ra, rb) in a.records().iter().zip(b.records()) {
            if ra.raw != rb.raw
                || ra.char_ids != rb.char_ids
                || ra.token_sets != rb.token_sets
                || ra.embeddings != rb.embeddings
            {
                return false;
            }
        }
        for si in 0..NUM_SCHEMES {
            let (va, vb) = (a.vocab_by_scheme(si), b.vocab_by_scheme(si));
            if va.len() != vb.len() || va.num_docs() != vb.num_docs() {
                return false;
            }
            for id in 0..va.len() as u32 {
                if va.token(id) != vb.token(id) || va.doc_freq(id) != vb.doc_freq(id) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn append_records_matches_full_build() {
        let all = [
            "2007 LSU Tigers football team",
            "2008 LSU Tigers football team",
            "2007 Wisconsin Badgers football team",
            "totally new words here",
            "",
        ];
        let full = PreparedColumn::build(&all);
        let mut incremental = PreparedColumn::build(&all[..2]);
        incremental.append_records(&all[2..4]);
        incremental.append_records(&all[4..]);
        assert!(columns_equal(&full, &incremental));
    }

    #[test]
    fn prepare_query_matches_batch_for_known_records() {
        let col = sample();
        for r in col.records() {
            let q = col.prepare_query(&r.raw);
            assert_eq!(q.token_sets, r.token_sets, "{:?}", r.raw);
            assert_eq!(q.char_ids, r.char_ids);
            assert_eq!(q.embeddings, r.embeddings);
        }
    }

    /// Strategy: short records over Latin letters, combining marks, CJK,
    /// punctuation and whitespace runs — plus empty and whitespace-only ones.
    fn record_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex(concat!(
            "([a-dA-D]|é|[\u{301}\u{308}]|[\u{4e2d}-\u{4e30}]|[.,!-]|[ \t\n])",
            "{0,14}|[ \t]{1,3}",
        ))
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One interning loop: a build cut anywhere and finished by
        /// `append_records` equals the whole build, and `prepare_query`
        /// reproduces every stored record.
        #[test]
        fn split_builds_and_queries_reproduce_the_whole_build(
            records in proptest::collection::vec(record_strategy(), 0..12),
            repeats in proptest::collection::vec(0usize..12, 0..4),
            cut in 0usize..16,
        ) {
            let mut all = records.clone();
            if !records.is_empty() {
                all.extend(repeats.iter().map(|&i| records[i % records.len()].clone()));
            }
            let cut = cut.min(all.len());
            let full = PreparedColumn::build(&all);
            let mut split = PreparedColumn::build(&all[..cut]);
            split.append_records(&all[cut..]);
            prop_assert!(columns_equal(&full, &split), "cut {cut} of {all:?}");
            for r in full.records() {
                let q = full.prepare_query(&r.raw);
                prop_assert_eq!(&q.token_sets, &r.token_sets);
                prop_assert_eq!(&q.char_ids, &r.char_ids);
                prop_assert_eq!(&q.embeddings, &r.embeddings);
            }
        }
    }

    #[test]
    fn equal_weights_are_one_for_interned_and_overflow_ids() {
        let col = sample();
        let q = col.prepare_query("2007 zzz qqq unknownworda");
        for p in Preprocessing::ALL {
            for t in Tokenization::ALL {
                let si = scheme_index(p, t);
                let table = col.weight_table(p, t, TokenWeighting::Equal);
                let vocab_len = col.vocab_by_scheme(si).len() as u32;
                assert!(q.token_sets[si].iter().any(|&id| id >= vocab_len));
                for id in (0..vocab_len).chain(q.token_sets[si].iter().copied()) {
                    assert_eq!(table.weight(id), 1.0, "scheme {si}, id {id}");
                }
            }
        }
    }

    #[test]
    fn many_distinct_unknown_words_get_contiguous_overflow_ids_quickly() {
        const WORDS: usize = 40_000;
        let col = sample();
        let line: Vec<String> = (0..WORDS).map(|i| format!("qx{i}")).collect();
        let start = std::time::Instant::now();
        let q = col.prepare_query(&line.join(" "));
        let elapsed = start.elapsed();
        for p in Preprocessing::ALL {
            let si = scheme_index(p, Tokenization::Space);
            let base = col.vocab_by_scheme(si).len() as u32;
            let want: Vec<u32> = (base..base + WORDS as u32).collect();
            assert_eq!(q.token_sets[si], want, "scheme {si}");
        }
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "{WORDS} unknown words took {elapsed:?}"
        );
    }

    #[test]
    fn prepare_query_overflow_ids_are_out_of_vocab_range() {
        let col = sample();
        let q = col.prepare_query("zzz qqq unknownworda");
        for p in Preprocessing::ALL {
            for t in Tokenization::ALL {
                let si = scheme_index(p, t);
                let vocab_len = col.vocab_by_scheme(si).len() as u32;
                let set = &q.token_sets[si];
                assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
                assert!(
                    set.iter().any(|&id| id >= vocab_len),
                    "query with unknown tokens must produce overflow ids ({si})"
                );
            }
        }
    }

    #[test]
    fn empty_string_record_is_supported() {
        let col = PreparedColumn::build(&["", "abc"]);
        assert_eq!(col.len(), 2);
        for set in &col.record(0).token_sets {
            assert!(set.is_empty());
        }
    }
}
