//! TF-IDF 3-gram inverted index and the top-k candidate selection.
//!
//! The index is fully *interned*: grams are `u32` ids over a shared
//! vocabulary, postings live in one contiguous CSR arena, and probes score
//! through a dense accumulator that is reset via its touched list (so not
//! even the reset walks the full table).  The touched list is a buffer of
//! `|L| + 1` slots: every posting writes its record at the list's end and
//! advances the length only on a first touch, so the walk has no branch on
//! it.  Top-k selection uses a bounded min-heap of size `k` instead of
//! sorting the whole scored set.  Parallel probes process contiguous chunks
//! with one scratch buffer per worker, so the steady-state hot path
//! allocates nothing beyond the candidate lists it returns.
//!
//! # One exact probe: rarest lists first, a head-gram bound, gather-sum scores
//!
//! [`GramIndex::top_k`] is a MaxScore probe (Turtle & Flood, IP&M 1995; the
//! essential/non-essential list split of Ding & Suel's Block-Max WAND,
//! SIGIR 2011) that serves every table size and returns exactly what the
//! exhaustive dense walk returns:
//!
//! * **Rarest-first order.**  Grams are ranked by document frequency
//!   (ascending, id breaking ties).  A probe orders its grams that way and
//!   prefix-sums their idf weights.  Every posting of a gram carries the
//!   same weight, so the summed weight of any gram suffix bounds what a
//!   record can gain from those grams.
//! * **Rarest-list seed and walk.**  The probe dense-accumulates partial
//!   sums over the full lists, rarest first.  Until the heap holds `k`
//!   exact scores, every newly touched record is verified.  After that, a
//!   record is verified as soon as its partial reaches the worst kept score
//!   (its exact score is at least its partial, so it enters the heap), and
//!   the worst rises while the walk goes on.  The frequent tail `ord[e..]`
//!   whose total weight cannot reach the worst is *non-essential*: a record
//!   seen only there can never enter the top-k, so the walk ends at `e`.
//!   Each list is read at most once.
//! * **Head-gram bitmap bound.**  The 128 most frequent grams of the index
//!   (the top ranks) own one bit each, and every record carries the `u128`
//!   mask of its head grams.  The probe's unwalked grams split into a head
//!   mask and the rest (the tail).  The bound pass then visits every
//!   touched record.  It first drops records whose flat bound `partial +
//!   weight(unwalked)` cannot reach the worst kept score, then records
//!   already verified.  A survivor is verified only if `partial +
//!   weight(tail) + Σ idf over (probe head mask ∩ record mask)` can still
//!   reach the worst.  Frequent grams are what most records share, so this
//!   bound is far tighter than the flat one.  The head sum reads a 16 × 256
//!   table built with the index: entry `[b][v]` is the summed idf of the
//!   head bits set in byte value `v` at byte `b` of the mask, so the sum is
//!   16 loads and adds with no loop over bits.
//! * **Gather-sum verification.**  Before the probe, its idf values are
//!   written into a per-scratch weight row indexed by gram id (zero
//!   elsewhere).  A record's exact score is that row summed over the
//!   record's ascending gram list (a copy of its gram set).  Adding `+0.0` is
//!   exact, so the sum is the same float sequence — matching grams in
//!   ascending id order — that the dense walk adds, and the scores are
//!   bit-identical.  Gather-sums are the only scores the heap sees: the
//!   partials add in rank order and only pick and prune records.
//!
//! Every pruning comparison inflates the bound by `1 + 1e-9` (plus a tiny
//! absolute slack), so float rounding in the bound arithmetic — including
//! its summation order — can only weaken pruning, never change the result.
//! Which records the walk verifies early only decides how soon the bounds
//! tighten.
//!
//! # One-pass build
//!
//! [`GramIndex::from_id_sets`] reads the reference sets once: it counts
//! each gram's document frequency and copies each set as its record's gram
//! list.  It prefix-sums the counts into the postings offsets and scatters
//! the records in order, so every postings list ascends.
//!
//! # The spec
//!
//! This module holds one probe.  Its specification is the dense walk of
//! [`crate::reference`], which only tests call: unit and property tests
//! (`tests/properties.rs`) pin every candidate list and the kept-pair,
//! per-probe-max and postings-total counters equal to it across tables,
//! factors and thread counts.

use autofj_text::prepared::scheme_index;
use autofj_text::preprocess::Preprocessing;
use autofj_text::tokenize::Tokenization;
use autofj_text::PreparedColumn;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Candidate-set statistics accumulated while blocking ran — the
/// quality-of-blocking record that `BENCH_*.json` puts on the trajectory
/// next to the timings.  All counters are exact integers summed over probes,
/// so they are identical at every thread count and gate-able like the
/// quality fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// L–R candidate pairs kept (Σ candidate-list lengths over right probes).
    pub lr_pairs: u64,
    /// L–L candidate pairs kept (self excluded).
    pub ll_pairs: u64,
    /// Largest candidate list kept by any single probe.
    pub per_probe_max: u64,
    /// Records exactly verified across all probes: the records whose exact
    /// score was offered to the top-k heap: those the walk verified, plus
    /// those the head-gram bound could not prune.
    pub scored_records: u64,
    /// Records the walk touched across all probes (a nonzero partial sum):
    /// the length of the bound pass, which visits each of them once.
    pub touched_records: u64,
    /// Posting entries actually walked: every list up to the essential
    /// split, each at most once.
    pub postings_scanned: u64,
    /// Posting entries the dense walk would have read (Σ document frequency
    /// over every known probe gram).
    pub postings_total: u64,
}

impl BlockingStats {
    /// Fraction of the dense postings traversal the probe skipped
    /// (`1 − scanned/total`; 0 when nothing was probed or every list was
    /// walked).
    pub fn reduction_ratio(&self) -> f64 {
        if self.postings_total == 0 || self.postings_scanned >= self.postings_total {
            0.0
        } else {
            1.0 - self.postings_scanned as f64 / self.postings_total as f64
        }
    }
}

/// The candidate sets produced by blocking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockingOutput {
    /// For every right record `r`, the indices of the candidate left records
    /// kept by blocking, ordered by decreasing blocking score.
    pub left_candidates_of_right: Vec<Vec<usize>>,
    /// For every left record `l`, the indices of the candidate *other* left
    /// records kept by blocking (self excluded), ordered by decreasing score.
    pub left_candidates_of_left: Vec<Vec<usize>>,
    /// The number of candidates kept per probe record (`⌈β·√|L|⌉`, at least 1).
    pub candidates_per_record: usize,
    /// Candidate-set statistics of the run (L–R and L–L combined).
    pub stats: BlockingStats,
}

impl BlockingOutput {
    /// Total number of L–R candidate pairs that survived blocking.
    pub fn num_lr_pairs(&self) -> usize {
        self.left_candidates_of_right.iter().map(Vec::len).sum()
    }

    /// Total number of L–L candidate pairs that survived blocking.
    pub fn num_ll_pairs(&self) -> usize {
        self.left_candidates_of_left.iter().map(Vec::len).sum()
    }
}

/// The default Auto-FuzzyJoin blocker.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Blocker {
    factor: f64,
}

impl Default for Blocker {
    fn default() -> Self {
        Self { factor: 1.5 }
    }
}

/// Inverted index over the reference table, on interned gram ids.
///
/// Postings are stored CSR-style: `postings[offsets[g]..offsets[g + 1]]`
/// holds the left-record indices containing gram `g`, in ascending order
/// (records are scanned in order at build time).
///
/// The probe-side structures (frequency ranks, the per-record gram lists,
/// the head-gram masks and their weight table) are pure functions of the
/// reference sets.  Batch blocking and the serving state build their index with
/// one constructor, [`Self::over_column`], so a snapshot persists none of
/// it: loading one re-derives the index from the raw records.
/// [`Self::top_k`] is the public probe entry point the online query path
/// shares with batch blocking.
#[derive(Debug, Clone)]
pub struct GramIndex {
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// idf weight per gram id, derived from the *reference-side* document
    /// frequency (`ln(1 + |L| / (1 + df))`), like the paper's TF-IDF blocker.
    idf: Vec<f64>,
    num_left: usize,
    /// Global frequency rank per gram: `rank[g] = r` means gram `g` is the
    /// `r`-th rarest (df ascending, gram id breaking ties).  Ranks are a
    /// permutation, so comparisons on them are a strict total order.
    rank: Vec<u32>,
    /// Per-record gram lists: `rec_grams[rec_offsets[l]..rec_offsets[l + 1]]`
    /// is a copy of record `l`'s gram set, ascending — what gather-sum
    /// verification walks.
    rec_offsets: Vec<u32>,
    rec_grams: Vec<u32>,
    /// Head-gram mask per record: bit `b` is set when the record holds the
    /// gram of rank `num_grams − 1 − b` (the `b`-th most frequent).
    head_masks: Vec<u128>,
    /// `head_table[b][v]`: summed idf of the grams owning the bits set in
    /// byte value `v` at byte `b` of a head mask (bits no gram owns add 0).
    head_table: Box<[[f64; 256]; HEAD_BYTES]>,
}

/// A scored candidate in the bounded top-k heap.
///
/// The `Ord` is inverted so that `BinaryHeap` (a max-heap) keeps the *worst*
/// kept candidate at the root: "greater" means lower score, ties broken
/// toward the higher left index.  Sorting a drained heap ascending therefore
/// yields candidates best-first with the deterministic `(score desc, index
/// asc)` order of a full sort.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    score: f64,
    left: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.left == other.left
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Scores are finite sums of finite idf weights, so partial_cmp never
        // fails in practice; Equal is a safe fallback that defers to the
        // index tie-break.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.left.cmp(&other.left))
    }
}

/// Per-scratch (hence per-worker) probe counters, merged deterministically
/// after the parallel chunks complete (integer sums are order-independent).
#[derive(Debug, Clone, Copy, Default)]
struct ProbeStats {
    kept_pairs: u64,
    per_probe_max: u64,
    scored_records: u64,
    touched_records: u64,
    postings_scanned: u64,
    postings_total: u64,
}

impl ProbeStats {
    fn merge(&mut self, other: &ProbeStats) {
        self.kept_pairs += other.kept_pairs;
        self.per_probe_max = self.per_probe_max.max(other.per_probe_max);
        self.scored_records += other.scored_records;
        self.touched_records += other.touched_records;
        self.postings_scanned += other.postings_scanned;
        self.postings_total += other.postings_total;
    }
}

/// Per-worker probe scratch: dense score accumulator with its touched list,
/// the bounded top-k heap and its drain buffer, plus the probe buffers
/// (rank-ordered probe grams, weight prefix sums, the gather-sum weight row,
/// admission stamps).  One instance serves every probe a worker processes;
/// nothing inside is reallocated between probes once warmed up.
pub struct ProbeScratch {
    /// Accumulated sums, `0.0` for every record not yet touched (idf weights
    /// are strictly positive, so a touched record's sum never is).
    scores: Vec<f64>,
    /// `touched[..touched_len]` are the records with a nonzero sum;
    /// resetting zeroes only these.  One slot longer than `scores`, so the
    /// unconditional write at `touched_len` stays in bounds when every
    /// record is touched.
    touched: Vec<u32>,
    touched_len: usize,
    /// `admit_epoch[l] == admit_cur` marks `l` as already admitted (exactly
    /// scored, or the excluded record) for the current probe.
    admit_epoch: Vec<u32>,
    admit_cur: u32,
    /// Probe grams as `(rank, gram)`, sorted rarest-first.
    ord: Vec<(u32, u32)>,
    /// `psum[i]` = summed idf of the first `i` rank-ordered probe grams.
    psum: Vec<f64>,
    /// Gather-sum weight row: the probe's idf at its grams, `0.0` at every
    /// other gram id.  Sized to the index vocabulary on first use and
    /// zeroed again at the end of every probe.
    weights: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    drain: Vec<HeapEntry>,
    stats: ProbeStats,
}

impl ProbeScratch {
    /// Scratch sized for an index over `num_left` reference records.  A
    /// probe of a larger index grows it first, so any size is correct; the
    /// right one only saves that growth.
    pub fn new(num_left: usize) -> Self {
        Self {
            scores: vec![0.0; num_left],
            touched: vec![0; num_left + 1],
            touched_len: 0,
            admit_epoch: vec![0; num_left],
            admit_cur: 0,
            ord: Vec::new(),
            psum: Vec::new(),
            weights: Vec::new(),
            heap: BinaryHeap::new(),
            drain: Vec::new(),
            stats: ProbeStats::default(),
        }
    }

    /// Grow the record- and gram-indexed buffers to `index`'s sizes; new
    /// slots read as untouched, unadmitted and outside the probe.
    fn fit(&mut self, index: &GramIndex) {
        let n = index.num_left;
        if self.scores.len() < n {
            self.scores.resize(n, 0.0);
            self.admit_epoch.resize(n, 0);
            self.touched.resize(n + 1, 0);
        }
        if self.weights.len() < index.idf.len() {
            self.weights.resize(index.idf.len(), 0.0);
        }
    }

    /// Start a new accumulation: zero the touched sums and clear the list.
    fn begin(&mut self) {
        for &li in &self.touched[..self.touched_len] {
            self.scores[li as usize] = 0.0;
        }
        self.touched_len = 0;
    }

    /// Start the admission phase of a probe: advance the stamp epoch
    /// (re-zeroing the stamps on the — practically unreachable —
    /// wrap-around).
    fn begin_admit(&mut self) {
        if self.admit_cur == u32::MAX {
            self.admit_epoch.fill(0);
            self.admit_cur = 0;
        }
        self.admit_cur += 1;
    }

    /// Whether `li` was already admitted during the current probe.
    #[inline]
    fn admitted(&self, li: u32) -> bool {
        self.admit_epoch[li as usize] == self.admit_cur
    }

    /// Add weight `w` to record `li`'s accumulated sum and return the sum.
    /// `li` is always written at the end of the touched list, and the list
    /// grows over it only on the record's first touch.
    #[inline]
    fn accumulate(&mut self, li: u32, w: f64) -> f64 {
        let sum = &mut self.scores[li as usize];
        self.touched[self.touched_len] = li;
        self.touched_len += usize::from(*sum == 0.0);
        *sum += w;
        *sum
    }

    /// The score a partial sum must reach to be verified during the walk:
    /// the worst kept score once the heap holds `k`, `-∞` before.
    #[inline]
    fn admit_threshold(&self, k: usize) -> f64 {
        match self.heap.peek() {
            Some(worst) if self.heap.len() == k => worst.score,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Admit record `li` with its exact `score`: stamp it, count it, and
    /// offer it to the bounded top-k heap.
    #[inline]
    fn admit(&mut self, li: u32, score: f64, k: usize) {
        self.admit_epoch[li as usize] = self.admit_cur;
        self.stats.scored_records += 1;
        let entry = HeapEntry { score, left: li };
        if self.heap.len() < k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            // `entry < worst` under the inverted Ord means "better than the
            // worst kept candidate".
            if entry < *worst {
                *worst = entry;
            }
        }
    }
}

/// Relative inflation applied to every pruning bound before it is compared
/// (strictly) against an exact kept score.  Bounds are partial sums plus
/// prefix-sum segments or a tail sum, plus at most 128 head weights summed
/// through 16 table entries, so their float rounding error is
/// ~`(m + 128) · 2⁻⁵²` of the probe's total weight (m = probe gram count);
/// inflating by 1e-9 makes a wrongly-pruned candidate impossible while
/// costing effectively no pruning power.
const FILTER_INFL: f64 = 1.0 + 1e-9;
/// Absolute slack added alongside [`FILTER_INFL`], covering cancellation in
/// prefix-sum differences when the remaining suffix weight is tiny.
const FILTER_SLACK: f64 = 1e-12;

/// `true` when a candidate with upper bound `bound` could still reach (or
/// tie) an exact kept score of `worst` — i.e. pruning is NOT safe.
#[inline]
fn bound_reaches(bound: f64, worst: f64) -> bool {
    bound * FILTER_INFL + FILTER_SLACK >= worst
}

/// Number of head grams: the most frequent grams of an index, one bit each
/// of a record's `u128` head mask.
const HEAD_BITS: usize = 128;
/// Bytes of a head mask: the rows of the head-weight table.
const HEAD_BYTES: usize = HEAD_BITS / 8;

impl GramIndex {
    /// Build the index from the sorted, deduplicated gram-id sets of the
    /// reference records.  `num_grams` is the size of the shared vocabulary;
    /// grams that never occur in a reference record get an empty postings
    /// range (probe grams hitting them contribute nothing).
    ///
    /// One pass counts each gram's document frequency and copies each set
    /// as its record's gram list; a scatter pass in record order then fills
    /// the postings, so every postings list ascends.
    pub fn from_id_sets<S: AsRef<[u32]>>(left_sets: &[S], num_grams: usize) -> Self {
        let num_left = left_sets.len();
        let total: usize = left_sets.iter().map(|set| set.as_ref().len()).sum();
        let mut df = vec![0u32; num_grams];
        let mut rec_offsets = Vec::with_capacity(num_left + 1);
        let mut rec_grams = Vec::with_capacity(total);
        rec_offsets.push(0);
        for set in left_sets {
            let set = set.as_ref();
            // The copy is the record's ascending gram list only for a
            // sorted, deduplicated set.
            debug_assert!(
                set.windows(2).all(|w| w[0] < w[1]),
                "left sets must be sorted and deduplicated"
            );
            for &g in set {
                df[g as usize] += 1;
            }
            rec_grams.extend_from_slice(set);
            rec_offsets.push(rec_grams.len() as u32);
        }
        let mut offsets = Vec::with_capacity(num_grams + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &df {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..num_grams].to_vec();
        let mut postings = vec![0u32; total];
        for (li, grams) in rec_offsets.windows(2).enumerate() {
            for &g in &rec_grams[grams[0] as usize..grams[1] as usize] {
                let slot = &mut cursor[g as usize];
                postings[*slot as usize] = li as u32;
                *slot += 1;
            }
        }
        let n = num_left.max(1) as f64;
        let idf: Vec<f64> = df
            .iter()
            .map(|&df| (1.0 + n / (1.0 + df as f64)).ln())
            .collect();

        // Global frequency order — the PPJoin token ordering on gram ids:
        // rarest first, ties toward the lower id.
        let mut by_rarity: Vec<u32> = (0..num_grams as u32).collect();
        by_rarity.sort_unstable_by_key(|&g| (df[g as usize], g));
        let mut rank = vec![0u32; num_grams];
        for (r, &g) in by_rarity.iter().enumerate() {
            rank[g as usize] = r as u32;
        }

        // Head masks: the `HEAD_BITS` top ranks own one bit each, the most
        // frequent gram bit 0.  Each table row sums its byte's bit weights
        // for every byte value.
        let mut head_masks = vec![0u128; num_left];
        let mut head_idf = [0.0; HEAD_BITS];
        for (bit, &g) in by_rarity.iter().rev().take(HEAD_BITS).enumerate() {
            head_idf[bit] = idf[g as usize];
            for &li in &postings[offsets[g as usize] as usize..offsets[g as usize + 1] as usize] {
                head_masks[li as usize] |= 1u128 << bit;
            }
        }
        let mut head_table = Box::new([[0.0; 256]; HEAD_BYTES]);
        for (row, bits) in head_table.iter_mut().zip(head_idf.chunks_exact(8)) {
            for (v, sum) in row.iter_mut().enumerate() {
                *sum = (0..8).filter(|j| (v >> j) & 1 == 1).map(|j| bits[j]).sum();
            }
        }

        Self {
            offsets,
            postings,
            idf,
            num_left,
            rank,
            rec_offsets,
            rec_grams,
            head_masks,
            head_table,
        }
    }

    /// The index over the `(lower-case, 3-gram)` sets of the first
    /// `num_left` records of `col`, with the column's whole gram vocabulary
    /// as universe: query-only grams get empty postings.  Batch blocking and
    /// the serving state (freeze and snapshot load) all build their index
    /// here.
    pub fn over_column(col: &PreparedColumn, num_left: usize) -> Self {
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let left_sets: Vec<&[u32]> = (0..num_left)
            .map(|i| col.record(i).token_sets[si].as_slice())
            .collect();
        Self::from_id_sets(&left_sets, col.vocab_by_scheme(si).len())
    }

    /// The lowest rank that owns a head bit.
    fn head_from(&self) -> u32 {
        self.idf.len().saturating_sub(HEAD_BITS) as u32
    }

    /// Summed idf of the head grams whose bits are set in `mask`: one table
    /// entry per byte.
    #[inline]
    fn head_weight(&self, mask: u128) -> f64 {
        (self.head_table.iter().enumerate())
            .map(|(b, row)| row[(mask >> (8 * b)) as u8 as usize])
            .sum()
    }

    /// Number of reference records the index was built over.
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of grams the index knows about.
    pub fn num_grams(&self) -> usize {
        self.idf.len()
    }

    #[inline]
    fn postings_of(&self, gram: u32) -> &[u32] {
        let g = gram as usize;
        &self.postings[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Exact blocking score of reference record `li`: the gather-sum weight
    /// row summed over the record's ascending gram list.  Grams outside the
    /// probe add `+0.0`, which is exact, so the additions are the dense
    /// walk's float sequence for this record (matching grams in ascending
    /// id order) and the score is bit-identical to it.
    #[inline]
    fn gather_score(&self, li: u32, weights: &[f64]) -> f64 {
        let l = li as usize;
        self.rec_grams[self.rec_offsets[l] as usize..self.rec_offsets[l + 1] as usize]
            .iter()
            .fold(0.0, |score, &g| score + weights[g as usize])
    }

    /// Score every reference record sharing a gram with the probe and return
    /// the top-k indices (optionally excluding one index, used for L–L
    /// probes).  `probe` must be sorted and deduplicated — blocking
    /// similarity is over gram *sets*, and the ascending-id summation order
    /// fixes the floating-point result independent of thread count.
    ///
    /// This is the MaxScore probe of the module docs; it returns exactly
    /// what the dense walk of [`crate::reference`] returns, at every table
    /// size.
    ///
    /// Probe gram ids at or beyond [`Self::num_grams`] are skipped: a gram
    /// the index has never seen contributes nothing, exactly like a known
    /// gram with an empty postings range.  This keeps probes over a
    /// vocabulary that grew after the index was built (online appends, query
    /// overflow ids) byte-identical to probing with the gram dropped.
    pub fn top_k(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
    ) -> Vec<usize> {
        let k = k.min(self.num_left);
        if k == 0 {
            return Vec::new();
        }

        // Rank-order the known probe grams (rarest first), prefix-sum their
        // weights and write them into the gather-sum row.  Grams with empty
        // postings contribute nothing and would only loosen the bounds, so
        // they are dropped exactly like out-of-vocabulary ids.
        scratch.fit(self);
        scratch.ord.clear();
        for &g in probe {
            if (g as usize) < self.idf.len() {
                let df = self.offsets[g as usize + 1] - self.offsets[g as usize];
                if df > 0 {
                    scratch.ord.push((self.rank[g as usize], g));
                    scratch.weights[g as usize] = self.idf[g as usize];
                    scratch.stats.postings_total += df as u64;
                }
            }
        }
        scratch.ord.sort_unstable();
        let m = scratch.ord.len();
        scratch.psum.clear();
        scratch.psum.push(0.0);
        for i in 0..m {
            let w = self.idf[scratch.ord[i].1 as usize];
            let prev = scratch.psum[i];
            scratch.psum.push(prev + w);
        }

        scratch.begin();
        scratch.begin_admit();
        scratch.heap.clear();
        // The excluded record counts as admitted, so it is never verified.
        if let Some(stamp) = exclude.and_then(|x| scratch.admit_epoch.get_mut(x as usize)) {
            *stamp = scratch.admit_cur;
        }

        // Seed and walk: the full lists, rarest first (see `walk`).  Once the
        // heap is full, `ord[e..]` is the longest suffix whose total weight
        // cannot reach the worst kept score: a record sharing only those
        // grams with the probe cannot enter the top-k, so the walk ends at
        // `e`.  The worst only grows, so `e` only shrinks.
        let mut i = 0;
        let mut e = m;
        while i < e {
            self.walk(scratch, i, k);
            i += 1;
            if scratch.heap.len() == k {
                let worst = scratch.heap.peek().expect("heap is full").score;
                while e > i && !bound_reaches(scratch.psum[m] - scratch.psum[e - 1], worst) {
                    e -= 1;
                }
            }
        }

        // Bound every touched record the walk left unverified by its partial
        // plus what the unwalked grams `ord[i..]` can add: first their whole
        // weight `rest`, then the tail grams' weight plus the head grams the
        // record holds.  While the heap is not full the threshold is `-∞`,
        // and then every touched record was verified by the walk.
        let rest = scratch.psum[m] - scratch.psum[i];
        let head_from = self.head_from();
        let (mut head_mask, mut tail) = (0u128, 0.0);
        for &(rank, g) in &scratch.ord[i..] {
            if rank >= head_from {
                head_mask |= 1 << (self.idf.len() as u32 - 1 - rank);
            } else {
                tail += self.idf[g as usize];
            }
        }
        scratch.stats.touched_records += scratch.touched_len as u64;
        let mut worst = scratch.admit_threshold(k);
        for j in 0..scratch.touched_len {
            let li = scratch.touched[j];
            let partial = scratch.scores[li as usize];
            if !bound_reaches(partial + rest, worst) || scratch.admitted(li) {
                continue;
            }
            let held = head_mask & self.head_masks[li as usize];
            if bound_reaches(partial + tail + self.head_weight(held), worst) {
                let score = self.gather_score(li, &scratch.weights);
                scratch.admit(li, score, k);
                worst = scratch.admit_threshold(k);
            }
        }

        for &(_, g) in &scratch.ord {
            scratch.weights[g as usize] = 0.0;
        }
        self.drain_top_k(scratch)
    }

    /// Walk the full postings of the `i`-th rank-ordered probe gram into the
    /// accumulator.  Until the heap holds `k` exact scores, every newly
    /// touched record is verified; after that, a record is verified as soon
    /// as its partial sum reaches the worst kept score (its exact score is
    /// at least its partial), which raises the worst while the walk goes on.
    /// Which records are verified here only decides how soon the bounds
    /// tighten, never the result.
    #[inline]
    fn walk(&self, scratch: &mut ProbeScratch, i: usize, k: usize) {
        let g = scratch.ord[i].1;
        let posts = self.postings_of(g);
        let w = self.idf[g as usize];
        scratch.stats.postings_scanned += posts.len() as u64;
        let mut worst = scratch.admit_threshold(k);
        for &li in posts {
            if scratch.accumulate(li, w) >= worst && !scratch.admitted(li) {
                let score = self.gather_score(li, &scratch.weights);
                scratch.admit(li, score, k);
                worst = scratch.admit_threshold(k);
            }
        }
    }

    /// Drain the heap best-first into a candidate list and update the kept
    /// counters.
    fn drain_top_k(&self, scratch: &mut ProbeScratch) -> Vec<usize> {
        scratch.drain.clear();
        scratch.drain.extend(scratch.heap.drain());
        // Ascending under the inverted Ord == best-first.
        scratch.drain.sort_unstable();
        scratch.stats.kept_pairs += scratch.drain.len() as u64;
        scratch.stats.per_probe_max = scratch.stats.per_probe_max.max(scratch.drain.len() as u64);
        scratch.drain.iter().map(|e| e.left as usize).collect()
    }
}

/// Run `probes` through the index in contiguous chunks — one chunk per
/// worker, one [`ProbeScratch`] per chunk — and concatenate the per-chunk
/// candidate lists in probe order.  `exclude` maps a probe position to a left
/// index that must not appear in its candidates (self-exclusion for L–L).
/// Per-chunk probe counters merge into one [`ProbeStats`] (integer sums, so
/// the totals are identical at every thread count).
fn probe_chunks(
    index: &GramIndex,
    probes: &[&[u32]],
    k: usize,
    exclude: impl Fn(usize) -> Option<u32> + Sync,
) -> (Vec<Vec<usize>>, ProbeStats) {
    let n = probes.len();
    if n == 0 {
        return (Vec::new(), ProbeStats::default());
    }
    let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
    let starts: Vec<usize> = (0..n).step_by(chunk).collect();
    let per_chunk: Vec<(Vec<Vec<usize>>, ProbeStats)> = starts
        .into_par_iter()
        .map(|start| {
            let end = (start + chunk).min(n);
            let mut scratch = ProbeScratch::new(index.num_left);
            let lists = (start..end)
                .map(|i| index.top_k(probes[i], k, exclude(i), &mut scratch))
                .collect();
            (lists, scratch.stats)
        })
        .collect();
    let mut stats = ProbeStats::default();
    let mut lists = Vec::with_capacity(n);
    for (chunk_lists, chunk_stats) in per_chunk {
        stats.merge(&chunk_stats);
        lists.extend(chunk_lists);
    }
    (lists, stats)
}

impl Blocker {
    /// A blocker with the paper's default factor `β = 1.5`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A blocker with a custom factor `β` (Figure 6(d) sweeps this).
    ///
    /// # Panics
    /// Panics if `factor` is not strictly positive and finite.
    pub fn with_factor(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "blocking factor must be positive and finite, got {factor}"
        );
        Self { factor }
    }

    /// The blocking factor β.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Number of candidates kept per probe record for a reference table of
    /// size `left_len`: `⌈β·√|L|⌉`, at least 1.
    pub fn candidates_per_record(&self, left_len: usize) -> usize {
        ((self.factor * (left_len as f64).sqrt()).ceil() as usize).max(1)
    }

    /// Run blocking over a [`PreparedColumn`] holding the `num_left`
    /// reference records followed by the query records, producing the L–R
    /// and L–L candidate sets.  This is the entry point of every pipeline:
    /// each record is prepared exactly once, and the same interned sets feed
    /// blocking, negative rules and distance evaluation.
    ///
    /// The index is [`GramIndex::over_column`] and every query record, then
    /// every reference record excluding itself, is one [`GramIndex::top_k`]
    /// probe of `k =` [`Self::candidates_per_record`] candidates.  Reference
    /// records are interned first, so the vocabulary numbers their grams
    /// exactly as [`crate::block_reference`] does, and query-only grams have
    /// empty postings.  Candidate lists keep the same deterministic order
    /// regardless of thread count.
    pub fn block_prepared(&self, col: &PreparedColumn, num_left: usize) -> BlockingOutput {
        assert!(
            num_left <= col.len(),
            "num_left ({num_left}) exceeds column length ({})",
            col.len()
        );
        let index = GramIndex::over_column(col, num_left);
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let sets: Vec<&[u32]> = (0..col.len())
            .map(|i| col.record(i).token_sets[si].as_slice())
            .collect();
        let (left_sets, right_sets) = sets.split_at(num_left);
        let k = self.candidates_per_record(num_left);
        let (left_candidates_of_right, lr) = probe_chunks(&index, right_sets, k, |_| None);
        let (left_candidates_of_left, ll) = probe_chunks(&index, left_sets, k, |i| Some(i as u32));
        let stats = BlockingStats {
            lr_pairs: lr.kept_pairs,
            ll_pairs: ll.kept_pairs,
            per_probe_max: lr.per_probe_max.max(ll.per_probe_max),
            scored_records: lr.scored_records + ll.scored_records,
            touched_records: lr.touched_records + ll.touched_records,
            postings_scanned: lr.postings_scanned + ll.postings_scanned,
            postings_total: lr.postings_total + ll.postings_total,
        };
        BlockingOutput {
            left_candidates_of_right,
            left_candidates_of_left,
            candidates_per_record: k,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{block_sets, BlockingSpec};

    fn teams() -> Vec<String> {
        (2000..2040)
            .flat_map(|year| {
                [
                    "LSU Tigers football",
                    "Wisconsin Badgers football",
                    "Alabama Crimson Tide",
                ]
                .iter()
                .map(move |t| format!("{year} {t} team"))
            })
            .collect()
    }

    /// Block raw strings through a prepared column of `left ++ right`.
    fn block<S: AsRef<str> + Sync>(blocker: &Blocker, left: &[S], right: &[S]) -> BlockingOutput {
        let all: Vec<&str> = left.iter().chain(right).map(AsRef::as_ref).collect();
        blocker.block_prepared(&PreparedColumn::build(&all), left.len())
    }

    /// The lower-case 3-gram id sets `block_prepared` reads from `col`: its
    /// first `num_left` records, the rest, and the gram count.
    fn column_sets(col: &PreparedColumn, num_left: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, usize) {
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let mut left_sets: Vec<Vec<u32>> = col
            .records()
            .iter()
            .map(|rec| rec.token_sets[si].clone())
            .collect();
        let right_sets = left_sets.split_off(num_left);
        (left_sets, right_sets, col.vocab_by_scheme(si).len())
    }

    /// A prepared column of `left ++ right`.
    fn column(left: &[String], right: &[String]) -> PreparedColumn {
        let all: Vec<&str> = left.iter().chain(right).map(String::as_str).collect();
        PreparedColumn::build(&all)
    }

    /// The id sets of a column of `left ++ right` (interned left-first), for
    /// tests that drive `GramIndex` directly.
    fn id_sets(left: &[String], right: &[String]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, usize) {
        column_sets(&column(left, right), left.len())
    }

    #[test]
    fn candidates_per_record_follows_beta_sqrt_l() {
        let b = Blocker::with_factor(1.0);
        assert_eq!(b.candidates_per_record(100), 10);
        let b = Blocker::with_factor(1.5);
        assert_eq!(b.candidates_per_record(100), 15);
        assert_eq!(b.candidates_per_record(0), 1);
    }

    #[test]
    fn exact_match_survives_blocking() {
        let left = teams();
        let right = vec![left[7].clone(), left[42].clone()];
        let out = block(&Blocker::new(), &left, &right);
        assert!(out.left_candidates_of_right[0].contains(&7));
        assert!(out.left_candidates_of_right[1].contains(&42));
    }

    #[test]
    fn fuzzy_match_survives_blocking() {
        let left = teams();
        let right = vec!["2003 LSU Tigres footbal".to_string()];
        let out = block(&Blocker::new(), &left, &right);
        // The true counterpart "2003 LSU Tigers football team" is at index 9.
        assert!(out.left_candidates_of_right[0].contains(&9));
    }

    #[test]
    fn ll_candidates_exclude_self() {
        let left = teams();
        let out = block(&Blocker::new(), &left, &left[..0]);
        for (li, cands) in out.left_candidates_of_left.iter().enumerate() {
            assert!(!cands.contains(&li));
        }
    }

    #[test]
    fn candidate_lists_respect_k() {
        let left = teams();
        let b = Blocker::with_factor(0.5);
        let out = block(&b, &left, &left);
        let k = out.candidates_per_record;
        assert!(out.left_candidates_of_right.iter().all(|c| c.len() <= k));
        assert!(out.left_candidates_of_left.iter().all(|c| c.len() <= k));
    }

    #[test]
    fn larger_factor_keeps_more_candidates() {
        let left = teams();
        let right = vec!["2005 LSU Tigers football team".to_string()];
        let small = block(&Blocker::with_factor(0.5), &left, &right);
        let large = block(&Blocker::with_factor(3.0), &left, &right);
        assert!(large.left_candidates_of_right[0].len() >= small.left_candidates_of_right[0].len());
    }

    #[test]
    fn empty_tables_are_handled() {
        let out = block::<&str>(&Blocker::new(), &[], &[]);
        assert_eq!(out.num_lr_pairs(), 0);
        assert_eq!(out.num_ll_pairs(), 0);
        let out = block(&Blocker::new(), &["only left"], &[]);
        assert!(out.left_candidates_of_right.is_empty());
        assert_eq!(out.left_candidates_of_left.len(), 1);
    }

    #[test]
    fn completely_unrelated_probe_gets_few_or_no_candidates() {
        let left = teams();
        let right = vec!["零件 øøøø ØØØ".to_string()];
        let out = block(&Blocker::new(), &left, &right);
        assert!(out.left_candidates_of_right[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "blocking factor")]
    fn zero_factor_panics() {
        let _ = Blocker::with_factor(0.0);
    }

    #[test]
    fn top_k_ties_break_toward_lower_index() {
        // Four identical reference records: every probe scores them equally,
        // so the kept candidates must be the lowest indices, ascending.
        let left = vec!["aaa bbb"; 4];
        let b = Blocker::with_factor(0.5); // k = 1
        let out = block(&b, &left, &["aaa bbb"]);
        assert_eq!(out.left_candidates_of_right[0], vec![0]);
        let b = Blocker::with_factor(1.0); // k = 2
        let out = block(&b, &left, &["aaa bbb"]);
        assert_eq!(out.left_candidates_of_right[0], vec![0, 1]);
    }

    #[test]
    fn out_of_range_probe_grams_score_like_empty_postings() {
        let sets: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2]];
        // Index built over a 3-gram vocabulary; the same index built over a
        // larger vocabulary gives the extra grams empty postings.
        let narrow = GramIndex::from_id_sets(&sets, 3);
        let wide = GramIndex::from_id_sets(&sets, 6);
        let mut a = ProbeScratch::new(narrow.num_left());
        let mut b = ProbeScratch::new(wide.num_left());
        // Probe contains grams (4, 5) unknown to the narrow index.
        let probe = vec![0u32, 1, 4, 5];
        assert_eq!(
            narrow.top_k(&probe, 2, None, &mut a),
            wide.top_k(&probe, 2, None, &mut b)
        );
    }

    #[test]
    fn scratch_reuse_across_probes_is_clean() {
        // Many probes through one worker (1 thread) must not leak scores
        // between probes: a probe sharing nothing with the reference table
        // still gets no candidates even after high-scoring probes.
        let left = teams();
        let right: Vec<String> = (0..10)
            .flat_map(|_| {
                [
                    left[3].clone(),
                    "零件 øøøø ØØØ".to_string(), // no shared grams
                ]
            })
            .collect();
        let out = block(&Blocker::new(), &left, &right);
        for (i, cands) in out.left_candidates_of_right.iter().enumerate() {
            if i % 2 == 1 {
                assert!(cands.is_empty(), "probe {i} leaked candidates");
            } else {
                assert!(cands.contains(&3));
            }
        }
    }

    #[test]
    fn probe_matches_the_spec() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
            "2015 Wisconsin Badgers".to_string(),
            "Alabama".to_string(),
            "totally unrelated".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let mut spec = BlockingSpec::new(&left_sets);
        let mut scratch = ProbeScratch::new(index.num_left());
        for k in [1usize, 3, 5, 10, 20, 200] {
            for probe in right_sets.iter().chain(left_sets.iter()) {
                assert_eq!(
                    index.top_k(probe, k, None, &mut scratch),
                    spec.top_k(probe, k, None),
                    "k={k}"
                );
            }
            for (i, probe) in left_sets.iter().enumerate() {
                let exclude = Some(i as u32);
                assert_eq!(
                    index.top_k(probe, k, exclude, &mut scratch),
                    spec.top_k(probe, k, exclude),
                    "k={k}, exclude={i}"
                );
            }
        }
    }

    /// Block `col` at `factor` and pin it to the spec over the same id
    /// sets: every L–R and L–L list, and the kept-pair, per-probe-max and
    /// postings-total counters.  Returns the fast output and the spec's.
    fn block_against_spec(
        col: &PreparedColumn,
        num_left: usize,
        factor: f64,
    ) -> (BlockingOutput, BlockingOutput) {
        let out = Blocker::with_factor(factor).block_prepared(col, num_left);
        let (left_sets, right_sets, _) = column_sets(col, num_left);
        let spec = block_sets(&left_sets, &right_sets, factor);
        assert_eq!(
            out.left_candidates_of_right, spec.left_candidates_of_right,
            "β={factor}"
        );
        assert_eq!(
            out.left_candidates_of_left, spec.left_candidates_of_left,
            "β={factor}"
        );
        assert_eq!(out.candidates_per_record, spec.candidates_per_record);
        let (s, t) = (&out.stats, &spec.stats);
        assert_eq!((s.lr_pairs, s.ll_pairs), (t.lr_pairs, t.ll_pairs));
        assert_eq!(s.per_probe_max, t.per_probe_max);
        assert_eq!(s.postings_total, t.postings_total);
        (out, spec)
    }

    #[test]
    fn blocker_matches_the_spec_across_factors_and_threads() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "Alabama Crimson".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
        ];
        let col = column(&left, &right);
        for threads in [1usize, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .expect("configure shim pool");
            for factor in [0.2, 0.8, 1.5, 3.0, 20.0] {
                block_against_spec(&col, left.len(), factor);
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
    }

    #[test]
    fn one_pass_build_inverts_the_left_sets_on_a_skewed_table() {
        // Gram 0 sits in three records of four and the drawn ids skew
        // toward 0 (the minimum of three draws), so document frequencies
        // span single records to most of the table; the last 20 grams of
        // the universe occur in no record at all.
        const GRAMS: u32 = 300;
        let mut state = 0x0BAD_5EED_1234_5678u64;
        let mut draw = move |n: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(n)) as u32
        };
        let sets: Vec<Vec<u32>> = (0..500)
            .map(|l| {
                let len = [0, 1, 5, 40][l % 4];
                let mut set: Vec<u32> = (0..len)
                    .map(|_| draw(GRAMS - 20).min(draw(GRAMS)).min(draw(GRAMS)))
                    .collect();
                if l % 4 != 0 {
                    set.push(0);
                }
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let index = GramIndex::from_id_sets(&sets, GRAMS as usize);
        assert_eq!(index.num_left(), sets.len());
        assert_eq!(index.num_grams(), GRAMS as usize);
        let n = sets.len() as f64;
        let mut pairs = 0;
        for g in 0..GRAMS {
            let posts = index.postings_of(g);
            assert!(posts.windows(2).all(|w| w[0] < w[1]), "gram {g}");
            for &l in posts {
                assert!(sets[l as usize].binary_search(&g).is_ok(), "gram {g}");
            }
            pairs += posts.len();
            let df = sets.iter().filter(|set| set.contains(&g)).count();
            assert_eq!(posts.len(), df, "gram {g}");
            let idf = (1.0 + n / (1.0 + df as f64)).ln();
            assert_eq!(index.idf[g as usize].to_bits(), idf.to_bits(), "gram {g}");
        }
        assert_eq!(pairs, sets.iter().map(Vec::len).sum::<usize>());
        assert!(index.postings_of(GRAMS - 1).is_empty());
        assert!(4 * index.postings_of(0).len() >= 3 * sets.len());
        assert!((0..GRAMS).any(|g| (1..10).contains(&index.postings_of(g).len())));
        for (l, set) in sets.iter().enumerate() {
            let grams =
                &index.rec_grams[index.rec_offsets[l] as usize..index.rec_offsets[l + 1] as usize];
            assert_eq!(grams, set.as_slice(), "left {l}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted and deduplicated")]
    fn an_unsorted_left_set_is_refused_in_debug_builds() {
        let _ = GramIndex::from_id_sets(&[vec![0u32, 2], vec![2, 1]], 3);
    }

    #[test]
    fn blocking_stats_are_recorded_and_sane() {
        let left = teams();
        let right = vec![left[5].clone(), "2003 LSU Tigres footbal".to_string()];
        // Kept pairs, per-probe max and postings total equal the spec's.
        let (out, spec) = block_against_spec(&column(&left, &right), left.len(), 1.5);
        let (s, t) = (&out.stats, &spec.stats);
        assert_eq!(s.lr_pairs as usize, out.num_lr_pairs());
        assert_eq!(s.ll_pairs as usize, out.num_ll_pairs());
        assert!(s.per_probe_max as usize <= out.candidates_per_record);
        // Verified records are a subset of what the spec scores, and a
        // superset of what is kept; the spec reads every posting.
        assert!(s.scored_records >= s.lr_pairs + s.ll_pairs);
        assert!(s.scored_records <= t.scored_records);
        // Every verified record was touched, and the walk touches a subset
        // of what the spec touches.
        assert!(s.touched_records >= s.scored_records);
        assert!(s.touched_records <= t.touched_records);
        assert_eq!(t.postings_scanned, t.postings_total);
        // Each list is walked at most once.
        assert!(s.postings_scanned <= s.postings_total);
        assert!((0.0..=1.0).contains(&s.reduction_ratio()));
    }

    #[test]
    fn one_probe_path_at_every_table_size() {
        // From a handful of records (every list essential, heap never full)
        // to thousands (k ≪ |L|, most lists non-essential): one probe, equal
        // to the spec, and verifying fewer records than it scores once the
        // table is large.
        for copies in [1usize, 8, 30] {
            let left: Vec<String> = (0..copies)
                .flat_map(|c| teams().into_iter().map(move |t| format!("{t} {c}")))
                .collect();
            let right: Vec<String> = left
                .iter()
                .step_by(7)
                .map(|t| t.replace('o', "0"))
                .collect();
            let col = column(&left, &right);
            for factor in [0.25, 1.5] {
                let (out, spec) = block_against_spec(&col, left.len(), factor);
                if copies == 30 {
                    assert!(
                        2 * out.stats.scored_records < spec.stats.scored_records,
                        "verified {} of the spec's {} at |L| = {}",
                        out.stats.scored_records,
                        spec.stats.scored_records,
                        left.len()
                    );
                }
            }
        }
    }

    #[test]
    fn probes_whose_unwalked_grams_are_all_tail_grams_match_the_spec() {
        // 160 filler grams sit in four records of five, so they take every
        // head bit; the fifth record holds no head gram at all.  Probes made
        // of content grams only leave nothing but tail grams unwalked.
        const CONTENT: u32 = 48;
        const FILLER: u32 = 160;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move |n: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % u64::from(n)) as u32
        };
        // Content grams skew toward low ids, so their frequencies differ.
        let mut content_set = |len: usize| {
            let mut set: Vec<u32> = (0..len).map(|_| draw(CONTENT).min(draw(CONTENT))).collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        let sets: Vec<Vec<u32>> = (0..400)
            .map(|l| {
                let mut set = content_set(12);
                if l % 5 != 0 {
                    set.extend(CONTENT..CONTENT + FILLER);
                }
                set
            })
            .collect();
        let probes: Vec<Vec<u32>> = (0..60).map(|p| content_set(6 + p % 14)).collect();
        let index = GramIndex::from_id_sets(&sets, (CONTENT + FILLER) as usize);
        let head_from = index.head_from() as usize;
        assert!(probes
            .iter()
            .flatten()
            .all(|&g| (index.rank[g as usize] as usize) < head_from));
        let mut scratch = ProbeScratch::new(index.num_left());
        let mut spec = BlockingSpec::new(&sets);
        for k in [1usize, 4, 20, 60] {
            for probe in &probes {
                assert_eq!(
                    index.top_k(probe, k, None, &mut scratch),
                    spec.top_k(probe, k, None),
                    "k={k}, probe {probe:?}"
                );
            }
            for (l, probe) in sets.iter().enumerate().step_by(5) {
                let exclude = Some(l as u32);
                assert_eq!(
                    index.top_k(probe, k, exclude, &mut scratch),
                    spec.top_k(probe, k, exclude),
                    "k={k}, left {l}"
                );
            }
        }
    }

    #[test]
    fn a_scratch_sized_for_a_smaller_index_grows_to_fit() {
        let left = teams();
        let right = vec!["2003 LSU Tigres footbal".to_string()];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        assert_eq!(index.num_left(), 120);
        let tiny = GramIndex::from_id_sets(&left_sets[..2], num_grams);
        // One scratch made for no records at all, first used on a 2-row
        // index; the other made for the 120-row index.
        let mut grown = ProbeScratch::new(0);
        let mut fresh = ProbeScratch::new(index.num_left());
        let mut spec = BlockingSpec::new(&left_sets);
        assert_eq!(tiny.top_k(&right_sets[0], 5, None, &mut grown).len(), 2);
        grown.stats = ProbeStats::default();
        for k in [1usize, 11, 200] {
            for (l, probe) in left_sets.iter().enumerate() {
                let exclude = Some(l as u32);
                let want = index.top_k(probe, k, exclude, &mut fresh);
                assert_eq!(index.top_k(probe, k, exclude, &mut grown), want);
                assert_eq!(spec.top_k(probe, k, exclude), want);
            }
            let want = index.top_k(&right_sets[0], k, None, &mut fresh);
            assert_eq!(index.top_k(&right_sets[0], k, None, &mut grown), want);
        }
        assert_eq!(grown.stats.scored_records, fresh.stats.scored_records);
        assert_eq!(grown.stats.touched_records, fresh.stats.touched_records);
    }

    /// The idf of the gram owning each head bit, read bit by bit off the
    /// ranks (0 for bits no gram owns).
    fn head_idf_by_bit(index: &GramIndex) -> Vec<f64> {
        let n = index.num_grams();
        (0..HEAD_BITS)
            .map(|bit| {
                (0..n)
                    .find(|&g| index.rank[g] as usize + bit + 1 == n)
                    .map_or(0.0, |g| index.idf[g])
            })
            .collect()
    }

    #[test]
    fn head_table_sums_match_the_bitwise_head_sum() {
        let left = teams();
        let (left_sets, _, num_grams) = id_sets(&left, &[]);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        assert!(index.num_grams() > HEAD_BITS);
        let head_idf = head_idf_by_bit(&index);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut masks = vec![0u128, u128::MAX, 1, 1 << 127];
        masks.extend(index.head_masks.iter().take(40));
        // Dense, sparse (AND of draws) and record-like masks.
        for _ in 0..200 {
            let (a, b) = (
                u128::from(draw()) << 64 | u128::from(draw()),
                u128::from(draw()),
            );
            masks.extend([a, a & (b | b << 64), a & index.head_masks[b as usize % 120]]);
        }
        for mask in masks {
            let bitwise: f64 = (0..HEAD_BITS)
                .filter(|&b| (mask >> b) & 1 == 1)
                .map(|b| head_idf[b])
                .sum();
            let table = index.head_weight(mask);
            assert!(
                (table - bitwise).abs() <= bitwise * (FILTER_INFL - 1.0) + FILTER_SLACK,
                "mask {mask:#x}: table {table} against bitwise {bitwise}"
            );
        }
    }

    #[test]
    fn a_vocabulary_under_128_grams_leaves_unowned_bits_at_zero() {
        const GRAMS: usize = 40;
        let sets: Vec<Vec<u32>> = (0..90u32)
            .map(|l| {
                let mut set: Vec<u32> = (0..GRAMS as u32)
                    .filter(|g| (l * 7 + g * 3) % (g % 5 + 2) == 0)
                    .collect();
                set.push(l % GRAMS as u32);
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();
        let index = GramIndex::from_id_sets(&sets, GRAMS);
        assert_eq!(index.head_from(), 0);
        assert_eq!(index.head_weight(u128::MAX << GRAMS), 0.0);
        let head_idf = head_idf_by_bit(&index);
        assert!(head_idf[GRAMS..].iter().all(|&w| w == 0.0));
        let all: f64 = head_idf.iter().sum();
        let table = index.head_weight(u128::MAX);
        assert!((table - all).abs() <= all * (FILTER_INFL - 1.0) + FILTER_SLACK);
        let mut scratch = ProbeScratch::new(index.num_left());
        let mut spec = BlockingSpec::new(&sets);
        for k in [1usize, 3, 9, 90] {
            for (l, probe) in sets.iter().enumerate() {
                for exclude in [None, Some(l as u32)] {
                    assert_eq!(
                        index.top_k(probe, k, exclude, &mut scratch),
                        spec.top_k(probe, k, exclude),
                        "k={k}, left {l}, exclude {exclude:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn probes_touching_every_record_fill_the_spare_touched_slot() {
        // Every record holds grams 0 and 1, so each of those lists touches
        // all of them.  With k = |L| and the probe's own record excluded the
        // heap never fills, so both probes walk both lists: the second
        // list's writes land in the slot past the last record.
        let n = 30usize;
        let sets: Vec<Vec<u32>> = (0..n as u32).map(|l| vec![0, 1, 2 + l % 3]).collect();
        let index = GramIndex::from_id_sets(&sets, 5);
        let mut scratch = ProbeScratch::new(n);
        let mut spec = BlockingSpec::new(&sets);
        for probe in [0usize, 1] {
            let exclude = Some(probe as u32);
            let want = spec.top_k(&sets[probe], n, exclude);
            assert_eq!(want.len(), n - 1);
            assert_eq!(index.top_k(&sets[probe], n, exclude, &mut scratch), want);
            assert_eq!(scratch.touched_len, n);
            assert_eq!(scratch.touched.len(), n + 1);
        }
        // The spare slot was never counted and every sum was reset: a probe
        // of gram 2 then touches its ten records only.
        let want = spec.top_k(&[2], n, None);
        assert_eq!(index.top_k(&[2], n, None, &mut scratch), want);
        assert_eq!(scratch.touched_len, n / 3);
    }
}
