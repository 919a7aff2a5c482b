//! TF-IDF 3-gram inverted index and the top-k candidate selection.
//!
//! The index is fully *interned*: grams are `u32` ids over a shared
//! vocabulary, postings live in one contiguous CSR arena, and probes score
//! through a dense accumulator that is reset via its touched list (so not
//! even the reset walks the full table).  Top-k selection uses a bounded
//! min-heap of size `k` instead of sorting the whole scored set.  Parallel
//! probes process contiguous chunks with one scratch buffer per worker, so
//! the steady-state hot path allocates nothing beyond the candidate lists it
//! returns.
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
//!   mask and the rest (the tail).  A touched record the walk left
//!   unverified is verified only if `partial + weight(tail) + Σ idf over
//!   (probe head mask ∩ record mask)` can still reach the worst kept score.
//!   Frequent grams are what most records share, so this bound is far
//!   tighter than `partial + weight(unwalked)`; it is evaluated as the
//!   latter less the head grams the record lacks, largest first, so most
//!   pruned records stop after a few bits.
//! * **Gather-sum verification.**  Before the probe, its idf values are
//!   written into a per-scratch weight row indexed by gram id (zero
//!   elsewhere).  A record's exact score is that row summed over the
//!   record's ascending gram list (the CSR transpose).  Adding `+0.0` is
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
//! The dense walk is kept as a test oracle
//! ([`GramIndex::top_k_unfiltered`]); property tests (`tests/properties.rs`)
//! pin the two identical across tables, factors and thread counts.
//!
//! # Sharded builds
//!
//! [`GramIndex::from_id_sets`] partitions the reference table into
//! contiguous row shards, builds one sub-index per shard in parallel, and
//! merges them gram-major in shard order.  Record ids ascend within a shard
//! and shards cover contiguous ranges, so the merged CSR is byte-identical
//! to a sequential build — a 100k-row table never funnels through one giant
//! single-threaded accumulator pass.
//!
//! A deliberately simple string-path implementation is retained in
//! [`crate::reference`]; a property test pins that both paths produce
//! identical candidate lists on random tables at every thread count.

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
/// The CSR arrays are exposed (`from_parts` / part accessors) so the index
/// can be serialized into a snapshot and rebuilt without re-tokenizing the
/// reference table; the probe-side structures (frequency ranks, the CSR
/// transpose and the head-gram masks) are pure functions of the CSR
/// arrays and are re-derived on load, so a rebuilt index probes
/// byte-identically.  [`Self::top_k`] is the public probe entry point the
/// online query path shares with batch blocking.
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
    /// CSR transpose: `rec_grams[rec_offsets[l]..rec_offsets[l + 1]]` is the
    /// gram set of record `l`, ascending — what gather-sum verification
    /// walks.
    rec_offsets: Vec<u32>,
    rec_grams: Vec<u32>,
    /// Head-gram mask per record: bit `b` is set when the record holds the
    /// gram of rank `num_grams − 1 − b` (the `b`-th most frequent).
    head_masks: Vec<u128>,
    /// idf weight of the gram owning each head bit.
    head_idf: Vec<f64>,
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
    postings_scanned: u64,
    postings_total: u64,
}

impl ProbeStats {
    fn merge(&mut self, other: &ProbeStats) {
        self.kept_pairs += other.kept_pairs;
        self.per_probe_max = self.per_probe_max.max(other.per_probe_max);
        self.scored_records += other.scored_records;
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
    /// The records with a nonzero sum; resetting zeroes only these.
    touched: Vec<u32>,
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
    /// Scratch sized for an index over `num_left` reference records.
    pub fn new(num_left: usize) -> Self {
        Self {
            scores: vec![0.0; num_left],
            touched: Vec::new(),
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

    /// Start a new accumulation: zero the touched sums and clear the list.
    fn begin(&mut self) {
        for &li in &self.touched {
            self.scores[li as usize] = 0.0;
        }
        self.touched.clear();
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
    #[inline]
    fn accumulate(&mut self, li: u32, w: f64) -> f64 {
        let sum = &mut self.scores[li as usize];
        if *sum == 0.0 {
            self.touched.push(li);
        }
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

    /// Admit record `li` with its exact `score`: stamp it, count it, trace
    /// it, and offer it to the top-k heap.
    #[inline]
    fn admit(&mut self, li: u32, score: f64, k: usize, trace: &mut Option<&mut Vec<u32>>) {
        self.admit_epoch[li as usize] = self.admit_cur;
        self.stats.scored_records += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.push(li);
        }
        self.offer(HeapEntry { score, left: li }, k);
    }

    /// Offer an exactly scored record to the bounded top-k heap.
    #[inline]
    fn offer(&mut self, entry: HeapEntry, k: usize) {
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
/// prefix-sum segments, less at most 128 head weights, so their float
/// rounding error is ~`(m + 128) · 2⁻⁵²` of the probe's total weight (m =
/// probe gram count); inflating by 1e-9 makes a wrongly-pruned candidate
/// impossible while costing effectively no pruning power.
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

impl GramIndex {
    /// Rows per shard of the partitioned index build: small enough that a
    /// 100k-row table spreads across every worker, large enough that the
    /// per-shard vocabulary-sized count arrays stay negligible.
    const BUILD_SHARD_ROWS: usize = 16_384;

    /// Build the index from the sorted, deduplicated gram-id sets of the
    /// reference records.  `num_grams` is the size of the shared vocabulary;
    /// grams that never occur in a reference record get an empty postings
    /// range (probe grams hitting them contribute nothing).
    ///
    /// The build is sharded: contiguous row partitions become per-shard
    /// sub-indexes (in parallel), merged gram-major in shard order into a
    /// CSR byte-identical to a sequential build.
    pub fn from_id_sets<S: AsRef<[u32]> + Sync>(left_sets: &[S], num_grams: usize) -> Self {
        Self::from_id_sets_sharded(left_sets, num_grams, Self::BUILD_SHARD_ROWS)
    }

    /// [`Self::from_id_sets`] with an explicit shard size — exposed so tests
    /// can pin that any partitioning merges to the same index.
    #[doc(hidden)]
    pub fn from_id_sets_sharded<S: AsRef<[u32]> + Sync>(
        left_sets: &[S],
        num_grams: usize,
        shard_rows: usize,
    ) -> Self {
        let shard_rows = shard_rows.max(1);
        let starts: Vec<usize> = (0..left_sets.len()).step_by(shard_rows).collect();
        // Per-shard sub-index: gram counts plus a shard-local CSR holding
        // *global* record ids.
        let shards: Vec<(Vec<u32>, Vec<u32>, Vec<u32>)> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + shard_rows).min(left_sets.len());
                let mut counts = vec![0u32; num_grams];
                for set in &left_sets[start..end] {
                    for &g in set.as_ref() {
                        counts[g as usize] += 1;
                    }
                }
                let mut offs = Vec::with_capacity(num_grams + 1);
                let mut acc = 0u32;
                offs.push(0);
                for &c in &counts {
                    acc += c;
                    offs.push(acc);
                }
                let mut cursor: Vec<u32> = offs[..num_grams].to_vec();
                let mut postings = vec![0u32; acc as usize];
                for (local, set) in left_sets[start..end].iter().enumerate() {
                    for &g in set.as_ref() {
                        let slot = &mut cursor[g as usize];
                        postings[*slot as usize] = (start + local) as u32;
                        *slot += 1;
                    }
                }
                (counts, offs, postings)
            })
            .collect();
        // Deterministic merge: per-gram runs concatenate in shard order.
        // Record ids ascend within a shard and shards are contiguous record
        // ranges, so the merged postings equal a single-shard build's.
        let mut counts = vec![0u32; num_grams];
        for (shard_counts, _, _) in &shards {
            for (total, &c) in counts.iter_mut().zip(shard_counts) {
                *total += c;
            }
        }
        let mut offsets = Vec::with_capacity(num_grams + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut postings = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = offsets[..num_grams].to_vec();
        for (shard_counts, shard_offs, shard_posts) in &shards {
            for g in 0..num_grams {
                let c = shard_counts[g] as usize;
                if c == 0 {
                    continue;
                }
                let dst = cursor[g] as usize;
                let src = shard_offs[g] as usize;
                postings[dst..dst + c].copy_from_slice(&shard_posts[src..src + c]);
                cursor[g] += c as u32;
            }
        }
        let n = left_sets.len().max(1) as f64;
        let idf = counts
            .iter()
            .map(|&df| (1.0 + n / (1.0 + df as f64)).ln())
            .collect();
        Self::finalize(offsets, postings, idf, left_sets.len())
    }

    /// Rebuild an index from its serialized CSR parts (see the part
    /// accessors).  The result behaves exactly like the index the parts came
    /// from — the probe-side structures are pure functions of the CSR arrays
    /// and are re-derived here.
    ///
    /// # Panics
    /// Panics if the parts are mutually inconsistent (offset table shape,
    /// posting count, or a posting out of `num_left` range) or an idf weight
    /// is not positive and finite.
    pub fn from_parts(
        offsets: Vec<u32>,
        postings: Vec<u32>,
        idf: Vec<f64>,
        num_left: usize,
    ) -> Self {
        assert!(
            !offsets.is_empty() && offsets.len() == idf.len() + 1,
            "offset table must have one entry per gram plus a terminator"
        );
        assert_eq!(offsets[0], 0, "offset table must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offset table must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            postings.len(),
            "offset terminator must equal the posting count"
        );
        assert!(
            postings.iter().all(|&li| (li as usize) < num_left.max(1)),
            "postings must index into the reference table"
        );
        assert!(
            idf.iter().all(|w| w.is_finite() && *w > 0.0),
            "idf weights must be positive and finite"
        );
        Self::finalize(offsets, postings, idf, num_left)
    }

    /// Derive the probe-side structures (frequency ranks, CSR transpose,
    /// head-gram masks) from a finished CSR.  Everything here is a
    /// deterministic function of the inputs, so an index rebuilt from
    /// serialized parts probes identically to the one that was serialized.
    fn finalize(offsets: Vec<u32>, postings: Vec<u32>, idf: Vec<f64>, num_left: usize) -> Self {
        let num_grams = idf.len();
        // Global frequency order — the PPJoin token ordering on gram ids:
        // rarest first, ties toward the lower id.  df is read straight off
        // the offset table.
        let mut by_rarity: Vec<u32> = (0..num_grams as u32).collect();
        by_rarity.sort_unstable_by_key(|&g| (offsets[g as usize + 1] - offsets[g as usize], g));
        let mut rank = vec![0u32; num_grams];
        for (r, &g) in by_rarity.iter().enumerate() {
            rank[g as usize] = r as u32;
        }

        // CSR transpose: per-record gram lists, ascending (grams are visited
        // in ascending id order and postings ascend within a gram).
        let mut lengths = vec![0u32; num_left];
        for &li in &postings {
            lengths[li as usize] += 1;
        }
        let mut rec_offsets = Vec::with_capacity(num_left + 1);
        let mut acc = 0u32;
        rec_offsets.push(0);
        for &c in &lengths {
            acc += c;
            rec_offsets.push(acc);
        }
        let mut rec_grams = vec![0u32; postings.len()];
        let mut cursor: Vec<u32> = rec_offsets[..num_left].to_vec();
        for g in 0..num_grams {
            for &li in &postings[offsets[g] as usize..offsets[g + 1] as usize] {
                let slot = &mut cursor[li as usize];
                rec_grams[*slot as usize] = g as u32;
                *slot += 1;
            }
        }

        // Head masks: the `HEAD_BITS` top ranks own one bit each, the most
        // frequent gram bit 0.
        let head = num_grams.min(HEAD_BITS);
        let mut head_masks = vec![0u128; num_left];
        let mut head_idf = Vec::with_capacity(head);
        for (bit, &g) in by_rarity.iter().rev().take(head).enumerate() {
            head_idf.push(idf[g as usize]);
            for &li in &postings[offsets[g as usize] as usize..offsets[g as usize + 1] as usize] {
                head_masks[li as usize] |= 1u128 << bit;
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
            head_idf,
        }
    }

    /// CSR offsets: `postings_of(g) = postings[offsets[g]..offsets[g + 1]]`.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat postings arena.
    pub fn postings(&self) -> &[u32] {
        &self.postings
    }

    /// Reference-side idf weight per gram id.
    pub fn idf(&self) -> &[f64] {
        &self.idf
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
    /// what the dense walk returns, at every table size.
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
        self.top_k_impl(probe, k, exclude, scratch, &mut None)
    }

    /// [`Self::top_k`] that additionally records, into `scored`, every
    /// record the probe verified exactly — the candidate superset property
    /// tests pin against the dense top-k.
    #[doc(hidden)]
    pub fn top_k_traced(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
        scored: &mut Vec<u32>,
    ) -> Vec<usize> {
        scored.clear();
        self.top_k_impl(probe, k, exclude, scratch, &mut Some(scored))
    }

    fn top_k_impl(
        &self,
        probe: &[u32],
        k: usize,
        exclude: Option<u32>,
        scratch: &mut ProbeScratch,
        trace: &mut Option<&mut Vec<u32>>,
    ) -> Vec<usize> {
        let k = k.min(self.num_left);
        if k == 0 {
            return Vec::new();
        }

        // Rank-order the known probe grams (rarest first), prefix-sum their
        // weights and write them into the gather-sum row.  Grams with empty
        // postings contribute nothing and would only loosen the bounds, so
        // they are dropped exactly like out-of-vocabulary ids.
        if scratch.weights.len() < self.idf.len() {
            scratch.weights.resize(self.idf.len(), 0.0);
        }
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
            self.walk(scratch, i, k, trace);
            i += 1;
            if scratch.heap.len() == k {
                let worst = scratch.heap.peek().expect("heap is full").score;
                while e > i && !bound_reaches(scratch.psum[m] - scratch.psum[e - 1], worst) {
                    e -= 1;
                }
            }
        }

        // Bound every touched record the walk left unverified by its partial
        // plus what the unwalked grams `ord[i..]` can add: the whole weight
        // `rest`, less the head grams the record does not hold.  Such a
        // record was touched after the heap filled, so the heap is full.
        let rest = scratch.psum[m] - scratch.psum[i];
        let head_from = (self.idf.len() - self.head_idf.len()) as u32;
        let head_mask = scratch.ord[i..]
            .iter()
            .filter(|&&(rank, _)| rank >= head_from)
            .fold(0u128, |mask, &(rank, _)| {
                mask | 1 << (self.idf.len() as u32 - 1 - rank)
            });
        for j in 0..scratch.touched.len() {
            let li = scratch.touched[j];
            if scratch.admitted(li) {
                continue;
            }
            let worst = scratch.heap.peek().expect("heap is full").score;
            let bound = scratch.scores[li as usize] + rest;
            let missing = head_mask & !self.head_masks[li as usize];
            if self.head_bound_reaches(bound, missing, worst) {
                let score = self.gather_score(li, &scratch.weights);
                scratch.admit(li, score, k, trace);
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
    fn walk(
        &self,
        scratch: &mut ProbeScratch,
        i: usize,
        k: usize,
        trace: &mut Option<&mut Vec<u32>>,
    ) {
        let g = scratch.ord[i].1;
        let posts = self.postings_of(g);
        let w = self.idf[g as usize];
        scratch.stats.postings_scanned += posts.len() as u64;
        let mut worst = scratch.admit_threshold(k);
        for &li in posts {
            if scratch.accumulate(li, w) >= worst && !scratch.admitted(li) {
                let score = self.gather_score(li, &scratch.weights);
                scratch.admit(li, score, k, trace);
                worst = scratch.admit_threshold(k);
            }
        }
    }

    /// Whether a record whose bound over every unwalked gram is `bound`
    /// could still reach `worst` once the head grams in `missing` (those it
    /// does not hold) are taken off.  The largest weights go first, so a
    /// record that falls short usually does so after a few bits.
    #[inline]
    fn head_bound_reaches(&self, mut bound: f64, mut missing: u128, worst: f64) -> bool {
        while missing != 0 && bound_reaches(bound, worst) {
            let bit = 127 - missing.leading_zeros();
            bound -= self.head_idf[bit as usize];
            missing ^= 1 << bit;
        }
        bound_reaches(bound, worst)
    }
    /// The dense walk: the full postings of every probe gram in ascending id
    /// order, dense-accumulated, the touched set bounded-heaped.  Kept only
    /// as the executable specification of [`Self::top_k`], which property
    /// tests pin identical to it.
    #[doc(hidden)]
    pub fn top_k_unfiltered(
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
        scratch.begin();
        for &g in probe {
            if (g as usize) < self.idf.len() {
                let posts = self.postings_of(g);
                scratch.stats.postings_scanned += posts.len() as u64;
                scratch.stats.postings_total += posts.len() as u64;
                for &li in posts {
                    scratch.accumulate(li, self.idf[g as usize]);
                }
            }
        }
        scratch.heap.clear();
        for i in 0..scratch.touched.len() {
            let li = scratch.touched[i];
            if exclude != Some(li) {
                scratch.stats.scored_records += 1;
                let score = scratch.scores[li as usize];
                scratch.offer(HeapEntry { score, left: li }, k);
            }
        }
        self.drain_top_k(scratch)
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
fn probe_chunks<S: AsRef<[u32]> + Sync>(
    index: &GramIndex,
    probes: &[S],
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
                .map(|i| index.top_k(probes[i].as_ref(), k, exclude(i), &mut scratch))
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
    /// Uses the `(lower-case, 3-gram)` scheme of the column.  Reference
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
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let sets: Vec<&[u32]> = (0..col.len())
            .map(|i| col.record(i).token_sets[si].as_slice())
            .collect();
        let num_grams = col.vocab(Preprocessing::Lower, Tokenization::Gram3).len();
        self.block_id_sets(&sets[..num_left], &sets[num_left..], num_grams)
    }

    /// Run blocking directly over interned gram-id sets (each sorted and
    /// deduplicated, ids `< num_grams`).  [`Self::block_prepared`] delegates
    /// here; the property tests drive it directly.
    pub fn block_id_sets<S1: AsRef<[u32]> + Sync, S2: AsRef<[u32]> + Sync>(
        &self,
        left_sets: &[S1],
        right_sets: &[S2],
        num_grams: usize,
    ) -> BlockingOutput {
        let index = GramIndex::from_id_sets(left_sets, num_grams);
        let k = self.candidates_per_record(left_sets.len());
        let (left_candidates_of_right, lr) = probe_chunks(&index, right_sets, k, |_| None);
        let (left_candidates_of_left, ll) = probe_chunks(&index, left_sets, k, |i| Some(i as u32));
        let stats = BlockingStats {
            lr_pairs: lr.kept_pairs,
            ll_pairs: ll.kept_pairs,
            per_probe_max: lr.per_probe_max.max(ll.per_probe_max),
            scored_records: lr.scored_records + ll.scored_records,
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

    /// The lower-case 3-gram id sets `block_prepared` reads (interned
    /// left-first), for tests that drive `GramIndex` directly.
    fn id_sets(left: &[String], right: &[String]) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, usize) {
        let all: Vec<&str> = left.iter().chain(right).map(String::as_str).collect();
        let col = PreparedColumn::build(&all);
        let si = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let mut left_sets: Vec<Vec<u32>> = col
            .records()
            .iter()
            .map(|rec| rec.token_sets[si].clone())
            .collect();
        let right_sets = left_sets.split_off(left.len());
        (left_sets, right_sets, col.vocab_by_scheme(si).len())
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
    fn index_round_trips_through_parts() {
        let sets: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![1, 3], vec![0, 3, 4]];
        let index = GramIndex::from_id_sets(&sets, 5);
        let rebuilt = GramIndex::from_parts(
            index.offsets().to_vec(),
            index.postings().to_vec(),
            index.idf().to_vec(),
            index.num_left(),
        );
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(rebuilt.num_left());
        for probe in &sets {
            assert_eq!(
                index.top_k(probe, 2, None, &mut a),
                rebuilt.top_k(probe, 2, None, &mut b)
            );
        }
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
    #[should_panic(expected = "offset terminator")]
    fn inconsistent_parts_are_rejected() {
        let _ = GramIndex::from_parts(vec![0, 2], vec![0], vec![1.0], 1);
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
    fn filtered_probe_matches_unfiltered_probe() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
            "Alabama".to_string(),
            "totally unrelated".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(index.num_left());
        for k in [1usize, 3, 10, 200] {
            for probe in right_sets.iter().chain(left_sets.iter()) {
                assert_eq!(
                    index.top_k(probe, k, None, &mut a),
                    index.top_k_unfiltered(probe, k, None, &mut b),
                    "k={k}"
                );
            }
            for (i, probe) in left_sets.iter().enumerate() {
                assert_eq!(
                    index.top_k(probe, k, Some(i as u32), &mut a),
                    index.top_k_unfiltered(probe, k, Some(i as u32), &mut b),
                    "k={k}, exclude={i}"
                );
            }
        }
    }

    /// Pin every L–R and L–L candidate list of `out` to the per-probe
    /// dense-walk oracle, and return the oracle's counters.
    fn assert_matches_dense_oracle(
        out: &BlockingOutput,
        left_sets: &[Vec<u32>],
        right_sets: &[Vec<u32>],
        num_grams: usize,
    ) -> ProbeStats {
        let index = GramIndex::from_id_sets(left_sets, num_grams);
        let k = out.candidates_per_record;
        let mut scratch = ProbeScratch::new(index.num_left());
        for (r, probe) in right_sets.iter().enumerate() {
            let oracle = index.top_k_unfiltered(probe, k, None, &mut scratch);
            assert_eq!(out.left_candidates_of_right[r], oracle, "k={k}, right {r}");
        }
        for (l, probe) in left_sets.iter().enumerate() {
            let oracle = index.top_k_unfiltered(probe, k, Some(l as u32), &mut scratch);
            assert_eq!(out.left_candidates_of_left[l], oracle, "k={k}, left {l}");
        }
        scratch.stats
    }

    #[test]
    fn blocker_matches_dense_oracle_across_factors_and_threads() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "Alabama Crimson".to_string(),
            "2015 Wisconsin Badgers football team".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        for threads in [1usize, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .expect("configure shim pool");
            for factor in [0.2, 0.8, 1.5, 3.0, 20.0] {
                let out =
                    Blocker::with_factor(factor).block_id_sets(&left_sets, &right_sets, num_grams);
                assert_matches_dense_oracle(&out, &left_sets, &right_sets, num_grams);
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
    }

    #[test]
    fn sharded_build_matches_single_shard_build() {
        let left = teams();
        let (left_sets, _, num_grams) = id_sets(&left, &[]);
        let whole = GramIndex::from_id_sets_sharded(&left_sets, num_grams, usize::MAX);
        for shard_rows in [1usize, 2, 7, 64] {
            let sharded = GramIndex::from_id_sets_sharded(&left_sets, num_grams, shard_rows);
            assert_eq!(whole.offsets(), sharded.offsets(), "shard={shard_rows}");
            assert_eq!(whole.postings(), sharded.postings(), "shard={shard_rows}");
            assert_eq!(whole.idf(), sharded.idf(), "shard={shard_rows}");
        }
    }

    #[test]
    fn traced_scored_set_covers_unfiltered_top_k() {
        let left = teams();
        let right = vec![
            "2003 LSU Tigres footbal".to_string(),
            "2015 Wisconsin Badgers".to_string(),
        ];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(index.num_left());
        let mut scored = Vec::new();
        for probe in &right_sets {
            for k in [1usize, 5, 20] {
                let kept = index.top_k_traced(probe, k, None, &mut a, &mut scored);
                let unfiltered = index.top_k_unfiltered(probe, k, None, &mut b);
                assert_eq!(kept, unfiltered);
                for &li in &unfiltered {
                    assert!(
                        scored.contains(&(li as u32)),
                        "top-k candidate {li} was never admitted for scoring"
                    );
                }
            }
        }
    }

    #[test]
    fn blocking_stats_are_recorded_and_sane() {
        let left = teams();
        let right = vec![left[5].clone(), "2003 LSU Tigres footbal".to_string()];
        let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
        let out = Blocker::new().block_id_sets(&left_sets, &right_sets, num_grams);
        let oracle = assert_matches_dense_oracle(&out, &left_sets, &right_sets, num_grams);
        let s = &out.stats;
        assert_eq!(s.lr_pairs as usize, out.num_lr_pairs());
        assert_eq!(s.ll_pairs as usize, out.num_ll_pairs());
        assert_eq!(s.lr_pairs + s.ll_pairs, oracle.kept_pairs);
        assert_eq!(s.per_probe_max, oracle.per_probe_max);
        assert!(s.per_probe_max as usize <= out.candidates_per_record);
        // Verified records are a subset of what the dense walk scores, and a
        // superset of what is kept; the dense walk reads every posting.
        assert!(s.scored_records >= s.lr_pairs + s.ll_pairs);
        assert!(s.scored_records <= oracle.scored_records);
        assert_eq!(s.postings_total, oracle.postings_total);
        assert_eq!(oracle.postings_scanned, oracle.postings_total);
        // Each list is walked at most once.
        assert!(s.postings_scanned <= s.postings_total);
        assert!((0.0..=1.0).contains(&s.reduction_ratio()));
    }

    #[test]
    fn one_probe_path_at_every_table_size() {
        // From a handful of records (every list essential, heap never full)
        // to thousands (k ≪ |L|, most lists non-essential): one probe, equal
        // to the dense walk, and verifying fewer records than it scores
        // once the table is large.
        for copies in [1usize, 8, 30] {
            let left: Vec<String> = (0..copies)
                .flat_map(|c| teams().into_iter().map(move |t| format!("{t} {c}")))
                .collect();
            let right: Vec<String> = left
                .iter()
                .step_by(7)
                .map(|t| t.replace('o', "0"))
                .collect();
            let (left_sets, right_sets, num_grams) = id_sets(&left, &right);
            for factor in [0.25, 1.5] {
                let out =
                    Blocker::with_factor(factor).block_id_sets(&left_sets, &right_sets, num_grams);
                let oracle = assert_matches_dense_oracle(&out, &left_sets, &right_sets, num_grams);
                if copies == 30 {
                    assert!(
                        2 * out.stats.scored_records < oracle.scored_records,
                        "verified {} of the dense walk's {} at |L| = {}",
                        out.stats.scored_records,
                        oracle.scored_records,
                        left.len()
                    );
                }
            }
        }
    }

    #[test]
    fn probes_whose_unwalked_grams_are_all_tail_grams_match_the_dense_walk() {
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
        let head_from = index.num_grams() - index.head_idf.len();
        assert!(probes
            .iter()
            .flatten()
            .all(|&g| (index.rank[g as usize] as usize) < head_from));
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(index.num_left());
        for k in [1usize, 4, 20, 60] {
            for probe in &probes {
                assert_eq!(
                    index.top_k(probe, k, None, &mut a),
                    index.top_k_unfiltered(probe, k, None, &mut b),
                    "k={k}, probe {probe:?}"
                );
            }
            for (l, probe) in sets.iter().enumerate().step_by(5) {
                let exclude = Some(l as u32);
                assert_eq!(
                    index.top_k(probe, k, exclude, &mut a),
                    index.top_k_unfiltered(probe, k, exclude, &mut b),
                    "k={k}, left {l}"
                );
            }
        }
    }

    #[test]
    fn rebuilt_index_probes_like_the_original_with_filters() {
        // from_parts must re-derive the probe structures: probe answers of
        // a rebuilt index match the original even where pruning kicks in.
        let left = teams();
        let (left_sets, _, num_grams) = id_sets(&left, &[]);
        let index = GramIndex::from_id_sets(&left_sets, num_grams);
        let rebuilt = GramIndex::from_parts(
            index.offsets().to_vec(),
            index.postings().to_vec(),
            index.idf().to_vec(),
            index.num_left(),
        );
        let mut a = ProbeScratch::new(index.num_left());
        let mut b = ProbeScratch::new(rebuilt.num_left());
        for (i, probe) in left_sets.iter().enumerate() {
            assert_eq!(
                index.top_k(probe, 7, Some(i as u32), &mut a),
                rebuilt.top_k(probe, 7, Some(i as u32), &mut b)
            );
        }
    }
}
