//! The frozen serving state of a learned join program, and its snapshot
//! (de)serialization.
//!
//! [`ServingState`] holds everything the online query path needs to answer a
//! fuzzy-join lookup **byte-identically** to the batch pipeline that learned
//! the program:
//!
//! * the [`PreparedColumn`] over `left ++ right`,
//! * the blocking [`GramIndex`] over the reference records and the
//!   per-probe candidate count `k`, frozen at learn time,
//! * the learned negative rules (when enabled),
//! * per selected join function, the sorted L–L "ball" distance rows that
//!   drive the per-pair precision estimate (Eq. 8/9), and
//! * the selected configurations in selection order.
//!
//! A ball row keeps only the distances its slot can ever count.  The ball
//! radius is `2θ` ([`BallMode::ConfigTheta`]) or `2d ≤ 2θ`
//! ([`BallMode::PairDistance`]), so a row is cut below the ball cutoff of its
//! slot's *reach* — the largest `2θ` over the slot's configurations — and
//! still counts exactly what the full row would at every radius a query can
//! ask.  One builder derives the rows for [`ServingState::from_artifacts`],
//! [`ServingState::from_program`] and [`ServingState::append_right`], with
//! one walk per kernel group bounded by the group's reach.  An append only
//! re-derives the rows of IDF-weighted functions: every other L–L distance
//! is a pure function of two reference records, which appends never touch.
//!
//! A query replays the exact batch pipeline for one record, through the
//! same per-record rules the batch code calls: blocking top-k → the
//! negative-rule filter, once per candidate → per kernel group of the
//! selected functions, the shared nearest fold
//! ([`autofj_text::KernelGroup::nearest_into`]: first-wins strict minimum in
//! candidate order) → threshold check → the pair precision
//! ([`autofj_core::estimate::ball_precision`]) → the §3.1 conflict rule
//! ([`autofj_core::greedy::offer`]) over configuration ordinals.  Every
//! floating-point comparison and fold happens in the same order and width
//! (`f32` distances, `f64` precisions) as the batch code, so serving a right
//! record returns the same bytes [`autofj_core::join_single_column`] put in
//! its [`JoinResult`].  The kernel-group plan is derived from the selected
//! functions once per state and is not persisted.
//!
//! A snapshot keeps what the learn decided: the selected configurations,
//! the negative rules, the ball rows, the blocked L–L candidate lists and the
//! quality estimates, plus the raw records.  What is a pure function of the
//! raw records is not stored: [`ServingState::load`] rebuilds the column
//! with [`PreparedColumn::build`] and the index with
//! [`GramIndex::over_column`], the constructors the learn itself runs.  The
//! column is byte-identical to the saved one, appended records included,
//! because `build(a)` followed by `append_records(b)` equals `build(a ++ b)`.

use crate::format::{
    put_f32, put_f32_slice, put_f64, put_str, put_u32, put_u32_slice, put_u64, Cursor, Snapshot,
    SnapshotWriter, StoreError, SEC_CONF, SEC_LLCAND, SEC_LLDIST, SEC_META, SEC_RAWS, SEC_RULES,
};
use autofj_block::{BlockingOutput, GramIndex, ProbeScratch};
use autofj_core::estimate::{ball_cutoff, ball_precision};
use autofj_core::greedy::{offer, Assigned, Offer};
use autofj_core::{
    candidate_stage, join_single_column_with_artifacts, AutoFjOptions, BallMode, Candidates,
    Config, InternedRuleSet, JoinProgram, JoinResult, PipelineArtifacts,
};
use autofj_text::kernel::{plan_kernel_groups, KernelGroup};
use autofj_text::prepared::scheme_index;
use autofj_text::{
    JoinFunction, JoinFunctionSpace, PreparedColumn, PreparedRecord, Preprocessing, TokenWeighting,
    Tokenization,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One selected configuration of the serving state: which distinct function
/// it evaluates and the distance threshold θ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Index into [`ServingState::functions`].
    pub slot: usize,
    /// Distance threshold θ (`f32`, exactly as the greedy search selected it).
    pub threshold: f32,
}

/// The answer for one query record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeMatch {
    /// Index of the matched reference record.
    pub left: usize,
    /// Distance under the winning configuration (widened from `f32` exactly
    /// like [`autofj_core::JoinedPair::distance`]).
    pub distance: f64,
    /// Per-pair precision estimate of the winning configuration.
    pub precision: f64,
    /// Ordinal of the winning configuration within the selected union.
    pub config_index: usize,
}

/// The JSON manifest section: everything enum-valued or integral (floats
/// live in the binary `CONF` section so their bits survive exactly).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotMeta {
    num_left: usize,
    num_right: usize,
    k: usize,
    use_negative_rules: bool,
    ball_pair_distance: bool,
    functions: Vec<JoinFunction>,
}

/// Per-query scratch: the blocking probe accumulator plus the per-group and
/// per-slot nearest-neighbour buffers.  One instance serves any number of queries against the state it
/// was sized for.
pub struct QueryScratch {
    probe: ProbeScratch,
    group_nearest: Vec<Option<(u32, f32)>>,
    slot_nearest: Vec<Option<(u32, f32)>>,
}

impl QueryScratch {
    /// Scratch sized for `state`.
    pub fn for_state(state: &ServingState) -> Self {
        let widest = state.groups.iter().map(|g| g.members.len()).max();
        Self {
            probe: ProbeScratch::new(state.index.num_left()),
            group_nearest: vec![None; widest.unwrap_or(0)],
            slot_nearest: vec![None; state.functions.len()],
        }
    }
}

/// A learned join program frozen for online serving.  See the module docs
/// for the replay contract.
#[derive(Debug, Clone)]
pub struct ServingState {
    column: PreparedColumn,
    num_left: usize,
    num_right: usize,
    /// Blocking candidates kept per probe, frozen at learn time.
    k: usize,
    /// Inverted 3-gram index over the reference records only: derived,
    /// never persisted.
    index: GramIndex,
    rules: Option<InternedRuleSet>,
    ball_pair_distance: bool,
    /// The distinct join functions of the selected union, in first-appearance
    /// order over the selected configurations.
    functions: Vec<JoinFunction>,
    /// [`plan_kernel_groups`] over `functions`: derived, never persisted.
    groups: Vec<KernelGroup>,
    configs: Vec<ServeConfig>,
    /// `ll_candidates[l]`: the blocked reference neighbours of reference
    /// record `l`, frozen at learn time (blocking only ever probes the
    /// reference side, which appends never touch).
    ll_candidates: Vec<Vec<usize>>,
    /// `ll_rows[slot][l]`: ascending L–L distances from reference record `l`
    /// to its blocked reference neighbours under `functions[slot]` — the ball
    /// neighbourhood the per-pair precision counts over — cut to the entries
    /// below the ball cutoff of the slot's reach (see the module docs).  The
    /// IDF-weighted slots are re-derived from `ll_candidates` on every append:
    /// IDF token weights cover the union of both tables, so growing the right
    /// table shifts their distances; all other slots carry over unchanged.
    ll_rows: Vec<Vec<Vec<f32>>>,
    estimated_precision: f64,
    estimated_recall: f64,
}

/// Deduplicate the selected configurations' functions in selection order and
/// map each configuration onto its slot.
fn dedup_functions(
    selected: impl Iterator<Item = (JoinFunction, f32)>,
) -> (Vec<JoinFunction>, Vec<ServeConfig>) {
    let mut functions: Vec<JoinFunction> = Vec::new();
    let mut configs = Vec::new();
    for (f, threshold) in selected {
        let slot = match functions.iter().position(|g| *g == f) {
            Some(slot) => slot,
            None => {
                functions.push(f);
                functions.len() - 1
            }
        };
        configs.push(ServeConfig { slot, threshold });
    }
    (functions, configs)
}

/// The largest ball radius any configuration of each slot can ask about:
/// `2θ` under [`BallMode::ConfigTheta`], and `2d ≤ 2θ` under
/// [`BallMode::PairDistance`] (a pair only joins when `d ≤ θ`), so the
/// maximum `2θ` over a slot's configurations bounds every query radius.
fn slot_reaches(num_slots: usize, configs: &[ServeConfig]) -> Vec<f64> {
    let mut reach = vec![f64::NEG_INFINITY; num_slots];
    for c in configs {
        reach[c.slot] = reach[c.slot].max(2.0 * c.threshold as f64);
    }
    reach
}

/// Whether a function's distances read the corpus-wide IDF weights — the
/// only L–L distances an append to the right table can move.
fn reads_idf(f: &JoinFunction) -> bool {
    f.weight == Some(TokenWeighting::Idf)
}

/// (Re-)derive `rows[slot]` for every slot that passes `refresh`, with one
/// walk per kernel group of the state's plan.
///
/// Each row is the estimator's per-left neighbourhood, walked by the same
/// [`KernelGroup::neighbourhood_into`] the estimator's oracle runs, extended
/// from "only lefts that are someone's nearest" to all lefts so novel
/// queries can land anywhere, and cut to the entries the slot's largest ball
/// can count: `d` is kept when `(d as f64) < ball_cutoff(reach)`.  Every
/// query radius is ≤ the reach and the ball count is a sorted prefix, so the
/// cut rows count exactly what the full rows count.  The group walk passes its reach as
/// the kernel bound: by the bound contract every kept distance is exact,
/// and a bounded stand-in above the bound is never kept.
fn fill_ball_rows(
    column: &PreparedColumn,
    groups: &[KernelGroup],
    configs: &[ServeConfig],
    ll_candidates: &[Vec<usize>],
    num_left: usize,
    rows: &mut [Vec<Vec<f32>>],
    refresh: impl Fn(usize) -> bool,
) {
    let reaches = slot_reaches(rows.len(), configs);
    for group in groups {
        if !group.members.iter().any(|&m| refresh(m)) {
            continue;
        }
        // A group may mix refreshed and kept slots (a scheme's walk serves
        // both weightings): a kept slot's cutoff admits nothing, and its row
        // is left as it is.
        let cutoffs: Vec<f64> = (group.members.iter())
            .map(|&m| {
                if refresh(m) {
                    ball_cutoff(reaches[m])
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        let reach = group
            .members
            .iter()
            .map(|&m| reaches[m])
            .fold(f64::NEG_INFINITY, f64::max);
        // Floored at ε (twice the zero-radius cutoff ε/2) so a kept entry's
        // exact distance is always within the bound: `f32` narrowing moves a
        // unit-range distance by far less than the ε margin of the cutoff.
        let bound = reach.max(2.0 * ball_cutoff(0.0));
        let mut per_left: Vec<Vec<Vec<f32>>> = (0..num_left)
            .into_par_iter()
            .with_min_len(16)
            .map(|l| {
                let mut member_rows = vec![Vec::new(); group.members.len()];
                let cands = ll_candidates.get(l).map_or(&[][..], Vec::as_slice);
                group.neighbourhood_into(
                    column,
                    column.record(l),
                    cands,
                    Some(bound),
                    &cutoffs,
                    &mut member_rows,
                );
                member_rows
            })
            .collect();
        for (i, &m) in group.members.iter().enumerate() {
            if refresh(m) {
                rows[m] = per_left
                    .iter_mut()
                    .map(|member_rows| std::mem::take(&mut member_rows[i]))
                    .collect();
            }
        }
    }
}

impl ServingState {
    /// Run the batch pipeline over `left`/`right` and freeze its learned
    /// state for serving.  Returns the state together with the batch
    /// [`JoinResult`] it will replay.
    pub fn learn(
        left: &[String],
        right: &[String],
        space: &JoinFunctionSpace,
        options: &AutoFjOptions,
    ) -> (Self, JoinResult) {
        let (result, artifacts) = join_single_column_with_artifacts(left, right, space, options);
        let state = match artifacts {
            Some(artifacts) => Self::from_artifacts(space, options, &result, artifacts),
            None => Self::from_program(
                left,
                right,
                &result.program,
                options,
                result.estimated_precision,
                result.estimated_recall,
            ),
        };
        (state, result)
    }

    /// Freeze the state out of a finished pipeline's artifacts — nothing is
    /// re-prepared or re-blocked.
    pub fn from_artifacts(
        space: &JoinFunctionSpace,
        options: &AutoFjOptions,
        result: &JoinResult,
        artifacts: PipelineArtifacts,
    ) -> Self {
        let PipelineArtifacts {
            oracle,
            blocking,
            rules,
            outcome,
        } = artifacts;
        let column = oracle.into_column();
        let num_left = column.len() - result.assignment.len();
        let selected = outcome
            .selected
            .iter()
            .map(|c| (space.functions()[c.function], c.threshold));
        let estimates = (result.estimated_precision, result.estimated_recall);
        Self::freeze(
            column, num_left, blocking, rules, options, selected, estimates,
        )
    }

    /// Build the state from scratch for an already-learned `program`: prepare
    /// the column, run the pipeline's candidate stage (blocking and
    /// negative-rule learning) on it, and derive the ball rows.  This is the
    /// reference construction the append-equivalence tests compare against —
    /// appending records to a live state must be indistinguishable from
    /// rebuilding on the concatenated table.
    pub fn from_program(
        left: &[String],
        right: &[String],
        program: &JoinProgram,
        options: &AutoFjOptions,
        estimated_precision: f64,
        estimated_recall: f64,
    ) -> Self {
        let all: Vec<&str> = left
            .iter()
            .map(String::as_str)
            .chain(right.iter().map(String::as_str))
            .collect();
        let column = PreparedColumn::build(&all);
        let num_left = left.len();
        let Candidates {
            blocking, rules, ..
        } = candidate_stage(&column, num_left, options);
        let selected = program
            .configs
            .iter()
            .map(|c| (c.function, c.threshold as f32));
        let estimates = (estimated_precision, estimated_recall);
        Self::freeze(
            column, num_left, blocking, rules, options, selected, estimates,
        )
    }

    /// Freeze a prepared column, its candidate stage and the selected
    /// `(function, θ)` configurations into a state: plan the kernel groups,
    /// derive the ball rows and index the reference records.
    fn freeze(
        column: PreparedColumn,
        num_left: usize,
        blocking: BlockingOutput,
        rules: Option<InternedRuleSet>,
        options: &AutoFjOptions,
        selected: impl Iterator<Item = (JoinFunction, f32)>,
        (estimated_precision, estimated_recall): (f64, f64),
    ) -> Self {
        let (functions, configs) = dedup_functions(selected);
        let groups = plan_kernel_groups(&functions);
        let ll_candidates = blocking.left_candidates_of_left;
        let mut ll_rows = vec![Vec::new(); functions.len()];
        fill_ball_rows(
            &column,
            &groups,
            &configs,
            &ll_candidates,
            num_left,
            &mut ll_rows,
            |_| true,
        );
        Self {
            index: GramIndex::over_column(&column, num_left),
            num_right: column.len() - num_left,
            column,
            num_left,
            k: blocking.candidates_per_record,
            rules,
            ball_pair_distance: options.ball_mode == BallMode::PairDistance,
            functions,
            groups,
            configs,
            ll_candidates,
            ll_rows,
            estimated_precision,
            estimated_recall,
        }
    }

    /// Number of reference records.
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of query records currently in the column (learn-time rights
    /// plus appended records).
    pub fn num_right(&self) -> usize {
        self.num_right
    }

    /// Blocking candidates kept per probe.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The distinct selected join functions.
    pub fn functions(&self) -> &[JoinFunction] {
        &self.functions
    }

    /// The selected configurations in selection order.
    pub fn configs(&self) -> &[ServeConfig] {
        &self.configs
    }

    /// Estimated precision of the learned program.
    pub fn estimated_precision(&self) -> f64 {
        self.estimated_precision
    }

    /// Estimated recall (expected true positives) of the learned program.
    pub fn estimated_recall(&self) -> f64 {
        self.estimated_recall
    }

    /// The raw string of reference record `l`.
    pub fn left_value(&self, l: usize) -> &str {
        &self.column.record(l).raw
    }

    /// The raw string of stored query record `r`.
    pub fn right_value(&self, r: usize) -> &str {
        &self.column.record(self.num_left + r).raw
    }

    /// Reconstruct the learned [`JoinProgram`] (same bytes as the batch
    /// result's program: thresholds widen from the selected `f32`s).
    pub fn program(&self) -> JoinProgram {
        JoinProgram {
            configs: self
                .configs
                .iter()
                .map(|c| Config::new(self.functions[c.slot], c.threshold as f64))
                .collect(),
            columns: vec!["value".to_string()],
            column_weights: vec![1.0],
        }
    }

    /// Append query records to the stored right table.  The reference-side
    /// structure — index, rules, candidate lists, `k` — is untouched: appends
    /// only grow the column (token ids are assigned exactly as a from-scratch
    /// build over the concatenated table would assign them).  The ball rows
    /// of IDF-weighted functions are re-derived, though: IDF token weights
    /// span the union of both tables, so the new records shift those L–L
    /// distances just as a rebuild on the concatenated table would.  Char,
    /// embedding and equal-weight rows depend on two reference records only
    /// and carry over unchanged, so the cost scales with the IDF slots, not
    /// with every selected function.
    pub fn append_right<S: AsRef<str> + Sync>(&mut self, records: &[S]) {
        if records.is_empty() {
            return;
        }
        self.column.append_records(records);
        self.num_right += records.len();
        fill_ball_rows(
            &self.column,
            &self.groups,
            &self.configs,
            &self.ll_candidates,
            self.num_left,
            &mut self.ll_rows,
            |slot| reads_idf(&self.functions[slot]),
        );
    }

    /// Answer one query record: the batch pipeline replayed for a single
    /// string.  `scratch` must come from [`QueryScratch::for_state`] on this
    /// state (or an identically-shaped one).
    pub fn query(&self, raw: &str, scratch: &mut QueryScratch) -> Option<ServeMatch> {
        let qrec = self.column.prepare_query(raw);
        self.query_prepared(&qrec, scratch)
    }

    /// The query path over an already-prepared record.
    fn query_prepared(
        &self,
        qrec: &PreparedRecord,
        scratch: &mut QueryScratch,
    ) -> Option<ServeMatch> {
        // Blocking: same index, same k, same candidate order as batch.
        let si_gram = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let mut candidates =
            self.index
                .top_k(&qrec.token_sets[si_gram], self.k, None, &mut scratch.probe);

        // Negative rules: keep the allowed candidates, preserving order.
        if let Some(rules) = &self.rules {
            let si_rules = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
            candidates.retain(|&l| {
                !rules.forbids(
                    &self.column.record(l).token_sets[si_rules],
                    &qrec.token_sets[si_rules],
                )
            });
        }

        // Per-slot nearest neighbour: one shared fold per kernel group.
        for group in &self.groups {
            let nearest = &mut scratch.group_nearest[..group.members.len()];
            group.nearest_into(&self.column, &candidates, qrec, nearest);
            for (&slot, &n) in group.members.iter().zip(nearest.iter()) {
                scratch.slot_nearest[slot] = n;
            }
        }

        // The per-record projection of `greedy::apply_candidate`: offer each
        // configuration's pair in selection order under the §3.1 rule.
        let mut assigned: Option<Assigned> = None;
        for (config_ordinal, cfg) in self.configs.iter().enumerate() {
            let Some((left, distance)) = scratch.slot_nearest[cfg.slot] else {
                continue;
            };
            // Batch inclusion test is `d <= θ`; `d` is finite here (the
            // nearest fold dropped non-finite distances), so the negation is
            // safe to write with `>`.
            if distance > cfg.threshold {
                continue;
            }
            let radius = if self.ball_pair_distance {
                2.0 * distance as f64
            } else {
                2.0 * cfg.threshold as f64
            };
            let precision = ball_precision(&self.ll_rows[cfg.slot][left as usize], radius);
            if offer(assigned.as_ref(), left, precision) != Offer::Keep {
                assigned = Some(Assigned {
                    left,
                    distance,
                    precision,
                    config_ordinal,
                });
            }
        }
        assigned.map(|a| ServeMatch {
            left: a.left as usize,
            distance: a.distance as f64,
            precision: a.precision,
            config_index: a.config_ordinal,
        })
    }

    /// Answer a batch of queries, chunked across the rayon pool with one
    /// scratch per chunk (deterministic: each query is independent and
    /// results are collected in input order).
    pub fn query_batch<S: AsRef<str> + Sync>(&self, raws: &[S]) -> Vec<Option<ServeMatch>> {
        let n = raws.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
        let starts: Vec<usize> = (0..n).step_by(chunk).collect();
        let per_chunk: Vec<Vec<Option<ServeMatch>>> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + chunk).min(n);
                let mut scratch = QueryScratch::for_state(self);
                (start..end)
                    .map(|i| self.query(raws[i].as_ref(), &mut scratch))
                    .collect()
            })
            .collect();
        per_chunk.into_iter().flatten().collect()
    }

    /// Replay every stored right record through the query path.
    pub fn join_all(&self) -> Vec<Option<ServeMatch>> {
        let raws: Vec<String> = (0..self.num_right)
            .map(|r| self.right_value(r).to_string())
            .collect();
        self.query_batch(&raws)
    }

    /// Serialize the state to a snapshot file at `path`.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let mut writer = SnapshotWriter::new();

        let meta = SnapshotMeta {
            num_left: self.num_left,
            num_right: self.num_right,
            k: self.k,
            use_negative_rules: self.rules.is_some(),
            ball_pair_distance: self.ball_pair_distance,
            functions: self.functions.clone(),
        };
        let meta_json = serde_json::to_string(&meta)
            .map_err(|e| StoreError::Corrupt(format!("manifest serialization failed: {e}")))?;
        writer.add_section(SEC_META, meta_json.into_bytes());

        let mut conf = Vec::new();
        put_f64(&mut conf, self.estimated_precision);
        put_f64(&mut conf, self.estimated_recall);
        put_u64(&mut conf, self.configs.len() as u64);
        for c in &self.configs {
            put_u64(&mut conf, c.slot as u64);
            put_f32(&mut conf, c.threshold);
        }
        writer.add_section(SEC_CONF, conf);

        let mut raws = Vec::new();
        put_u64(&mut raws, self.column.len() as u64);
        for i in 0..self.column.len() {
            put_str(&mut raws, &self.column.record(i).raw);
        }
        writer.add_section(SEC_RAWS, raws);

        let mut rules = Vec::new();
        match &self.rules {
            Some(set) => {
                put_u32(&mut rules, 1);
                let pairs = set.to_sorted_pairs();
                put_u64(&mut rules, pairs.len() as u64);
                for (a, b) in pairs {
                    put_u32(&mut rules, a);
                    put_u32(&mut rules, b);
                }
            }
            None => put_u32(&mut rules, 0),
        }
        writer.add_section(SEC_RULES, rules);

        let mut lldist = Vec::new();
        put_u64(&mut lldist, self.ll_rows.len() as u64);
        put_u64(&mut lldist, self.num_left as u64);
        for rows in &self.ll_rows {
            for row in rows {
                put_f32_slice(&mut lldist, row);
            }
        }
        writer.add_section(SEC_LLDIST, lldist);

        let mut llcand = Vec::new();
        put_u64(&mut llcand, self.ll_candidates.len() as u64);
        for cands in &self.ll_candidates {
            let ids: Vec<u32> = cands.iter().map(|&l| l as u32).collect();
            put_u32_slice(&mut llcand, &ids);
        }
        writer.add_section(SEC_LLCAND, llcand);

        writer.write_to(path)?;
        Ok(())
    }

    /// Load a state from a snapshot file.  The file is read once, and its
    /// header, section table and payload checksum are validated before any
    /// section is decoded; the column and the blocking index are then
    /// rebuilt from the raw records with the learn's own constructors (see
    /// the module docs).  A damaged or hostile file is a [`StoreError`],
    /// never a panic.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let snap = Snapshot::read(path)?;

        let meta: SnapshotMeta = serde_json::from_str(&snap.section(SEC_META)?.read_rest_str()?)
            .map_err(|e| StoreError::Corrupt(format!("bad manifest: {e}")))?;

        let (estimated_precision, estimated_recall, configs) = snap.decode(SEC_CONF, |cur| {
            let p = cur.read_f64()?;
            let r = cur.read_f64()?;
            let n = cur.read_len(12)?;
            let configs = (0..n)
                .map(|_| {
                    let slot = cur.read_u64()? as usize;
                    let threshold = cur.read_f32()?;
                    // `d > NaN` is false, so a NaN θ would join every
                    // nearest left, which the batch pipeline never does.
                    if slot >= meta.functions.len() || !threshold.is_finite() {
                        return Err(StoreError::Corrupt(format!(
                            "configuration (slot {slot}, threshold {threshold}) over {} functions",
                            meta.functions.len()
                        )));
                    }
                    Ok(ServeConfig { slot, threshold })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((p, r, configs))
        })?;

        let raws = snap.decode(SEC_RAWS, |cur| {
            let n = cur.read_len(8)?;
            (0..n)
                .map(|_| cur.read_str())
                .collect::<Result<Vec<_>, _>>()
        })?;
        if meta.num_left.checked_add(meta.num_right) != Some(raws.len()) {
            return Err(StoreError::Corrupt(format!(
                "{} raw records for {} left + {} right",
                raws.len(),
                meta.num_left,
                meta.num_right
            )));
        }

        let rules = snap.decode(SEC_RULES, |cur| {
            if cur.read_u32()? != 1 {
                return Ok(None);
            }
            let n = cur.read_len(8)?;
            let pairs = (0..n)
                .map(|_| Ok((cur.read_u32()?, cur.read_u32()?)))
                .collect::<Result<Vec<_>, StoreError>>()?;
            Ok(Some(InternedRuleSet::from_pairs(pairs)))
        })?;
        if rules.is_some() != meta.use_negative_rules {
            return Err(StoreError::Corrupt(
                "rule section disagrees with the manifest".to_string(),
            ));
        }

        let ll_rows = snap.decode(SEC_LLDIST, |cur| {
            let shape = (cur.read_u64()?, cur.read_u64()?);
            let expected = (meta.functions.len() as u64, meta.num_left as u64);
            if shape != expected {
                return Err(StoreError::Corrupt(format!(
                    "ball table shaped {shape:?}, expected {expected:?}"
                )));
            }
            let row = |cur: &mut Cursor<'_>| {
                let row = cur.read_vec(f32::from_le_bytes)?;
                // `ball_count_sorted` binary-searches the row: an unsorted
                // or non-finite row would miscount silently.
                if row.iter().all(|d| d.is_finite()) && row.is_sorted() {
                    Ok(row)
                } else {
                    Err(StoreError::Corrupt(
                        "ball row unsorted or non-finite".to_string(),
                    ))
                }
            };
            (0..meta.functions.len())
                .map(|_| (0..meta.num_left).map(|_| row(cur)).collect())
                .collect::<Result<Vec<_>, _>>()
        })?;

        let ll_candidates = snap.decode(SEC_LLCAND, |cur| {
            let lefts = cur.read_len(8)?;
            if lefts != meta.num_left {
                return Err(StoreError::Corrupt(format!(
                    "{lefts} candidate lists for {} reference records",
                    meta.num_left
                )));
            }
            (0..lefts)
                .map(|_| {
                    let ids = cur.read_vec(u32::from_le_bytes)?;
                    match ids.iter().find(|&&l| l as usize >= meta.num_left) {
                        Some(bad) => Err(StoreError::Corrupt(format!(
                            "candidate {bad} out of range for {} reference records",
                            meta.num_left
                        ))),
                        None => Ok(ids.into_iter().map(|l| l as usize).collect()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        // Every part is decoded into owned data: free the file bytes before
        // the column is prepared.
        drop(snap);

        let column = PreparedColumn::build(&raws);
        Ok(Self {
            index: GramIndex::over_column(&column, meta.num_left),
            column,
            num_left: meta.num_left,
            num_right: meta.num_right,
            k: meta.k,
            rules,
            ball_pair_distance: meta.ball_pair_distance,
            groups: plan_kernel_groups(&meta.functions),
            functions: meta.functions,
            configs,
            ll_candidates,
            ll_rows,
            estimated_precision,
            estimated_recall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Fnv64, HEADER_LEN, SECTION_ENTRY_LEN};
    use autofj_core::estimate::ball_count_sorted;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The specification of a ball row: the per-function, unbounded and
    /// uncut derivation (every finite `f32` distance to the left's blocked
    /// neighbours, sorted, for every left).  The served rows must equal its
    /// prefix below the ball cutoff of the slot's reach.
    fn spec_ball_rows(state: &ServingState) -> Vec<Vec<Vec<f32>>> {
        state
            .functions
            .iter()
            .map(|f| {
                (0..state.num_left)
                    .map(|l| {
                        let mut v: Vec<f32> = state
                            .ll_candidates
                            .get(l)
                            .map(|cands| {
                                cands
                                    .iter()
                                    .map(|&l2| f.distance(&state.column, l, l2) as f32)
                                    .filter(|d| d.is_finite())
                                    .collect()
                            })
                            .unwrap_or_default();
                        v.sort_unstable_by(|a, b| {
                            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                        });
                        v
                    })
                    .collect()
            })
            .collect()
    }

    /// The specification of a query: every selected function on its own
    /// through `distance_between`, the negative rules checked per function
    /// and candidate, and the nearest, precision and conflict folds written
    /// out in place.  [`ServingState::query`] must equal it bit for bit.
    fn spec_query(state: &ServingState, raw: &str) -> Option<ServeMatch> {
        let qrec = state.column.prepare_query(raw);
        let si_gram = scheme_index(Preprocessing::Lower, Tokenization::Gram3);
        let mut probe = ProbeScratch::new(state.index.num_left());
        let candidates = state
            .index
            .top_k(&qrec.token_sets[si_gram], state.k, None, &mut probe);
        let si_rules = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
        let passes = |l: usize| match &state.rules {
            Some(rules) => !rules.forbids(
                &state.column.record(l).token_sets[si_rules],
                &qrec.token_sets[si_rules],
            ),
            None => true,
        };
        let slot_nearest: Vec<Option<(u32, f32)>> = state
            .functions
            .iter()
            .map(|f| {
                let mut best: Option<(u32, f32)> = None;
                for &l in &candidates {
                    if !passes(l) {
                        continue;
                    }
                    let d = f.distance_between(&state.column, state.column.record(l), &qrec) as f32;
                    if !d.is_finite() {
                        continue;
                    }
                    match best {
                        Some((_, bd)) if d >= bd => {}
                        _ => best = Some((l as u32, d)),
                    }
                }
                best
            })
            .collect();
        let mut assigned: Option<(u32, f32, f64, usize)> = None;
        for (ordinal, cfg) in state.configs.iter().enumerate() {
            let Some((l, d)) = slot_nearest[cfg.slot] else {
                continue;
            };
            if d > cfg.threshold {
                continue;
            }
            let radius = if state.ball_pair_distance {
                2.0 * d as f64
            } else {
                2.0 * cfg.threshold as f64
            };
            let neighbours = ball_count_sorted(&state.ll_rows[cfg.slot][l as usize], radius);
            let p = 1.0 / (1.0 + neighbours as f64);
            match &assigned {
                None => assigned = Some((l, d, p, ordinal)),
                Some((al, _, _, _)) if *al == l => {}
                Some((_, _, ap, _)) => {
                    if p > *ap {
                        assigned = Some((l, d, p, ordinal));
                    }
                }
            }
        }
        assigned.map(|(l, d, p, ordinal)| ServeMatch {
            left: l as usize,
            distance: d as f64,
            precision: p,
            config_index: ordinal,
        })
    }

    /// The rows as bit patterns, for exact comparison.
    fn row_bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        rows.iter()
            .map(|row| row.iter().map(|d| d.to_bits()).collect())
            .collect()
    }

    /// Check `state`'s ball rows against the spec: every row is the spec
    /// row's prefix below `ball_cutoff(reach)`, and ball counts agree at
    /// every radius a configuration can ask — `2θ`, and `2d` for `d ≤ θ`
    /// (probed at 0, θ, and around every half spec distance, where a count
    /// can change).
    fn check_rows_against_spec(state: &ServingState) -> Result<(), TestCaseError> {
        let spec = spec_ball_rows(state);
        let reaches = slot_reaches(state.functions.len(), &state.configs);
        for (slot, (rows, full_rows)) in state.ll_rows.iter().zip(&spec).enumerate() {
            let cutoff = ball_cutoff(reaches[slot]);
            for (l, (row, full)) in rows.iter().zip(full_rows).enumerate() {
                let prefix = &full[..full.partition_point(|&d| (d as f64) < cutoff)];
                prop_assert!(
                    row.as_slice() == prefix,
                    "slot {slot} left {l}: {row:?} is not the prefix of {full:?}"
                );
            }
        }
        for cfg in &state.configs {
            let rows = state.ll_rows[cfg.slot].iter().zip(&spec[cfg.slot]);
            for (l, (row, full)) in rows.enumerate() {
                let theta = cfg.threshold;
                let mut ds = vec![0.0f32, theta];
                for &e in full {
                    let h = e / 2.0;
                    ds.extend([
                        h,
                        f32::from_bits(h.to_bits().saturating_sub(1)),
                        h.next_up(),
                    ]);
                }
                let radii = ds
                    .into_iter()
                    .filter(|d| (0.0..=theta).contains(d))
                    .map(|d| 2.0 * d as f64)
                    .chain([2.0 * theta as f64]);
                for radius in radii {
                    let (got, want) = (
                        ball_count_sorted(row, radius),
                        ball_count_sorted(full, radius),
                    );
                    prop_assert!(
                        got == want,
                        "slot {} left {l} radius {radius}: {got} != {want}",
                        cfg.slot
                    );
                }
            }
        }
        Ok(())
    }

    /// A program with one configuration per function of `space`, at
    /// `thresholds` in function order.
    fn whole_space_program(space: &JoinFunctionSpace, thresholds: &[f32]) -> JoinProgram {
        JoinProgram {
            configs: space
                .functions()
                .iter()
                .zip(thresholds)
                .map(|(&f, &t)| Config::new(f, t as f64))
                .collect(),
            columns: vec!["value".to_string()],
            column_weights: vec![1.0],
        }
    }

    /// Strategy: team-season strings from a small vocabulary, so reference
    /// records have neighbours at many distances.
    fn team_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex(concat!(
            "20(0[4-9]|1[01]) (LSU|Oregon|Alabama|Wisconsin) (Tigers|Ducks|Badgers|Tide)",
            "( football| baseball| footbal)?( team| \\(NCAA\\))?",
        ))
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Learned programs in both ball modes, plus a random program over
        /// the whole space: the cut rows count exactly like the spec rows.
        #[test]
        fn cut_ball_rows_count_like_the_full_rows(
            left in proptest::collection::vec(team_strategy(), 1..24),
            right in proptest::collection::vec(team_strategy(), 1..12),
            thresholds in proptest::collection::vec(0.0f32..0.8, 24..25),
        ) {
            let space = JoinFunctionSpace::reduced24();
            for ball_mode in [BallMode::ConfigTheta, BallMode::PairDistance] {
                let options = AutoFjOptions {
                    ball_mode,
                    ..AutoFjOptions::default()
                };
                let (state, _) = ServingState::learn(&left, &right, &space, &options);
                check_rows_against_spec(&state)?;
            }
            let program = whole_space_program(&space, &thresholds);
            let state = ServingState::from_program(
                &left,
                &right,
                &program,
                &AutoFjOptions::default(),
                0.0,
                0.0,
            );
            check_rows_against_spec(&state)?;
        }
    }

    /// Strategy: team-season strings over so few words that many reference
    /// records differ by one word, so the tables learn negative rules.
    fn dense_team_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex("200[4-7] (LSU|Oregon) (Tigers|Ducks)( football| baseball)?")
            .unwrap()
    }

    /// Strategy: query strings over the dense team words plus words the
    /// tables never hold (later years, other schools and sports), so some
    /// queries hit the learned rules and others carry token ids from
    /// `prepare_query` past the vocabulary.
    fn novel_query_strategy() -> impl Strategy<Value = String> {
        proptest::string::string_regex(concat!(
            "20(0[4-7]|1[2-9]) (LSU|Oregon|Auburn) (Tigers|Ducks|Owls)",
            "( football| baseball| hockey)?( team)?",
        ))
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The kernel-group query path equals the per-function spec, field
        /// for field and bit for bit: learned programs and a program over
        /// the whole space, in both ball modes, with rules on and off.
        #[test]
        fn query_equals_the_per_function_spec(
            left in proptest::collection::vec(dense_team_strategy(), 1..24),
            right in proptest::collection::vec(dense_team_strategy(), 1..12),
            queries in proptest::collection::vec(novel_query_strategy(), 1..12),
            thresholds in proptest::collection::vec(0.0f32..0.8, 24..25),
        ) {
            let space = JoinFunctionSpace::reduced24();
            let program = whole_space_program(&space, &thresholds);
            for ball_mode in [BallMode::ConfigTheta, BallMode::PairDistance] {
                for use_negative_rules in [true, false] {
                    let options = AutoFjOptions {
                        ball_mode,
                        use_negative_rules,
                        ..AutoFjOptions::default()
                    };
                    let (learned, _) = ServingState::learn(&left, &right, &space, &options);
                    let whole_space =
                        ServingState::from_program(&left, &right, &program, &options, 0.0, 0.0);
                    for state in [&learned, &whole_space] {
                        let mut scratch = QueryScratch::for_state(state);
                        for q in right.iter().chain(&queries) {
                            let (got, want) = (
                                matches_tuples(&[state.query(q, &mut scratch)]),
                                matches_tuples(&[spec_query(state, q)]),
                            );
                            prop_assert!(got == want, "query {q:?}: {got:?} != {want:?}");
                        }
                    }
                }
            }
        }
    }

    fn temp_path(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "autofj_store_snapshot_{}_{label}_{n}.afj",
            std::process::id()
        ))
    }

    fn left_table() -> Vec<String> {
        let mut v = Vec::new();
        for year in 2004..2012 {
            for team in [
                "LSU Tigers football team",
                "LSU Tigers baseball team",
                "Wisconsin Badgers football team",
                "Alabama Crimson Tide football team",
                "Oregon Ducks football team",
            ] {
                v.push(format!("{year} {team}"));
            }
        }
        v
    }

    fn right_table() -> Vec<String> {
        vec![
            "2005 LSU Tigers football".to_string(),
            "2007 Wisconsin Badgers futball team".to_string(),
            "2010 Oregon Ducks football team (NCAA)".to_string(),
            "the 2006 alabama crimson tide football team".to_string(),
            "totally unrelated string".to_string(),
        ]
    }

    fn learned() -> (ServingState, JoinResult) {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        ServingState::learn(&left_table(), &right_table(), &space, &options)
    }

    /// The batch pairs as (right, left, distance bits, precision bits,
    /// ordinal) tuples, for exact comparison.
    fn result_tuples(result: &JoinResult) -> Vec<(usize, usize, u64, u64, usize)> {
        result
            .pairs
            .iter()
            .map(|p| {
                (
                    p.right,
                    p.left,
                    p.distance.to_bits(),
                    p.estimated_precision.to_bits(),
                    p.config_index,
                )
            })
            .collect()
    }

    fn matches_tuples(matches: &[Option<ServeMatch>]) -> Vec<(usize, usize, u64, u64, usize)> {
        matches
            .iter()
            .enumerate()
            .filter_map(|(r, m)| {
                m.map(|m| {
                    (
                        r,
                        m.left,
                        m.distance.to_bits(),
                        m.precision.to_bits(),
                        m.config_index,
                    )
                })
            })
            .collect()
    }

    #[test]
    fn replay_of_stored_rights_equals_batch_result() {
        let (state, result) = learned();
        assert!(!result.pairs.is_empty(), "test task must join something");
        let replay = state.join_all();
        assert_eq!(matches_tuples(&replay), result_tuples(&result));
    }

    #[test]
    fn single_query_path_equals_batch_path() {
        let (state, result) = learned();
        let mut scratch = QueryScratch::for_state(&state);
        for (r, raw) in right_table().iter().enumerate() {
            let got = state.query(raw, &mut scratch);
            match (&got, &result.assignment[r]) {
                (None, None) => {}
                (Some(m), Some(l)) => assert_eq!(m.left, *l, "right {r}"),
                other => panic!("right {r}: {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_served_answers() {
        let (state, result) = learned();
        let path = temp_path("roundtrip");
        state.save(&path).unwrap();
        let loaded = ServingState::load(&path).unwrap();
        assert_eq!(loaded.num_left(), state.num_left());
        assert_eq!(loaded.num_right(), state.num_right());
        assert_eq!(loaded.k(), state.k());
        assert_eq!(loaded.functions(), state.functions());
        assert_eq!(loaded.configs(), state.configs());
        assert_eq!(
            loaded.estimated_precision().to_bits(),
            state.estimated_precision().to_bits()
        );
        let replay = loaded.join_all();
        assert_eq!(matches_tuples(&replay), result_tuples(&result));
        // The reconstructed program prints identically.
        assert_eq!(
            serde_json::to_string(&loaded.program()).unwrap(),
            serde_json::to_string(&result.program).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_program_matches_from_artifacts_answers() {
        let (state, result) = learned();
        let rebuilt = ServingState::from_program(
            &left_table(),
            &right_table(),
            &result.program,
            &AutoFjOptions::default(),
            result.estimated_precision,
            result.estimated_recall,
        );
        assert_eq!(rebuilt.k(), state.k());
        assert_eq!(rebuilt.functions(), state.functions());
        assert_eq!(rebuilt.configs(), state.configs());
        let a = state.join_all();
        let b = rebuilt.join_all();
        assert_eq!(matches_tuples(&a), matches_tuples(&b));
    }

    #[test]
    fn append_equals_rebuild_on_concatenated_table() {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let right = right_table();
        let (base, result) = ServingState::learn(&left_table(), &right[..2], &space, &options);
        let mut appended = base;
        appended.append_right(&right[2..4]);
        appended.append_right(&right[4..]);
        let rebuilt = ServingState::from_program(
            &left_table(),
            &right,
            &result.program,
            &options,
            result.estimated_precision,
            result.estimated_recall,
        );
        assert_eq!(appended.num_right(), rebuilt.num_right());
        assert_eq!(
            matches_tuples(&appended.join_all()),
            matches_tuples(&rebuilt.join_all())
        );
        // Appended records are served through the same path as stored ones.
        let mut scratch = QueryScratch::for_state(&appended);
        let direct = appended.query(&right[3], &mut scratch);
        let stored = appended.join_all()[3];
        assert_eq!(direct, stored);
    }

    #[test]
    fn batch_queries_match_sequential_queries() {
        let (state, _) = learned();
        let queries: Vec<String> = right_table()
            .into_iter()
            .chain(left_table().into_iter().take(10))
            .chain(["never seen before phrase".to_string()])
            .collect();
        let batch = state.query_batch(&queries);
        let mut scratch = QueryScratch::for_state(&state);
        let sequential: Vec<Option<ServeMatch>> = queries
            .iter()
            .map(|q| state.query(q, &mut scratch))
            .collect();
        assert_eq!(batch, sequential);
    }

    #[test]
    fn empty_tables_produce_a_loadable_state() {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let (state, result) = ServingState::learn(&[], &[], &space, &options);
        assert_eq!(result.pairs.len(), 0);
        let path = temp_path("empty");
        state.save(&path).unwrap();
        let loaded = ServingState::load(&path).unwrap();
        let mut scratch = QueryScratch::for_state(&loaded);
        assert_eq!(loaded.query("anything", &mut scratch), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let (state, _) = learned();
        let path = temp_path("corrupt");
        state.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ServingState::load(&path),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    fn le_u64(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// The byte range of section `tag` in a snapshot file.
    fn section_range(bytes: &[u8], tag: crate::format::SectionTag) -> std::ops::Range<usize> {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = (0..count)
            .map(|i| HEADER_LEN + i * SECTION_ENTRY_LEN)
            .find(|&at| bytes[at..at + 8] == tag)
            .expect("section present");
        let start = le_u64(bytes, entry + 8) as usize;
        start..start + le_u64(bytes, entry + 16) as usize
    }

    /// Re-seal the payload checksum after an edit, so only the decoder's
    /// own validation can catch it.
    fn reseal(bytes: &mut [u8]) {
        let mut hasher = Fnv64::new();
        hasher.update(&bytes[HEADER_LEN..]);
        bytes[24..32].copy_from_slice(&hasher.finish().to_le_bytes());
    }

    #[test]
    fn v1_sections_that_load_re_derives_are_never_read() {
        // A format-1 file also carries the vocabularies, the token sets and
        // the blocking index, which load now re-derives from the raw
        // records.  Garbage in those three bodies, under a resealed
        // checksum, must load and answer exactly like the untouched file.
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
        let fixture = fixtures.join("teams_v1.afj");
        let mut bytes = std::fs::read(&fixture).unwrap();
        for tag in [*b"VOCABS\0\0", *b"TOKSETS\0", *b"GRIDX\0\0\0"] {
            let range = section_range(&bytes, tag);
            assert!(!range.is_empty());
            bytes[range].fill(0xa5);
        }
        reseal(&mut bytes);
        let path = temp_path("v1_garbage");
        std::fs::write(&path, &bytes).unwrap();
        let garbled = ServingState::load(&path);
        std::fs::remove_file(&path).ok();
        let garbled = garbled.expect("the garbled v1 sections are never decoded");
        let original = ServingState::load(&fixture).unwrap();
        assert_eq!(garbled.join_all(), original.join_all());
        let queries: Vec<String> = std::fs::read_to_string(fixtures.join("teams_left.txt"))
            .unwrap()
            .lines()
            .map(String::from)
            .chain(["2009 LSU Tigers footbal".to_string(), "unseen words".into()])
            .collect();
        assert_eq!(
            garbled.query_batch(&queries),
            original.query_batch(&queries)
        );
    }

    /// The learned test state with full (uncut) ball rows — the shape older
    /// snapshots were written with.
    fn with_full_rows(state: &ServingState) -> ServingState {
        let mut full = state.clone();
        full.ll_rows = spec_ball_rows(state);
        full
    }

    #[test]
    fn unsorted_or_non_finite_ball_row_is_a_typed_error() {
        // `ball_count_sorted` binary-searches a row, so a row that is not
        // sorted or holds NaN/∞ would miscount silently; the loader must
        // refuse it even when the checksum holds.
        let (state, _) = learned();
        let state = with_full_rows(&state);
        let path = temp_path("bad_ball_row");
        state.save(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // The first row with two entries: section starts with the slot and
        // left counts, then every row as a length-prefixed f32 slice.
        let range = section_range(&clean, SEC_LLDIST);
        let mut at = range.start + 16;
        while le_u64(&clean, at) < 2 {
            at += 8 + 4 * le_u64(&clean, at) as usize;
            assert!(at < range.end, "no ball row with two entries");
        }
        let (first, second) = (at + 8, at + 12);
        let bigger = f32::from_le_bytes(clean[second..second + 4].try_into().unwrap()) + 1.0;
        for bad in [bigger, f32::NAN, f32::INFINITY] {
            let mut bytes = clean.clone();
            bytes[first..first + 4].copy_from_slice(&bad.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(ServingState::load(&path), Err(StoreError::Corrupt(_))),
                "row starting with {bad} was accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Save the learned test state, apply `edit` to the file bytes, re-seal
    /// the checksum and load the result.
    fn load_edited(label: &str, edit: impl Fn(&mut Vec<u8>)) -> Result<ServingState, StoreError> {
        let (state, _) = learned();
        let path = temp_path(label);
        state.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        edit(&mut bytes);
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = ServingState::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn hostile_config_count_is_a_typed_error() {
        // `CONF` holds the two quality numbers, then the configuration
        // count: a count no section could hold must not size an allocation.
        let loaded = load_edited("conf_count", |bytes| {
            let at = section_range(bytes, SEC_CONF).start + 16;
            bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        });
        assert!(matches!(loaded, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn non_finite_threshold_is_a_typed_error() {
        // A NaN θ makes `d > θ` false, so the configuration would join
        // every nearest left; the loader must refuse it.  The first
        // configuration's threshold follows the two quality numbers, the
        // count and its slot.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let loaded = load_edited("threshold", |bytes| {
                let at = section_range(bytes, SEC_CONF).start + 32;
                bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            });
            assert!(
                matches!(loaded, Err(StoreError::Corrupt(_))),
                "threshold {bad} was accepted"
            );
        }
    }

    #[test]
    fn snapshot_with_full_ball_rows_loads_and_answers_identically() {
        // Snapshots written before rows were cut to the serving reach hold
        // every L–L distance; they must load and serve the same answers.
        let (state, result) = learned();
        let full = with_full_rows(&state);
        assert!(
            full.ll_rows.iter().flatten().map(Vec::len).sum::<usize>()
                > state.ll_rows.iter().flatten().map(Vec::len).sum::<usize>(),
            "the test task must have distances beyond the reach"
        );
        let path = temp_path("full_rows");
        full.save(&path).unwrap();
        let loaded = ServingState::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(matches_tuples(&loaded.join_all()), result_tuples(&result));
        let queries: Vec<String> = left_table()
            .into_iter()
            .chain(["2009 LSU Tigers footbal".to_string()])
            .collect();
        assert_eq!(loaded.query_batch(&queries), state.query_batch(&queries));
    }

    #[test]
    fn pair_distance_program_serves_like_batch() {
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions {
            ball_mode: BallMode::PairDistance,
            ..AutoFjOptions::default()
        };
        let right = right_table();
        // Fresh.
        let (state, result) = ServingState::learn(&left_table(), &right, &space, &options);
        assert!(!result.pairs.is_empty(), "test task must join something");
        assert_eq!(matches_tuples(&state.join_all()), result_tuples(&result));
        // After a snapshot round trip.
        let path = temp_path("pair_distance");
        state.save(&path).unwrap();
        let loaded = ServingState::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(matches_tuples(&loaded.join_all()), result_tuples(&result));
        // After appends, against a rebuild on the concatenated table.
        let (mut appended, head) =
            ServingState::learn(&left_table(), &right[..2], &space, &options);
        appended.append_right(&right[2..]);
        let rebuilt = ServingState::from_program(
            &left_table(),
            &right,
            &head.program,
            &options,
            head.estimated_precision,
            head.estimated_recall,
        );
        assert_eq!(
            matches_tuples(&appended.join_all()),
            matches_tuples(&rebuilt.join_all())
        );
    }

    #[test]
    fn append_keeps_non_idf_rows_and_rederives_idf_rows() {
        // A program over the whole space, so char, embedding, equal-weight
        // and IDF-weighted slots are all present.
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let program = JoinProgram {
            configs: space
                .functions()
                .iter()
                .map(|&f| Config::new(f, 0.5))
                .collect(),
            columns: vec!["value".to_string()],
            column_weights: vec![1.0],
        };
        let right = right_table();
        let build = |right: &[String]| {
            ServingState::from_program(&left_table(), right, &program, &options, 0.0, 0.0)
        };
        let mut appended = build(&right[..1]);
        let before = appended.ll_rows.clone();
        appended.append_right(&right[1..]);
        let rebuilt = build(&right);
        assert_eq!(appended.ll_candidates, rebuilt.ll_candidates);
        let (mut idf_slots, mut idf_moved) = (0, false);
        for (slot, f) in appended.functions.iter().enumerate() {
            let rows = row_bits(&appended.ll_rows[slot]);
            if reads_idf(f) {
                idf_slots += 1;
                idf_moved |= rows != row_bits(&before[slot]);
                assert_eq!(rows, row_bits(&rebuilt.ll_rows[slot]), "{}", f.code());
            } else {
                assert_eq!(rows, row_bits(&before[slot]), "{}", f.code());
            }
        }
        assert!(idf_slots > 0 && idf_slots < appended.functions.len());
        assert!(idf_moved, "the appended records must shift some IDF row");
    }
}
