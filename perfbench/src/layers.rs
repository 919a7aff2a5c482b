//! The per-layer metrics of the traced run.  Every workload reports every
//! field; a layer a workload does not exercise reports zero work.

use crate::stats::Metric;

#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub text_prepare_s: f64,
    pub text_records_per_s: f64,
    pub block_s: f64,
    pub block_postings_scanned: f64,
    pub block_scored_records: f64,
    pub block_candidates_kept: f64,
    pub block_kept_per_scored: f64,
    pub block_postings_per_s: f64,
    pub rules_s: f64,
    pub rules: f64,
    pub rules_pairs_vetoed: f64,
    pub precompute_s: f64,
    pub distance_pairs: f64,
    pub pairs_per_s: f64,
    pub greedy_s: f64,
    pub greedy_rounds: f64,
    pub greedy_candidate_configs: f64,
    pub greedy_s_per_round: f64,
    pub store_freeze_s: f64,
    pub store_save_s: f64,
    pub store_load_s: f64,
    pub store_snapshot_bytes: f64,
    pub store_query_p50_ms: f64,
    pub store_append_s: f64,
    pub serve_join_overhead_ms: f64,
    pub serve_requests: f64,
    pub serve_failed: f64,
    pub serve_epochs: f64,
    pub learn_traced_s: f64,
    pub residual_s: f64,
    pub overhead_s: f64,
}

impl Layers {
    /// The fields in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("text.prepare_s", self.text_prepare_s, "s"),
            Metric::new("text.records_per_s", self.text_records_per_s, "1/s"),
            Metric::new("block.block_s", self.block_s, "s"),
            Metric::new(
                "block.postings_scanned",
                self.block_postings_scanned,
                "count",
            ),
            Metric::new("block.scored_records", self.block_scored_records, "count"),
            Metric::new("block.candidates_kept", self.block_candidates_kept, "count"),
            Metric::new("block.kept_per_scored", self.block_kept_per_scored, "ratio"),
            Metric::new("block.postings_per_s", self.block_postings_per_s, "1/s"),
            Metric::new("negative_rules.s", self.rules_s, "s"),
            Metric::new("negative_rules.rules", self.rules, "count"),
            Metric::new(
                "negative_rules.pairs_vetoed",
                self.rules_pairs_vetoed,
                "count",
            ),
            Metric::new("estimate.precompute_s", self.precompute_s, "s"),
            Metric::new("estimate.distance_pairs", self.distance_pairs, "count"),
            Metric::new("estimate.pairs_per_s", self.pairs_per_s, "1/s"),
            Metric::new("greedy.s", self.greedy_s, "s"),
            Metric::new("greedy.rounds", self.greedy_rounds, "count"),
            Metric::new(
                "greedy.candidate_configs",
                self.greedy_candidate_configs,
                "count",
            ),
            Metric::new("greedy.s_per_round", self.greedy_s_per_round, "s"),
            Metric::new("store.freeze_s", self.store_freeze_s, "s"),
            Metric::new("store.save_s", self.store_save_s, "s"),
            Metric::new("store.load_s", self.store_load_s, "s"),
            Metric::new("store.snapshot_bytes", self.store_snapshot_bytes, "bytes"),
            Metric::new("store.query_p50_ms", self.store_query_p50_ms, "ms"),
            Metric::new("store.append_s", self.store_append_s, "s"),
            Metric::new("serve.join_overhead_ms", self.serve_join_overhead_ms, "ms"),
            Metric::new("serve.requests", self.serve_requests, "count"),
            Metric::new("serve.failed", self.serve_failed, "count"),
            Metric::new("serve.epochs", self.serve_epochs, "count"),
            Metric::new("trace.learn_s", self.learn_traced_s, "s"),
            Metric::new("trace.residual_s", self.residual_s, "s"),
            Metric::new("trace.overhead_s", self.overhead_s, "s"),
        ]
    }
}
