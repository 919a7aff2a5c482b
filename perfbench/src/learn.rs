//! The learn path: seeded inputs, the timed `join_single_column` loop, and
//! the traced run that calls each learn layer's public functions one at a
//! time.

use crate::layers::Layers;
use crate::stats::{median, percentile, Clocks, Metric};
use crate::trace::Tracer;
use crate::{Outcome, RAYON_WORKERS};
use autofj_core::estimate::Precompute;
use autofj_core::greedy::{run_greedy, GreedyOutcome};
use autofj_core::oracle::SingleColumnOracle;
use autofj_core::{
    join_single_column, AutoFjOptions, InternedRuleSet, JoinResult, PipelineArtifacts,
};
use autofj_datagen::single_column::Family;
use autofj_datagen::{DomainSpec, PerturbationMix, SingleColumnTask};
use autofj_text::prepared::scheme_index;
use autofj_text::{JoinFunctionSpace, Preprocessing, Tokenization};
use rayon::prelude::*;
use std::time::Instant;

/// Shape of one workload's generated task.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct TeamSeason entities; 92 % of them form the reference table.
    pub num_entities: usize,
    /// Query records learned over.
    pub num_right: usize,
    /// Extra query records generated beside them and held out of the learn
    /// (the serve workloads append them).
    pub held_out: usize,
    /// Blocking factor β.
    pub beta: f64,
}

/// The task spec a workload's inputs come from: everything but the seed is
/// fixed by the workload.
fn spec(name: &str, shape: Shape, seed: u64) -> DomainSpec {
    DomainSpec {
        name: name.to_string(),
        family: Family::TeamSeason,
        num_entities: shape.num_entities,
        left_coverage: 0.92,
        num_right: shape.num_right + shape.held_out,
        mix: PerturbationMix::balanced(),
        seed,
    }
}

/// Paper defaults (τ = 0.9, s = 50) at the workload's β.
pub fn options(shape: Shape) -> AutoFjOptions {
    AutoFjOptions {
        blocking_factor: shape.beta,
        ..AutoFjOptions::default()
    }
}

/// The generated task split into the learned part and the held-out tail.
pub struct Inputs {
    pub spec: DomainSpec,
    pub left: Vec<String>,
    pub right: Vec<String>,
    pub ground_truth: Vec<Option<usize>>,
    pub held_out: Vec<String>,
}

impl Inputs {
    fn from_task(spec: DomainSpec, task: SingleColumnTask, num_right: usize) -> Self {
        let SingleColumnTask {
            left,
            mut right,
            mut ground_truth,
            ..
        } = task;
        let held_out = right.split_off(num_right);
        ground_truth.truncate(num_right);
        Self {
            spec,
            left,
            right,
            ground_truth,
            held_out,
        }
    }

    /// One stdout line recording the spec and the data profile, so a change
    /// in the generated inputs can be told apart from a change in the
    /// program.
    pub fn describe(&self, workload: &str) -> String {
        let profile = autofj_eval::profile_tables(
            &[self.left.as_slice()],
            &[self.right.as_slice()],
            &self.ground_truth,
        );
        format!(
            "{{\"workload\": \"{workload}\", \"spec\": {}, \"profile\": {}, \"held_out\": {}}}",
            serde_json::to_string(&self.spec).unwrap_or_else(|_| "null".into()),
            serde_json::to_string(&profile).unwrap_or_else(|_| "null".into()),
            self.held_out.len()
        )
    }
}

/// Generate the inputs `reps` times, returning them with the median
/// generation time on the core clock.
pub fn generate(name: &str, shape: Shape, seed: u64, reps: usize) -> (Inputs, f64) {
    let spec = spec(name, shape, seed);
    let mut times = Vec::with_capacity(reps);
    let mut task = None;
    for _ in 0..reps.max(1) {
        let clocks = Clocks::start();
        task = Some(spec.generate());
        times.push(clocks.core_s());
    }
    let task = task.expect("at least one generation");
    (
        Inputs::from_task(spec, task, shape.num_right),
        median(&times),
    )
}

/// Joined pairs in exact-comparison form: `(right, left, distance bits,
/// precision bits, config ordinal)`.
pub type PairKey = (usize, usize, u64, u64, usize);

pub fn result_key(result: &JoinResult) -> Vec<PairKey> {
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

/// The greedy outcome's assignment in the same form; widening `f32`
/// distances exactly as the library's result assembly does.
fn outcome_key(outcome: &GreedyOutcome) -> Vec<PairKey> {
    outcome
        .assignment
        .iter()
        .enumerate()
        .filter_map(|(r, a)| {
            a.map(|a| {
                (
                    r,
                    a.left as usize,
                    (a.distance as f64).to_bits(),
                    a.precision.to_bits(),
                    a.config_ordinal,
                )
            })
        })
        .collect()
}

/// The paper's guarantee on one result: the estimated precision meets τ, or
/// nothing is joined.
pub fn meets_target(result: &JoinResult, options: &AutoFjOptions) -> bool {
    result.estimated_precision >= options.precision_target || result.pairs.is_empty()
}

/// Actual precision and relative recall against the ground truth.
pub fn quality(result: &JoinResult, ground_truth: &[Option<usize>]) -> (f64, f64) {
    let q = autofj_eval::evaluate_assignment(&result.assignment, ground_truth);
    (q.precision, q.recall_relative)
}

/// Run `f`, catching a panic as `None`.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Counters the traced run reads off each layer's outputs.
pub struct LayerWork {
    pub records: usize,
    pub block: autofj_block::BlockingStats,
    pub rules: usize,
    pub pairs_vetoed: u64,
    pub distance_pairs: u64,
    pub candidate_configs: usize,
    pub rounds: usize,
}

/// The single-column pipeline, one layer at a time, each call inside its
/// own span under a root `learn` span.  Mirrors `join_single_column` stage
/// for stage (with negative rules on, as the workloads use them).
pub fn traced_learn(
    tracer: &mut Tracer,
    left: &[String],
    right: &[String],
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (PipelineArtifacts, LayerWork) {
    tracer.span("learn", |tr| {
        let oracle = tr.span("text", |_| {
            SingleColumnOracle::build(space.functions(), left, right)
        });
        let col = oracle.column();
        let blocker = options.blocker();
        let blocking = tr.span("block", |_| blocker.block_prepared(col, left.len()));
        let (rules, filtered) = tr.span("negative_rules", |_| {
            let si = scheme_index(Preprocessing::LowerStemRemovePunct, Tokenization::Space);
            let words: Vec<&[u32]> = (0..col.len())
                .map(|i| col.record(i).token_sets[si].as_slice())
                .collect();
            let rules =
                InternedRuleSet::learn(&words[..left.len()], &blocking.left_candidates_of_left);
            let lr = &blocking.left_candidates_of_right;
            let filtered: Vec<Vec<usize>> = (0..lr.len())
                .into_par_iter()
                .map(|r| {
                    lr[r]
                        .iter()
                        .copied()
                        .filter(|&l| !rules.forbids(words[l], words[left.len() + r]))
                        .collect()
                })
                .collect();
            (rules, filtered)
        });
        let pre = tr.span("estimate", |_| {
            Precompute::build(
                &oracle,
                &filtered,
                &blocking.left_candidates_of_left,
                options.num_thresholds,
            )
        });
        let outcome = tr.span("greedy", |_| run_greedy(&pre, options));

        let kept_lr: u64 = filtered.iter().map(|c| c.len() as u64).sum();
        let ll = blocking.num_ll_pairs() as u64;
        let work = LayerWork {
            records: left.len() + right.len(),
            block: blocking.stats,
            rules: rules.len(),
            pairs_vetoed: blocking.stats.lr_pairs - kept_lr,
            distance_pairs: (kept_lr + ll) * space.functions().len() as u64,
            candidate_configs: pre.num_candidate_configs(),
            rounds: outcome.precision_trace.len(),
        };
        let artifacts = PipelineArtifacts {
            oracle,
            blocking,
            rules: Some(rules),
            outcome,
        };
        (artifacts, work)
    })
}

/// Whether the traced run reproduced the timed result exactly: the same
/// assignment, distances, per-pair precisions and estimated precision.
pub fn traced_matches(outcome: &GreedyOutcome, result: &JoinResult) -> bool {
    outcome.assignment.len() == result.assignment.len()
        && outcome_key(outcome) == result_key(result)
        && outcome.estimated_precision().to_bits() == result.estimated_precision.to_bits()
}

/// Fill the learn layers of `layers` from a finished traced run.
pub fn record_layers(layers: &mut Layers, tracer: &Tracer, work: &LayerWork) {
    let per_s = |count: f64, s: f64| if s > 0.0 { count / s } else { 0.0 };
    layers.text_prepare_s = tracer.self_s("text");
    layers.text_records_per_s = per_s(work.records as f64, layers.text_prepare_s);
    layers.block_s = tracer.self_s("block");
    layers.block_postings_scanned = work.block.postings_scanned as f64;
    layers.block_scored_records = work.block.scored_records as f64;
    layers.block_candidates_kept = (work.block.lr_pairs + work.block.ll_pairs) as f64;
    layers.block_kept_per_scored = if work.block.scored_records > 0 {
        layers.block_candidates_kept / work.block.scored_records as f64
    } else {
        0.0
    };
    layers.block_postings_per_s = per_s(layers.block_postings_scanned, layers.block_s);
    layers.rules_s = tracer.self_s("negative_rules");
    layers.rules = work.rules as f64;
    layers.rules_pairs_vetoed = work.pairs_vetoed as f64;
    layers.precompute_s = tracer.self_s("estimate");
    layers.distance_pairs = work.distance_pairs as f64;
    layers.pairs_per_s = per_s(layers.distance_pairs, layers.precompute_s);
    layers.greedy_s = tracer.self_s("greedy");
    layers.greedy_rounds = work.rounds as f64;
    layers.greedy_candidate_configs = work.candidate_configs as f64;
    layers.greedy_s_per_round = if work.rounds > 0 {
        layers.greedy_s / work.rounds as f64
    } else {
        0.0
    };
    layers.learn_traced_s = tracer.total_s("learn");
    layers.residual_s = tracer.self_s("learn");
}

/// Timed `join_single_column` calls on one task, each checked against the
/// first.
#[derive(Default)]
struct Learner {
    /// Core time of each learn.
    times: Vec<f64>,
    wall_times: Vec<f64>,
    first: Option<JoinResult>,
}

impl Learner {
    fn learn(
        &mut self,
        out: &mut Outcome,
        inputs: &Inputs,
        space: &JoinFunctionSpace,
        options: &AutoFjOptions,
    ) {
        out.attempted += 1;
        let clocks = Clocks::start();
        let learned = guarded(|| join_single_column(&inputs.left, &inputs.right, space, options));
        let (core_s, wall_s) = (clocks.core_s(), clocks.wall_s());
        let Some(result) = learned else {
            out.failed += 1;
            out.error("join_single_column panicked");
            return;
        };
        self.times.push(core_s);
        self.wall_times.push(wall_s);
        match &self.first {
            None => {
                if !meets_target(&result, options) {
                    out.error("estimated precision below the target with pairs joined");
                }
                self.first = Some(result);
            }
            Some(first) if result_key(first) != result_key(&result) => {
                out.failed += 1;
                out.error("repeated learns returned different joins");
            }
            Some(_) => {}
        }
    }
}

/// A learn workload: `join_single_column` on the generated task, repeated
/// for the measuring window (at least once).  With `trace`: one learn, the
/// traced layer-by-layer run, then one more learn, so the tracing overhead
/// compares two runs that both follow a warm-up.
pub fn run(name: &'static str, shape: Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    // Generating the inputs takes milliseconds; its median over many
    // repetitions is steady where a single one is not.
    let (inputs, setup_s) = generate(name, shape, seed, if trace { 1 } else { 21 });
    out.lines.push(inputs.describe(name));
    let space = JoinFunctionSpace::reduced24();
    let options = options(shape);

    let mut learner = Learner::default();
    let window = Instant::now();
    loop {
        learner.learn(&mut out, &inputs, &space, &options);
        if trace || window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if trace {
        run_traced(&mut out, &inputs, &space, &options, learner);
        return out;
    }
    let Some(result) = &learner.first else {
        return out;
    };
    let times = &learner.times;
    let learn_s = median(times);
    let (precision, recall) = quality(result, &inputs.ground_truth);
    // In a batch join every right record's answer arrives when the learn
    // finishes, so per-record latency is the learn's time.
    let learned_records = (times.len() * inputs.right.len()) as f64;
    let total_s: f64 = times.iter().sum();
    out.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("learn_s", learn_s, "s"),
        Metric::new("recall", recall, "share"),
        Metric::new("precision", precision, "share"),
        Metric::new("join_rps", learned_records / total_s, "1/s"),
        Metric::new("join_p50_ms", learn_s * 1e3, "ms"),
    ];
    out.report = vec![
        Metric::new("join_p99_ms", percentile(times, 99.0) * 1e3, "ms"),
        Metric::new("learn_wall_s", median(&learner.wall_times), "s"),
    ];
    out.note(format!(
        "{name}: {} learns at {RAYON_WORKERS} workers, {}x{} records",
        times.len(),
        inputs.left.len(),
        inputs.right.len()
    ));
    out
}

fn run_traced(
    out: &mut Outcome,
    inputs: &Inputs,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    mut learner: Learner,
) {
    let Some(result) = learner.first.take() else {
        return;
    };
    let mut tracer = Tracer::new();
    out.attempted += 1;
    let traced = guarded(|| traced_learn(&mut tracer, &inputs.left, &inputs.right, space, options));
    let Some((artifacts, work)) = traced else {
        out.failed += 1;
        out.error("traced learn panicked");
        return;
    };
    if !traced_matches(&artifacts.outcome, &result) {
        out.error("traced learn differs from join_single_column");
    }
    drop(artifacts);
    learner.first = Some(result);
    learner.times.clear();
    learner.wall_times.clear();
    learner.learn(out, inputs, space, options);

    let mut layers = Layers::default();
    record_layers(&mut layers, &tracer, &work);
    layers.overhead_s = layers.learn_traced_s - median(&learner.times);
    out.lines.push(tracer.to_json());
    out.metrics = layers.metrics();
}
