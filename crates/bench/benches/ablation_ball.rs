//! Ablation bench: the Eq. (9) config-ball (`2θ`) versus the Eq. (8)
//! pair-ball (`2d`) precision estimate (a design choice called out in
//! DESIGN.md §8).  Measures the runtime of the greedy search under both modes
//! — their quality difference is reported by the experiment binaries.

use autofj_core::estimate::Precompute;
use autofj_core::greedy::run_greedy;
use autofj_core::oracle::SingleColumnOracle;
use autofj_core::{AutoFjOptions, BallMode};
use autofj_datagen::{benchmark_specs, BenchmarkScale};
use autofj_text::JoinFunctionSpace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_ball_modes(c: &mut Criterion) {
    let task = benchmark_specs(BenchmarkScale::Tiny)[36].generate();
    let space = JoinFunctionSpace::reduced24();
    let options = AutoFjOptions::default();
    let oracle = SingleColumnOracle::build(space.functions(), &task.left, &task.right);
    let blocking = options
        .blocker()
        .block_prepared(oracle.column(), task.left.len());
    let pre = Precompute::build(
        &oracle,
        &blocking.left_candidates_of_right,
        &blocking.left_candidates_of_left,
        options.num_thresholds,
    );
    let mut group = c.benchmark_group("ablation_ball_mode");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, mode) in [
        ("config_theta_eq9", BallMode::ConfigTheta),
        ("pair_distance_eq8", BallMode::PairDistance),
    ] {
        let opts = AutoFjOptions {
            ball_mode: mode,
            ..options.clone()
        };
        group.bench_function(name, |b| b.iter(|| black_box(run_greedy(&pre, &opts))));
    }
    group.finish();
}

criterion_group!(benches, bench_ball_modes);
criterion_main!(benches);
