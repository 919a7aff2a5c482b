//! End-to-end AutoFJ pipeline benchmarks: the precision pre-compute, the
//! greedy search, and the whole single-column join.

use autofj_core::estimate::Precompute;
use autofj_core::greedy::run_greedy;
use autofj_core::oracle::SingleColumnOracle;
use autofj_core::single::join_single_column;
use autofj_core::AutoFjOptions;
use autofj_datagen::{benchmark_specs, BenchmarkScale};
use autofj_text::JoinFunctionSpace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_pipeline(c: &mut Criterion) {
    let task = benchmark_specs(BenchmarkScale::Tiny)[36].generate(); // ShoppingMall (small)
    let options = AutoFjOptions::default();
    let space24 = JoinFunctionSpace::reduced24();

    let mut group = c.benchmark_group("autofj_pipeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("end_to_end_24_configs", |b| {
        b.iter(|| {
            black_box(join_single_column(
                &task.left,
                &task.right,
                &space24,
                &options,
            ))
        })
    });

    // Components: pre-compute vs greedy (Figure 7(d)'s decomposition).
    let oracle = SingleColumnOracle::build(space24.functions(), &task.left, &task.right);
    let blocking = options
        .blocker()
        .block_prepared(oracle.column(), task.left.len());
    group.bench_function("precompute_24_configs", |b| {
        b.iter(|| {
            black_box(Precompute::build(
                &oracle,
                &blocking.left_candidates_of_right,
                &blocking.left_candidates_of_left,
                options.num_thresholds,
            ))
        })
    });
    let pre = Precompute::build(
        &oracle,
        &blocking.left_candidates_of_right,
        &blocking.left_candidates_of_left,
        options.num_thresholds,
    );
    group.bench_function("greedy_search_24_configs", |b| {
        b.iter(|| black_box(run_greedy(&pre, &options)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
