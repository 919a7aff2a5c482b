//! Microbenchmark of the TF-IDF 3-gram blocker (§3.2) at several β values,
//! over a column prepared once outside the timed loop.

use autofj_block::Blocker;
use autofj_datagen::{benchmark_specs, BenchmarkScale};
use autofj_text::PreparedColumn;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_blocking(c: &mut Criterion) {
    let task = benchmark_specs(BenchmarkScale::Small)[19].generate(); // HistoricBuilding
    let all: Vec<&str> = task
        .left
        .iter()
        .chain(&task.right)
        .map(String::as_str)
        .collect();
    let col = PreparedColumn::build(&all);
    let mut group = c.benchmark_group("blocking");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for beta in [0.5, 1.5, 3.0] {
        group.bench_function(format!("beta_{beta}"), |b| {
            b.iter(|| black_box(Blocker::with_factor(beta).block_prepared(&col, task.left.len())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blocking);
criterion_main!(benches);
