//! Microbenchmark of the TF-IDF 3-gram blocker (§3.2), over columns
//! prepared once outside the timed loop:
//!
//! * `blocking`: a small task at several β values;
//! * `wide`: a 33 120 × 1 000 TeamSeason table at β = 0.25, where almost
//!   all the time is the probe (33 120 L–L plus 1 000 L–R probes), so a
//!   probe change can be timed without a full learn; `wide/index_build`
//!   times the index build over the same column alone.

use autofj_block::{Blocker, GramIndex};
use autofj_datagen::{benchmark_specs, BenchmarkScale, DomainSpec, Family, PerturbationMix};
use autofj_text::PreparedColumn;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Prepare `left ++ right` as one column, as the pipeline does.
fn prepare(left: &[String], right: &[String]) -> PreparedColumn {
    let all: Vec<&str> = left.iter().chain(right).map(String::as_str).collect();
    PreparedColumn::build(&all)
}

fn bench_blocking(c: &mut Criterion) {
    let task = benchmark_specs(BenchmarkScale::Small)[19].generate(); // HistoricBuilding
    let col = prepare(&task.left, &task.right);
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

fn bench_wide(c: &mut Criterion) {
    // ⌈36 000 · 0.92⌉ = 33 120 reference rows.
    let task = DomainSpec {
        name: "TeamSeasonWide".to_string(),
        family: Family::TeamSeason,
        num_entities: 36_000,
        left_coverage: 0.92,
        num_right: 1_000,
        mix: PerturbationMix::balanced(),
        seed: 1,
    }
    .generate();
    let col = prepare(&task.left, &task.right);
    let mut group = c.benchmark_group("wide");
    // Seconds per iteration: one warm-up plus at least one timed run.
    group
        .sample_size(3)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("beta_0.25", |b| {
        b.iter(|| black_box(Blocker::with_factor(0.25).block_prepared(&col, task.left.len())))
    });
    group.bench_function("index_build", |b| {
        b.iter(|| black_box(GramIndex::over_column(&col, task.left.len())))
    });
    group.finish();
}

criterion_group!(benches, bench_blocking, bench_wide);
criterion_main!(benches);
