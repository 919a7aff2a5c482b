//! Microbenchmarks of the distance-function substrate (one per distance
//! family of Table 1).

use autofj_text::{
    DistanceFunction, JoinFunction, JoinFunctionSpace, PreparedColumn, Preprocessing,
    TokenWeighting, Tokenization,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn sample_column() -> PreparedColumn {
    let strings: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "{} {} {} {} team season {i}",
                1990 + i % 25,
                ["Wisconsin", "Alabama", "Oregon", "Mississippi"][i % 4],
                ["Badgers", "Crimson Tide", "Ducks", "Bulldogs"][i % 4],
                ["football", "baseball", "basketball"][i % 3],
            )
        })
        .collect();
    PreparedColumn::build(&strings)
}

/// Columns beyond short ASCII names: records longer than 64 chars
/// (multi-word pattern masks), records with characters past Latin-1 (the
/// mask table's spill list), and long records of dozens of distinct CJK ids
/// (the spill list at its largest).
fn char_kernel_columns() -> [(&'static str, PreparedColumn); 3] {
    let long: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "{} {} historical society of the upper {} river valley, chapter {i}, founded {}",
                ["Wisconsin", "Alabama", "Oregon", "Mississippi"][i % 4],
                ["Badgers", "Crimson Tide", "Ducks", "Bulldogs"][i % 4],
                ["Missouri", "Columbia", "Tennessee"][i % 3],
                1850 + i % 60,
            )
        })
        .collect();
    let non_ascii: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "{} {} {} 第{i}季",
                1990 + i % 25,
                [
                    "北京国安",
                    "Αθήνα Ολυμπιακός",
                    "Москва Спартак",
                    "東京ヴェルディ"
                ][i % 4],
                ["足球队", "ποδόσφαιρο", "футбол"][i % 3],
            )
        })
        .collect();
    let cjk_long: Vec<String> = (0..200u32)
        .map(|i| {
            (0..96u32)
                .filter_map(|j| char::from_u32(0x4E00 + (i * 31 + j * 7) % 120))
                .collect()
        })
        .collect();
    [
        ("long", PreparedColumn::build(&long)),
        ("non_ascii", PreparedColumn::build(&non_ascii)),
        ("cjk_long", PreparedColumn::build(&cjk_long)),
    ]
}

fn bench_distances(c: &mut Criterion) {
    let col = sample_column();
    let functions = [
        (
            "edit",
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::Edit),
        ),
        (
            "jaro_winkler",
            JoinFunction::char_based(Preprocessing::Lower, DistanceFunction::JaroWinkler),
        ),
        (
            "jaccard_space_ew",
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Space,
                TokenWeighting::Equal,
                DistanceFunction::Jaccard,
            ),
        ),
        (
            "cosine_3g_idf",
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Gram3,
                TokenWeighting::Idf,
                DistanceFunction::Cosine,
            ),
        ),
        (
            "contain_jaccard",
            JoinFunction::set_based(
                Preprocessing::Lower,
                Tokenization::Space,
                TokenWeighting::Equal,
                DistanceFunction::ContainJaccard,
            ),
        ),
        ("embedding", JoinFunction::embedding(Preprocessing::Lower)),
    ];
    let mut group = c.benchmark_group("distances_200_pairs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (name, f) in functions {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..200 {
                    acc += f.distance(&col, i, (i * 7 + 13) % 200);
                }
                black_box(acc)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("char_kernels_200_pairs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (column, col) in char_kernel_columns() {
        for (name, dist) in [
            ("edit", DistanceFunction::Edit),
            ("jaro_winkler", DistanceFunction::JaroWinkler),
        ] {
            let f = JoinFunction::char_based(Preprocessing::Lower, dist);
            group.bench_function(format!("{name}_{column}"), |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for i in 0..200 {
                        acc += f.distance(&col, i, (i * 7 + 13) % 200);
                    }
                    black_box(acc)
                })
            });
        }
    }
    group.finish();

    // The whole reduced-24 configuration space over a pair batch — the
    // parallel entry point the search's pre-compute workload resembles.
    let space = JoinFunctionSpace::reduced24();
    let pairs: Vec<(usize, usize)> = (0..200).map(|i| (i, (i * 7 + 13) % 200)).collect();
    let mut group = c.benchmark_group("space_batch");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("reduced24_batch_200_pairs", |b| {
        b.iter(|| black_box(space.batch_distances(&col, &pairs)))
    });
    group.finish();

    let mut group = c.benchmark_group("prepare_column");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("build_200_records", |b| b.iter(sample_column));
    group.finish();
}

criterion_group!(benches, bench_distances);
criterion_main!(benches);
