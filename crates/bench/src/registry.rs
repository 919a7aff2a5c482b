//! The paper's evaluation (§5) as data: one [`Entry`] per table or figure,
//! and the code that runs any of them, written once.
//!
//! An entry names its tasks, its sweep points, the columns it reports and
//! how its rows group.  [`Entry::run`] measures one [`Cell`] per (sweep
//! point, task): AutoFJ at the point's options first, since its precision
//! is the level every baseline's adjusted recall is read at, then each other
//! method a column names.  The cells become one printed table and one
//! `target/experiments/<entry>.json` document ([`Report`]), which keeps every
//! cell.  The `paper` binary selects entries by name; `bench_smoke`'s
//! `fig6d` section runs the `fig6d` entry and gates its cells.
//!
//! Supervised baselines follow the Table 2 protocol everywhere: half of the
//! right records are labelled, split and trained under [`SUPERVISED_SEED`].
//! AutoFJ's PR curve (Tables 5 and 7) ranks each pair by the highest target
//! of [`PR_LADDER`] it is still joined at.

use crate::runner::{
    autofj_options, parse_number, parse_scale, parse_space, pearson, pepcc, run_autofj,
};
use crate::{write_json, Reporter};
use autofj_baselines::{
    train_test_split, ActiveLearning, DeepMatcherSub, ExcelLike, FuzzyWuzzy, MagellanRf, PpJoin,
    SupervisedMatcher, UnsupervisedMatcher,
};
use autofj_block::BlockingStats;
use autofj_core::multi_column::join_multi_column;
use autofj_core::trace::{self, Phase};
use autofj_core::{AutoFjOptions, JoinResult};
use autofj_datagen::{
    benchmark_specs, BenchmarkScale, MultiColumnDataset, ScenarioData, ScenarioSpec,
    SingleColumnTask,
};
use autofj_eval::{
    adjusted_recall, evaluate_assignment, pr_auc, upper_bound_recall, QualityReport,
    ScoredPrediction,
};
use autofj_text::JoinFunctionSpace;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed of the supervised baselines' 50 % label split and of their training.
pub const SUPERVISED_SEED: u64 = 0xC0FFEE;

/// The precision targets AutoFJ's PR curve sweeps (Tables 5 and 7).
pub const PR_LADDER: [f64; 6] = [0.95, 0.9, 0.8, 0.7, 0.6, 0.5];

/// A baseline's default join, read by the zero-join false-positive rate:
/// every prediction scored at least this.
const DEFAULT_SIMILARITY: f64 = 0.6;

/// Multi-column row-count scale when `AUTOFJ_MC_SCALE` is unset.
pub const DEFAULT_MC_SCALE: f64 = 0.15;

/// The ten unrelated (left-domain, right-domain) pairs of Figure 6(b),
/// indices into `benchmark_specs`, mirroring the paper's "Satellites joined
/// with Hospitals" construction.
const ZERO_JOIN_PAIRS: [(usize, usize); 10] = [
    (1, 20),  // ArtificialSatellite × Hospital
    (10, 44), // Drug × TelevisionStation
    (16, 19), // Galaxy × HistoricBuilding
    (34, 11), // Reptile × Election
    (7, 40),  // CAR × Song
    (17, 43), // GivenName × Stadium
    (12, 33), // Enzyme × RailwayLine
    (0, 45),  // Amphibian × TennisTournament
    (25, 4),  // MotorsportSeason × BasketballTeam
    (49, 22), // Wrestler × Magazine
];

/// Every paper artifact, in the paper's order.
pub const ENTRIES: &[Entry] = {
    use Col::{Baselines, One};
    use Field::*;
    use Method::*;
    &[
        Entry {
            name: "table2",
            title:
                "Table 2: single-column fuzzy join quality (adjusted recall at AutoFJ's precision)",
            tasks: Tasks::Benchmark(usize::MAX),
            sweep: None,
            columns: &[
                One(AutoFj, Ubr),
                One(AutoFj, Pepcc),
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                Baselines(Recall),
                One(AutoFjUc, Recall),
                One(AutoFjNr, Recall),
                One(AutoFj, Seconds),
            ],
            rows: Rows::Tasks,
        },
        Entry {
            name: "table4",
            title: "Table 4(a): multi-column fuzzy join quality",
            tasks: Tasks::MultiColumn,
            sweep: None,
            columns: &[
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                Baselines(Recall),
                One(AutoFj, Seconds),
            ],
            rows: Rows::Tasks,
        },
        Entry {
            name: "table4b",
            title: "Table 4(b): change in quality after adding random columns",
            tasks: Tasks::MultiColumn,
            sweep: Some(Sweep {
                knob: Knob::RandomColumns,
                points: &[0.0, 3.0],
            }),
            columns: &[One(AutoFj, Recall), One(Excel, Recall), One(Al, Recall)],
            rows: Rows::TaskDelta,
        },
        Entry {
            name: "table5",
            title: "Table 5: PR-AUC on single-column datasets",
            tasks: Tasks::Benchmark(usize::MAX),
            sweep: None,
            columns: &[One(AutoFj, PrAuc), Baselines(PrAuc)],
            rows: Rows::Tasks,
        },
        Entry {
            name: "table6",
            title: "Table 6: AutoFJ with 24 configurations vs the full 140-configuration space",
            tasks: Tasks::Benchmark(usize::MAX),
            sweep: Some(Sweep {
                knob: Knob::Space,
                points: &[24.0, 140.0],
            }),
            columns: &[One(AutoFj, Precision), One(AutoFj, Recall)],
            rows: Rows::Tasks,
        },
        Entry {
            name: "table7",
            title: "Table 7: PR-AUC on multi-column datasets",
            tasks: Tasks::MultiColumn,
            sweep: None,
            columns: &[One(AutoFj, PrAuc), Baselines(PrAuc)],
            rows: Rows::Tasks,
        },
        Entry {
            name: "fig6a",
            title: "Figure 6(a): adding irrelevant records to R",
            tasks: Tasks::Benchmark(12),
            sweep: Some(Sweep {
                knob: Knob::Irrelevant,
                points: &[0.0, 0.2, 0.4, 0.6, 0.8],
            }),
            columns: &[One(AutoFj, Precision), One(AutoFj, Recall)],
            rows: Rows::Points,
        },
        Entry {
            name: "fig6b",
            title: "Figure 6(b): false-positive rate when L and R are unrelated",
            tasks: Tasks::ZeroJoin(&ZERO_JOIN_PAIRS),
            sweep: None,
            columns: &[One(AutoFj, JoinedShare), One(Excel, JoinedShare)],
            rows: Rows::Tasks,
        },
        Entry {
            name: "fig6c",
            title: "Figure 6(c): removing records from the reference table L",
            tasks: Tasks::Benchmark(12),
            sweep: Some(Sweep {
                knob: Knob::Removed,
                points: &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            }),
            columns: &[
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                One(Excel, Recall),
            ],
            rows: Rows::Points,
        },
        Entry {
            name: "fig6d",
            title: "Figure 6(d): sensitivity to the blocking factor β",
            tasks: Tasks::Benchmark(12),
            sweep: Some(Sweep {
                knob: Knob::Beta,
                points: &[0.25, 0.5, 1.0, 1.5, 2.0, 3.0],
            }),
            columns: &[
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                One(AutoFj, Seconds),
                One(AutoFj, LrPairs),
            ],
            rows: Rows::Points,
        },
        Entry {
            name: "fig7a",
            title: "Figure 7(a): varying the precision target τ",
            tasks: Tasks::Benchmark(12),
            sweep: Some(Sweep {
                knob: Knob::Tau,
                points: &[0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
            }),
            columns: &[
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                One(Excel, Recall),
            ],
            rows: Rows::Points,
        },
        Entry {
            name: "fig7b",
            title: "Figure 7(b): average running time (seconds) by |L|×|R| bucket",
            tasks: Tasks::Benchmark(20),
            sweep: None,
            columns: &[One(AutoFj, Seconds), Baselines(Seconds)],
            rows: Rows::SizeBuckets,
        },
        Entry {
            name: "fig7cd",
            title: "Figure 7(c,d): varying the configuration-space size",
            tasks: Tasks::Benchmark(10),
            sweep: Some(Sweep {
                knob: Knob::Space,
                points: &[24.0, 38.0, 70.0, 140.0],
            }),
            columns: &[
                One(AutoFj, Precision),
                One(AutoFj, Recall),
                One(Excel, Recall),
                One(Magellan, Recall),
                One(AutoFj, PrecomputeSeconds),
                One(AutoFj, GreedySeconds),
            ],
            rows: Rows::Points,
        },
    ]
};

/// The entry named `name`; an unknown name is an error listing the entries.
pub fn entry(name: &str) -> Result<&'static Entry, String> {
    ENTRIES.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        format!(
            "no paper entry `{name}`; the entries are: {}",
            names.join(", ")
        )
    })
}

/// What the environment selects for a run of the registry.
#[derive(Debug)]
pub struct Settings {
    /// `AUTOFJ_SCALE`: row counts of the single-column benchmark.
    pub scale: BenchmarkScale,
    /// `AUTOFJ_TASKS`: at most this many single-column tasks per entry.
    pub task_limit: usize,
    /// `AUTOFJ_SPACE`: the configuration space, unless the entry sweeps it.
    pub space: JoinFunctionSpace,
    /// `AUTOFJ_MC_SCALE`: row-count scale of the multi-column datasets.
    pub mc_scale: f64,
}

impl Settings {
    /// Read the four knobs; an unknown value is an error naming the
    /// accepted ones.
    pub fn from_env() -> Result<Settings, String> {
        Ok(Settings {
            scale: parse_scale(std::env::var("AUTOFJ_SCALE").ok().as_deref())?,
            task_limit: parse_number(
                "AUTOFJ_TASKS",
                std::env::var("AUTOFJ_TASKS").ok().as_deref(),
                usize::MAX,
            )?,
            space: parse_space(
                std::env::var("AUTOFJ_SPACE").ok().as_deref(),
                JoinFunctionSpace::full(),
            )?,
            mc_scale: parse_number(
                "AUTOFJ_MC_SCALE",
                std::env::var("AUTOFJ_MC_SCALE").ok().as_deref(),
                DEFAULT_MC_SCALE,
            )?,
        })
    }
}

/// One paper artifact.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The name `paper` selects it by, and the stem of its JSON document.
    pub name: &'static str,
    /// The table title.
    pub title: &'static str,
    /// The tasks it measures.
    pub tasks: Tasks,
    /// Its sweep; `None` measures each task once at the default options.
    pub sweep: Option<Sweep>,
    /// The reported columns.
    pub columns: &'static [Col],
    /// How cells group into rows.
    pub rows: Rows,
}

/// The tasks of an entry.
#[derive(Debug, Clone, Copy)]
pub enum Tasks {
    /// The first `n` single-column benchmark domains, at most `AUTOFJ_TASKS`.
    Benchmark(usize),
    /// Zero-join cases: (left-domain, right-domain) index pairs.
    ZeroJoin(&'static [(usize, usize)]),
    /// The eight multi-column datasets of Table 3.
    MultiColumn,
}

/// A sweep: the knob it turns and the values it visits.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// What a point sets.
    pub knob: Knob,
    /// The points, in order.
    pub points: &'static [f64],
}

/// What a sweep point sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// The precision target τ.
    Tau,
    /// The blocking factor β.
    Beta,
    /// The size of the configuration space.
    Space,
    /// The fraction of irrelevant records mixed into R.
    Irrelevant,
    /// The fraction of records removed from L.
    Removed,
    /// The number of random columns added to both tables.
    RandomColumns,
}

impl Knob {
    fn label(self) -> &'static str {
        match self {
            Knob::Tau => "τ",
            Knob::Beta => "β",
            Knob::Space => "|S|",
            Knob::Irrelevant => "Irrelevant fraction",
            Knob::Removed => "Removed fraction",
            Knob::RandomColumns => "Random columns",
        }
    }
}

/// How an entry's cells group into rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    /// One row per task with every point's columns, then their average.
    Tasks,
    /// One row per task of last point minus first point, then the average.
    TaskDelta,
    /// One row per point, averaged over the tasks.
    Points,
    /// One row per |L|·|R| quintile of the tasks, averaged over its tasks.
    SizeBuckets,
}

/// A reported column, or one per baseline.
#[derive(Debug, Clone, Copy)]
pub enum Col {
    /// One method's field.
    One(Method, Field),
    /// The field of each of the eight [`BASELINES`].
    Baselines(Field),
}

/// The methods an entry can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// AutoFJ at the point's options.
    AutoFj,
    /// AutoFJ-UC: the best single configuration instead of a union.
    AutoFjUc,
    /// AutoFJ-NR: without negative rules.
    AutoFjNr,
    /// Excel's fuzzy lookup.
    Excel,
    /// FuzzyWuzzy.
    Fw,
    /// ZeroER.
    ZeroEr,
    /// The ECM record-linkage model.
    Ecm,
    /// PPJoin.
    Pp,
    /// Magellan's random forest (supervised).
    Magellan,
    /// The DeepMatcher stand-in (supervised).
    Dm,
    /// Active learning (supervised).
    Al,
}

/// The eight baselines of Table 2, unsupervised first.
pub const BASELINES: [Method; 8] = [
    Method::Excel,
    Method::Fw,
    Method::ZeroEr,
    Method::Ecm,
    Method::Pp,
    Method::Magellan,
    Method::Dm,
    Method::Al,
];

/// What a column reads from a method's [`Score`] or AutoFJ's [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// [`Score::precision`].
    Precision,
    /// [`Score::recall`].
    Recall,
    /// [`Score::pr_auc`].
    PrAuc,
    /// [`Score::joined_share`].
    JoinedShare,
    /// [`Score::seconds`].
    Seconds,
    /// [`Cell::ubr`] (AutoFJ only).
    Ubr,
    /// [`Cell::pepcc`] (AutoFJ only).
    Pepcc,
    /// [`Cell::precompute_seconds`] (AutoFJ only).
    PrecomputeSeconds,
    /// [`Cell::greedy_seconds`] (AutoFJ only).
    GreedySeconds,
    /// L–R candidate pairs of [`Cell::candidates`] (AutoFJ only).
    LrPairs,
}

/// One method's measurements on one task at one point.
#[derive(Debug, Clone, Serialize)]
pub struct Score {
    /// Method name as in the paper's tables.
    pub method: String,
    /// AutoFJ: actual precision.  A baseline: the precision of the cut its
    /// adjusted recall is read at.
    pub precision: f64,
    /// AutoFJ: relative recall.  A baseline: adjusted recall at AutoFJ's
    /// precision.
    pub recall: f64,
    /// PR-AUC of the method's ranking; for AutoFJ, of the [`PR_LADDER`]
    /// ranking, measured only when a column asks for it.
    pub pr_auc: Option<f64>,
    /// Share of R joined; for a baseline, predictions scored at least 0.6.
    pub joined_share: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Everything measured on one task at one sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Task name.
    pub task: String,
    /// The sweep point; `None` without a sweep.
    pub point: Option<f64>,
    /// `(|L|, |R|)`.
    pub size: (usize, usize),
    /// Columns of each table.
    pub num_columns: usize,
    /// Ground-truth matches.
    pub matches: usize,
    /// AutoFJ first, then each other method the columns name.
    pub scores: Vec<Score>,
    /// AutoFJ's PEPCC.
    pub pepcc: f64,
    /// The recall upper bound, measured only when a column asks for it.
    pub ubr: Option<f64>,
    /// Seconds of AutoFJ's run in prepare, block, negative rules and
    /// pre-compute.
    pub precompute_seconds: f64,
    /// Seconds of AutoFJ's run in the greedy rounds and conflict resolution.
    pub greedy_seconds: f64,
    /// AutoFJ's blocking candidate-set statistics (zero for multi-column).
    pub candidates: BlockingStats,
    /// The columns AutoFJ's program reads, with their weights.
    pub program: Vec<(String, f64)>,
}

impl Cell {
    fn value(&self, method: Method, field: Field) -> f64 {
        let score = || {
            let label = method.label();
            self.scores
                .iter()
                .find(|s| s.method == label)
                .unwrap_or_else(|| panic!("{label} was not measured"))
        };
        match field {
            Field::Precision => score().precision,
            Field::Recall => score().recall,
            Field::PrAuc => score().pr_auc.expect("PR-AUC was measured"),
            Field::JoinedShare => score().joined_share,
            Field::Seconds => score().seconds,
            Field::Ubr => self.ubr.expect("UBR was measured"),
            Field::Pepcc => self.pepcc,
            Field::PrecomputeSeconds => self.precompute_seconds,
            Field::GreedySeconds => self.greedy_seconds,
            Field::LrPairs => self.candidates.lr_pairs as f64,
        }
    }
}

/// One row of an entry's table.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Task name, point, bucket, or `Average`.
    pub label: String,
    /// Cells averaged into the row.
    pub tasks: usize,
    /// One value per header column after the label and count.
    pub values: Vec<f64>,
}

/// The document an entry writes: its table and every cell behind it.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Entry name.
    pub entry: String,
    /// Table title.
    pub title: String,
    /// Worker threads of the execution engine.
    pub threads: usize,
    /// Column headers of `rows[].values`.
    pub header: Vec<String>,
    /// The table.
    pub rows: Vec<Row>,
    /// For a τ sweep, the correlation between τ and the averaged precision
    /// (0.9939 in the paper).
    pub tau_precision_correlation: Option<f64>,
    /// Every measured cell, points outer, tasks inner.
    pub cells: Vec<Cell>,
}

impl Method {
    /// Name as in the paper's tables (baselines: their `name()`).
    fn label(self) -> &'static str {
        match self {
            Method::AutoFj => "AutoFJ",
            Method::AutoFjUc => "AutoFJ-UC",
            Method::AutoFjNr => "AutoFJ-NR",
            Method::Excel => "Excel",
            Method::Fw => "FW",
            Method::ZeroEr => "ZeroER",
            Method::Ecm => "ECM",
            Method::Pp => "PP",
            Method::Magellan => "Magellan",
            Method::Dm => "DM",
            Method::Al => "AL",
        }
    }

    fn is_autofj(self) -> bool {
        matches!(self, Method::AutoFj | Method::AutoFjUc | Method::AutoFjNr)
    }

    /// An AutoFJ variant's options, derived from the point's `options`.
    fn variant(self, options: &AutoFjOptions) -> AutoFjOptions {
        let options = options.clone();
        match self {
            Method::AutoFjUc => AutoFjOptions {
                union_of_configurations: false,
                ..options
            },
            Method::AutoFjNr => AutoFjOptions {
                use_negative_rules: false,
                ..options
            },
            _ => options,
        }
    }

    /// A baseline's scored predictions on a single-column task.
    fn predict(self, task: &SingleColumnTask) -> Vec<ScoredPrediction> {
        let (left, right) = (&task.left, &task.right);
        let supervised = |m: &dyn SupervisedMatcher| {
            let (train, _) = train_test_split(right.len(), 0.5, SUPERVISED_SEED);
            m.fit_predict(left, right, &task.ground_truth, &train, SUPERVISED_SEED)
        };
        match self {
            Method::Excel => ExcelLike::default().predict(left, right),
            Method::Fw => FuzzyWuzzy.predict(left, right),
            Method::ZeroEr => autofj_baselines::ZeroEr::default().predict(left, right),
            Method::Ecm => autofj_baselines::Ecm::default().predict(left, right),
            Method::Pp => PpJoin::default().predict(left, right),
            Method::Magellan => supervised(&MagellanRf::default()),
            Method::Dm => supervised(&DeepMatcherSub::default()),
            Method::Al => supervised(&ActiveLearning::default()),
            Method::AutoFj | Method::AutoFjUc | Method::AutoFjNr => {
                unreachable!("AutoFJ variants join, they do not predict")
            }
        }
    }
}

/// One AutoFJ join of a task: result, quality, blocking statistics (zero
/// for multi-column tasks) and wall-clock seconds.
fn join(
    data: &ScenarioData,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
) -> (JoinResult, QualityReport, BlockingStats, f64) {
    match data {
        ScenarioData::Single(task) => run_autofj(task, space, options),
        ScenarioData::Multi(task) => {
            let start = Instant::now();
            let result = join_multi_column(&task.left, &task.right, space, options);
            let seconds = start.elapsed().as_secs_f64();
            let quality = evaluate_assignment(&result.assignment, &task.ground_truth);
            (result, quality, BlockingStats::default(), seconds)
        }
    }
}

fn autofj_score(
    method: Method,
    result: &JoinResult,
    quality: &QualityReport,
    seconds: f64,
) -> Score {
    Score {
        method: method.label().to_string(),
        precision: quality.precision,
        recall: quality.recall_relative,
        pr_auc: None,
        joined_share: result.num_joined() as f64 / result.assignment.len() as f64,
        seconds,
    }
}

/// A baseline's scores on `task`, its adjusted recall read at `target`.
fn baseline_score(method: Method, task: &SingleColumnTask, target: f64) -> Score {
    let start = Instant::now();
    let preds = method.predict(task);
    let seconds = start.elapsed().as_secs_f64();
    let ar = adjusted_recall(&preds, &task.ground_truth, target);
    let joined = preds
        .iter()
        .filter(|p| p.score >= DEFAULT_SIMILARITY)
        .count();
    Score {
        method: method.label().to_string(),
        precision: ar.precision,
        recall: ar.recall_relative,
        pr_auc: Some(pr_auc(&preds, &task.ground_truth)),
        joined_share: joined as f64 / task.right.len() as f64,
        seconds,
    }
}

/// PR-AUC of AutoFJ's ranking: each joined pair scores the highest target
/// of [`PR_LADDER`] it is joined at.  `main` is the run at `options`.
fn ladder_pr_auc(
    data: &ScenarioData,
    space: &JoinFunctionSpace,
    options: &AutoFjOptions,
    main: &JoinResult,
) -> f64 {
    let mut best: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for tau in PR_LADDER {
        let rung;
        let result = if tau == options.precision_target {
            main
        } else {
            let at_tau = AutoFjOptions {
                precision_target: tau,
                ..options.clone()
            };
            rung = join(data, space, &at_tau).0;
            &rung
        };
        for p in &result.pairs {
            let score = best.entry((p.right, p.left)).or_insert(0.0);
            *score = score.max(tau);
        }
    }
    let preds: Vec<ScoredPrediction> = best
        .into_iter()
        .map(|((right, left), score)| ScoredPrediction { right, left, score })
        .collect();
    pr_auc(&preds, data.ground_truth())
}

impl Entry {
    /// The reported columns, with [`Col::Baselines`] expanded.
    fn columns(&self) -> Vec<(Method, Field)> {
        self.columns
            .iter()
            .flat_map(|col| match *col {
                Col::One(method, field) => vec![(method, field)],
                Col::Baselines(field) => BASELINES.iter().map(|&m| (m, field)).collect(),
            })
            .collect()
    }

    fn points(&self) -> Vec<Option<f64>> {
        match self.sweep {
            Some(sweep) => sweep.points.iter().map(|&x| Some(x)).collect(),
            None => vec![None],
        }
    }

    fn knob(&self) -> Option<Knob> {
        self.sweep.map(|s| s.knob)
    }

    /// The scenarios of one point, one per task.
    fn scenarios(&self, settings: &Settings, point: Option<f64>) -> Vec<ScenarioSpec> {
        let x = point.unwrap_or(0.0);
        let random = if self.knob() == Some(Knob::RandomColumns) {
            x as usize
        } else {
            0
        };
        match self.tasks {
            Tasks::Benchmark(cap) => {
                let mut specs = benchmark_specs(settings.scale);
                specs.truncate(cap.min(settings.task_limit));
                let n = specs.len();
                (0..n)
                    .map(|i| {
                        let (spec, name) = (specs[i].clone(), &specs[i].name);
                        let seed = i as u64;
                        match self.knob() {
                            Some(Knob::Irrelevant) => {
                                let donor = specs[(i + 1) % n].clone();
                                ScenarioSpec::irrelevant(name, spec, donor, x, 0xF16A + seed)
                            }
                            Some(Knob::Removed) => ScenarioSpec::sparse(name, spec, x, 0x6C + seed),
                            _ => ScenarioSpec::perturbation(name, spec),
                        }
                    })
                    .collect()
            }
            Tasks::ZeroJoin(pairs) => {
                let specs = benchmark_specs(settings.scale);
                pairs
                    .iter()
                    .map(|&(l, r)| {
                        let (left, right) = (specs[l].clone(), specs[r].clone());
                        let name = format!("{}×{}", left.name, right.name);
                        ScenarioSpec::zero_join(&name, left, right)
                    })
                    .collect()
            }
            Tasks::MultiColumn => MultiColumnDataset::ALL
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let seed = 0xBEEF + i as u64;
                    ScenarioSpec::multi_column(d.code(), *d, settings.mc_scale, random, seed)
                })
                .collect(),
        }
    }

    /// Measure every cell, points outer, tasks inner.
    fn cells(&self, settings: &Settings) -> Vec<Cell> {
        let mut cells = Vec::new();
        for point in self.points() {
            for spec in self.scenarios(settings, point) {
                eprintln!("[{}] {} @ {point:?}", self.name, spec.name);
                cells.push(self.measure(&spec.generate(), point, settings));
            }
        }
        cells
    }

    /// Measure every cell, print the table and write the JSON document.
    pub fn run(&self, settings: &Settings) -> Report {
        let report = self.report(self.cells(settings));
        report.print();
        let path = write_json(self.name, &report);
        println!("JSON written to {}", path.display());
        report
    }

    /// Measure one task at one point.
    fn measure(&self, data: &ScenarioData, point: Option<f64>, settings: &Settings) -> Cell {
        let mut options = autofj_options();
        let mut space = settings.space.clone();
        if let (Some(knob), Some(x)) = (self.knob(), point) {
            match knob {
                Knob::Tau => options.precision_target = x,
                Knob::Beta => options.blocking_factor = x,
                Knob::Space => {
                    space = JoinFunctionSpace::standard_subspaces()
                        .into_iter()
                        .find(|s| s.len() == x as usize)
                        .unwrap_or_else(|| panic!("no standard space of {x} functions"))
                }
                Knob::Irrelevant | Knob::Removed | Knob::RandomColumns => {}
            }
        }
        let ((result, quality, candidates, seconds), trace) =
            trace::capture(|| join(data, &space, &options));
        let phase_seconds =
            |phases: &[Phase]| -> f64 { phases.iter().map(|&p| trace.phase(p).seconds).sum() };
        let columns = self.columns();
        let asks = |field: Field| columns.contains(&(Method::AutoFj, field));

        // Baselines read a multi-column task with its columns concatenated.
        let flat = match data {
            ScenarioData::Single(task) => Cow::Borrowed(task),
            ScenarioData::Multi(task) => Cow::Owned(SingleColumnTask {
                name: task.name.clone(),
                left: task.left.concatenated_rows(),
                right: task.right.concatenated_rows(),
                ground_truth: task.ground_truth.clone(),
            }),
        };
        let mut autofj = autofj_score(Method::AutoFj, &result, &quality, seconds);
        if asks(Field::PrAuc) {
            autofj.pr_auc = Some(ladder_pr_auc(data, &space, &options, &result));
        }
        let mut scores = vec![autofj];
        for (method, _) in &columns {
            if scores.iter().any(|s| s.method == method.label()) {
                continue;
            }
            scores.push(if method.is_autofj() {
                let (r, q, _, s) = join(data, &space, &method.variant(&options));
                autofj_score(*method, &r, &q, s)
            } else {
                baseline_score(*method, &flat, quality.precision)
            });
        }
        let ubr = asks(Field::Ubr).then(|| {
            upper_bound_recall(
                &flat.left,
                &flat.right,
                &space,
                &options,
                &flat.ground_truth,
            )
        });
        let num_columns = match data {
            ScenarioData::Single(_) => 1,
            ScenarioData::Multi(task) => task.left.num_columns(),
        };
        Cell {
            task: flat.name.clone(),
            point,
            size: data.size(),
            num_columns,
            matches: data.num_matches(),
            scores,
            pepcc: pepcc(&result, data.ground_truth()),
            ubr,
            precompute_seconds: phase_seconds(&[
                Phase::Prepare,
                Phase::Block,
                Phase::NegativeRules,
                Phase::Precompute,
            ]),
            greedy_seconds: phase_seconds(&[
                Phase::GreedyScore,
                Phase::GreedyArgmax,
                Phase::ConflictResolve,
            ]),
            candidates,
            program: result
                .program
                .columns
                .iter()
                .cloned()
                .zip(result.program.column_weights.iter().copied())
                .collect(),
        }
    }

    /// Group `cells` (points outer, tasks inner) into the entry's table.
    fn report(&self, cells: Vec<Cell>) -> Report {
        let columns = self.columns();
        let points = self.points();
        let num_tasks = cells.len() / points.len();
        let at = |p: usize, t: usize| &cells[p * num_tasks + t];
        let values =
            |cell: &Cell| -> Vec<f64> { columns.iter().map(|&(m, f)| cell.value(m, f)).collect() };
        let headers: Vec<String> = columns.iter().map(|&(m, f)| header(m, f)).collect();
        let label = |x: Option<f64>| x.map_or_else(String::new, |x| format!("{x}"));

        let (first, header_cols, rows) = match self.rows {
            Rows::Tasks | Rows::TaskDelta => {
                let delta = self.rows == Rows::TaskDelta;
                let mut rows: Vec<Row> = (0..num_tasks)
                    .map(|t| {
                        let values = if delta {
                            let (base, last) = (values(at(0, t)), values(at(points.len() - 1, t)));
                            last.iter().zip(&base).map(|(l, b)| l - b).collect()
                        } else {
                            (0..points.len()).flat_map(|p| values(at(p, t))).collect()
                        };
                        Row {
                            label: at(0, t).task.clone(),
                            tasks: 1,
                            values,
                        }
                    })
                    .collect();
                rows.push(mean_row("Average", rows.iter().map(|r| r.values.clone())));
                let header_cols = if delta {
                    headers.iter().map(|h| format!("Δ {h}")).collect()
                } else if points.len() > 1 {
                    let at_point = |&p| headers.iter().map(move |h| format!("{h} @{}", label(p)));
                    points.iter().flat_map(at_point).collect()
                } else {
                    headers
                };
                ("Dataset", header_cols, rows)
            }
            Rows::Points => {
                let rows = points
                    .iter()
                    .enumerate()
                    .map(|(p, &x)| mean_row(&label(x), (0..num_tasks).map(|t| values(at(p, t)))))
                    .collect();
                let knob = self.knob().map_or("Point", Knob::label);
                (knob, headers, rows)
            }
            Rows::SizeBuckets => {
                // Quintiles of |L|·|R| over the tasks (of the first point).
                let size = |t: usize| at(0, t).size.0 * at(0, t).size.1;
                let mut sorted: Vec<usize> = (0..num_tasks).map(size).collect();
                sorted.sort_unstable();
                let bucket = |t: usize| {
                    let rank = sorted.partition_point(|&s| s <= size(t));
                    (rank.saturating_sub(1) * 5 / sorted.len().max(1)).min(4)
                };
                let rows = (0..5)
                    .filter_map(|b| {
                        let members: Vec<usize> =
                            (0..num_tasks).filter(|&t| bucket(t) == b).collect();
                        (!members.is_empty()).then(|| {
                            mean_row(
                                &format!("{}", b + 1),
                                members.iter().map(|&t| values(at(0, t))),
                            )
                        })
                    })
                    .collect();
                ("Bucket", headers, rows)
            }
        };
        let tau_precision_correlation = (self.knob() == Some(Knob::Tau)).then(|| {
            let precision = columns
                .iter()
                .position(|&c| c == (Method::AutoFj, Field::Precision))
                .expect("a τ sweep reports AutoFJ's precision");
            let taus: Vec<f64> = points.iter().flatten().copied().collect();
            let achieved: Vec<f64> = rows.iter().map(|r: &Row| r.values[precision]).collect();
            pearson(&taus, &achieved)
        });
        let mut header = vec![first.to_string(), "n".to_string()];
        header.extend(header_cols);
        Report {
            entry: self.name.to_string(),
            title: self.title.to_string(),
            threads: rayon::current_num_threads(),
            header,
            rows,
            tau_precision_correlation,
            cells,
        }
    }
}

/// A column header, e.g. `AutoFJ P`, `Excel AR`, `UBR`.
fn header(method: Method, field: Field) -> String {
    let m = method.label();
    match field {
        Field::Precision => format!("{m} P"),
        Field::Recall if method.is_autofj() => format!("{m} R"),
        Field::Recall => format!("{m} AR"),
        Field::PrAuc => format!("{m} PR-AUC"),
        Field::JoinedShare => format!("{m} joined/|R|"),
        Field::Seconds => format!("{m} s"),
        Field::Ubr => "UBR".to_string(),
        Field::Pepcc => "PEPCC".to_string(),
        Field::PrecomputeSeconds => "precompute s".to_string(),
        Field::GreedySeconds => "greedy s".to_string(),
        Field::LrPairs => "L-R pairs".to_string(),
    }
}

/// The averages row: the mean of each value position over `rows`, summed
/// in order.
fn mean_row(label: &str, rows: impl Iterator<Item = Vec<f64>>) -> Row {
    let mut sum: Vec<f64> = Vec::new();
    let mut n = 0;
    for values in rows {
        sum.resize(values.len(), 0.0);
        for (s, v) in sum.iter_mut().zip(values) {
            *s += v;
        }
        n += 1;
    }
    Row {
        label: label.to_string(),
        tasks: n,
        values: sum.iter().map(|s| s / n.max(1) as f64).collect(),
    }
}

impl Report {
    /// Print the table (and a τ sweep's correlation).
    fn print(&self) {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let mut table = Reporter::new(&self.title, &header);
        for row in &self.rows {
            let mut cells = vec![row.label.clone(), row.tasks.to_string()];
            cells.extend(row.values.iter().map(|v| format!("{v:.3}")));
            table.add_row(cells);
        }
        table.print();
        if let Some(corr) = self.tau_precision_correlation {
            println!("Correlation between target and achieved precision: {corr:.4}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(task_limit: usize) -> Settings {
        Settings {
            scale: BenchmarkScale::Tiny,
            task_limit,
            space: JoinFunctionSpace::reduced24(),
            mc_scale: 0.06,
        }
    }

    fn autofj(cell: &Cell) -> &Score {
        &cell.scores[0]
    }

    #[test]
    fn every_paper_artifact_has_exactly_one_entry() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let artifacts = [
            "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b", "fig7cd", "table2", "table4",
            "table4b", "table5", "table6", "table7",
        ];
        assert_eq!(names, artifacts);
        for e in ENTRIES {
            assert_eq!(entry(e.name).unwrap().name, e.name);
        }
    }

    #[test]
    fn an_unknown_entry_names_the_entries() {
        let err = entry("no_such_entry").unwrap_err();
        assert!(err.contains("no_such_entry"), "{err}");
        assert!(err.contains("table2, table4, table4b"), "{err}");
    }

    /// One Table 2 cell scores every method it names, within range.
    #[test]
    fn a_table2_cell_scores_autofj_every_baseline_and_both_ablations() {
        let cells = entry("table2").unwrap().cells(&tiny(1));
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        let methods: Vec<&str> = cell.scores.iter().map(|s| s.method.as_str()).collect();
        let expected = [
            "AutoFJ",
            "Excel",
            "FW",
            "ZeroER",
            "ECM",
            "PP",
            "Magellan",
            "DM",
            "AL",
            "AutoFJ-UC",
            "AutoFJ-NR",
        ];
        assert_eq!(methods, expected);
        for s in &cell.scores {
            assert!((0.0..=1.0).contains(&s.precision), "{s:?}");
            assert!((0.0..=1.0).contains(&s.recall), "{s:?}");
            let baseline = BASELINES.iter().any(|m| m.label() == s.method);
            assert_eq!(s.pr_auc.is_some(), baseline, "{s:?}");
        }
        let ubr = cell.ubr.expect("Table 2 reports UBR");
        assert!(ubr > 0.0 && ubr >= autofj(cell).recall, "{ubr} {cell:?}");
        let report = entry("table2").unwrap().report(cells.clone());
        assert_eq!(report.rows.len(), 2, "one task row and the averages row");
        assert_eq!(report.rows[0].values, report.rows[1].values);
        assert_eq!(report.header.len(), report.rows[0].values.len() + 2);
    }

    /// Table 6's space points reach the join: each cell reports what a
    /// direct run in that space reports.
    #[test]
    fn table6_cells_equal_direct_runs_in_each_space() {
        let cells = entry("table6").unwrap().cells(&tiny(1));
        let task = benchmark_specs(BenchmarkScale::Tiny)[0].generate();
        let spaces = [JoinFunctionSpace::reduced24(), JoinFunctionSpace::full()];
        assert_eq!(cells.len(), spaces.len());
        for (cell, space) in cells.iter().zip(&spaces) {
            let (_, quality, _, _) = run_autofj(&task, space, &autofj_options());
            assert_eq!(cell.task, task.name);
            assert_eq!(autofj(cell).precision, quality.precision, "{}", space.len());
            assert_eq!(
                autofj(cell).recall,
                quality.recall_relative,
                "{}",
                space.len()
            );
        }
    }

    /// Fig. 7(c,d)'s claim at `tiny`: the full 140-function space recalls at
    /// least what the reduced 24-function space recalls.  Recall need not
    /// rise at every step; at `tiny`, |S| = 38 reads below |S| = 24.
    #[test]
    fn fig7cd_recall_at_140_functions_is_at_least_recall_at_24() {
        let fig7cd = entry("fig7cd").unwrap();
        let report = fig7cd.report(fig7cd.cells(&tiny(usize::MAX)));
        let recall = (report.header.iter().skip(2))
            .position(|h| h == "AutoFJ R")
            .expect("Fig. 7(c,d) reports AutoFJ's recall");
        let at = |size: &str| {
            let row = report.rows.iter().find(|r| r.label == size);
            row.unwrap_or_else(|| panic!("no |S| = {size} row")).values[recall]
        };
        assert!(at("140") >= at("24"), "{} < {}", at("140"), at("24"));
    }

    /// A τ point reaches `AutoFjOptions`.
    #[test]
    fn a_tau_point_equals_a_direct_run_at_that_target() {
        let fig7a = Entry {
            sweep: Some(Sweep {
                knob: Knob::Tau,
                points: &[0.6],
            }),
            ..*entry("fig7a").unwrap()
        };
        let cells = fig7a.cells(&tiny(1));
        let task = benchmark_specs(BenchmarkScale::Tiny)[0].generate();
        let options = AutoFjOptions {
            precision_target: 0.6,
            ..autofj_options()
        };
        let (_, quality, _, _) = run_autofj(&task, &JoinFunctionSpace::reduced24(), &options);
        assert_eq!(cells.len(), 1);
        assert_eq!(autofj(&cells[0]).precision, quality.precision);
        assert_eq!(autofj(&cells[0]).recall, quality.recall_relative);
        let excel = &cells[0].scores[1];
        assert_eq!(excel.method, "Excel");
        let report = fig7a.report(cells);
        assert_eq!(
            report.header,
            ["τ", "n", "AutoFJ P", "AutoFJ R", "Excel AR"]
        );
        assert_eq!(report.rows[0].label, "0.6");
        assert_eq!(report.rows[0].values[0], quality.precision);
    }
}
