//! The scenario-robustness registry: named, deterministic stress scenarios
//! behind the paper's Figure 6 / Table 4(b) experiments and the `scenarios`
//! section of the `bench_smoke` gate.
//!
//! Every [`ScenarioSpec`] is fully determined by its parameters and seed —
//! generating it twice (at any thread count) yields byte-identical tables —
//! and summarizes into a committed [`DataProfile`] (row counts, null rate,
//! token-frequency skew, length distribution, match density).  The profile
//! rides next to the quality fields in `BENCH_*.json`, so when the gate
//! trips, the failure is attributable: a drifted profile means the generator
//! changed, a drifted quality field under an identical profile means the
//! pipeline changed.
//!
//! [`scenario_registry`] names the committed matrix (zero-join, irrelevant
//! injection at several rates, sparsified reference, the three perturbation
//! mixes, Zipf-skewed token distributions that stress q-gram blocking, and a
//! multi-column blend with random-column noise).  The paper registry of
//! `autofj-bench` builds every task of its tables and figures through the
//! same constructors, so the CI matrix and the paper figures can never
//! quietly diverge.

use crate::adversarial::{
    add_irrelevant_records, add_random_columns, sparsify_reference, unrelated_pair,
};
use crate::multi_column::MultiColumnDataset;
use crate::perturb::PerturbationMix;
use crate::single_column::{benchmark_specs, BenchmarkScale, DomainSpec, Family};
use crate::task::{MultiColumnTask, SingleColumnTask};
use autofj_eval::{profile_tables, DataProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// What a scenario does to its base data.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// `L` and `R` come from unrelated domains: every join is a false
    /// positive and the ground truth is all-⊥ (Figure 6(b)).
    ZeroJoin {
        /// Domain whose reference table becomes `L`.
        left: DomainSpec,
        /// Domain whose query table becomes `R`.
        right: DomainSpec,
    },
    /// Mix irrelevant records (drawn from a donor domain's reference table)
    /// into `R` (Figure 6(a)).
    IrrelevantRecords {
        /// The base task.
        base: DomainSpec,
        /// Donor of irrelevant records.
        donor: DomainSpec,
        /// Fraction of the resulting `R` that is irrelevant.
        fraction: f64,
    },
    /// Remove a fraction of the reference table, re-pointing orphaned ground
    /// truth at ⊥ (Figure 6(c)).
    SparseReference {
        /// The base task.
        base: DomainSpec,
        /// Fraction of `L` records removed.
        remove_fraction: f64,
    },
    /// A plain task whose difficulty is the perturbation mix baked into the
    /// spec (`balanced` / `token_heavy` / `char_heavy`).
    PerturbationStress {
        /// The task spec, mix included.
        base: DomainSpec,
    },
    /// Entity names drawn from a Zipf-skewed token pool: a few head tokens
    /// carry most of the frequency mass, which floods the q-gram postings
    /// the blocker relies on (blocking stress).
    SkewedTokens {
        /// Distinct canonical entities.
        num_entities: usize,
        /// Query records.
        num_right: usize,
        /// Fraction of entities present in `L`.
        left_coverage: f64,
        /// Zipf exponent `s` of the token distribution (`weight ∝ rank^-s`).
        zipf_exponent: f64,
    },
    /// A multi-column task, optionally blended with columns of random
    /// strings (Table 4(b)).
    MultiColumnBlend {
        /// Which Table 3 dataset analog to generate.
        dataset: MultiColumnDataset,
        /// Size multiplier of the generated tables.
        scale: f64,
        /// Random-string columns appended to both tables.
        random_columns: usize,
    },
}

impl ScenarioKind {
    /// Short machine-readable label of the scenario family.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::ZeroJoin { .. } => "zero_join",
            ScenarioKind::IrrelevantRecords { .. } => "irrelevant_records",
            ScenarioKind::SparseReference { .. } => "sparse_reference",
            ScenarioKind::PerturbationStress { .. } => "perturbation_stress",
            ScenarioKind::SkewedTokens { .. } => "skewed_tokens",
            ScenarioKind::MultiColumnBlend { .. } => "multi_column_blend",
        }
    }
}

/// The generated data of one scenario.
#[derive(Debug, Clone)]
pub enum ScenarioData {
    /// A single-column task.
    Single(SingleColumnTask),
    /// A multi-column task.
    Multi(MultiColumnTask),
}

impl ScenarioData {
    /// `(|L|, |R|)`.
    pub fn size(&self) -> (usize, usize) {
        match self {
            ScenarioData::Single(t) => (t.left.len(), t.right.len()),
            ScenarioData::Multi(t) => (t.left.len(), t.right.len()),
        }
    }

    /// Ground-truth assignment of the query table.
    pub fn ground_truth(&self) -> &[Option<usize>] {
        match self {
            ScenarioData::Single(t) => &t.ground_truth,
            ScenarioData::Multi(t) => &t.ground_truth,
        }
    }

    /// Number of ground-truth matches.
    pub fn num_matches(&self) -> usize {
        self.ground_truth().iter().flatten().count()
    }

    /// Internal-consistency check (delegates to the task validators).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioData::Single(t) => t.validate(),
            ScenarioData::Multi(t) => t.validate(),
        }
    }

    /// The deterministic shape summary committed next to quality numbers.
    pub fn profile(&self) -> DataProfile {
        match self {
            ScenarioData::Single(t) => profile_tables(&[&t.left], &[&t.right], &t.ground_truth),
            ScenarioData::Multi(t) => {
                let left: Vec<&[String]> = t
                    .left
                    .columns()
                    .iter()
                    .map(|c| c.values.as_slice())
                    .collect();
                let right: Vec<&[String]> = t
                    .right
                    .columns()
                    .iter()
                    .map(|c| c.values.as_slice())
                    .collect();
                profile_tables(&left, &right, &t.ground_truth)
            }
        }
    }
}

/// One named, seeded stress scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Stable scenario name (the key the bench gate diffs on).
    pub name: String,
    /// Seed of every random choice the scenario makes on top of its base
    /// specs (which carry their own seeds).
    pub seed: u64,
    /// What the scenario generates.
    pub kind: ScenarioKind,
}

impl ScenarioSpec {
    /// A zero-join scenario pairing two unrelated domains.
    pub fn zero_join(name: &str, left: DomainSpec, right: DomainSpec) -> Self {
        Self {
            name: name.to_string(),
            seed: 0,
            kind: ScenarioKind::ZeroJoin { left, right },
        }
    }

    /// An irrelevant-record-injection scenario.
    pub fn irrelevant(
        name: &str,
        base: DomainSpec,
        donor: DomainSpec,
        fraction: f64,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            seed,
            kind: ScenarioKind::IrrelevantRecords {
                base,
                donor,
                fraction,
            },
        }
    }

    /// A sparsified-reference scenario.
    pub fn sparse(name: &str, base: DomainSpec, remove_fraction: f64, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            seed,
            kind: ScenarioKind::SparseReference {
                base,
                remove_fraction,
            },
        }
    }

    /// A perturbation-mix stress scenario (the mix rides in `base.mix`).
    pub fn perturbation(name: &str, base: DomainSpec) -> Self {
        Self {
            name: name.to_string(),
            seed: base.seed,
            kind: ScenarioKind::PerturbationStress { base },
        }
    }

    /// A Zipf-skewed-token scenario.
    pub fn skewed_tokens(
        name: &str,
        num_entities: usize,
        num_right: usize,
        left_coverage: f64,
        zipf_exponent: f64,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            seed,
            kind: ScenarioKind::SkewedTokens {
                num_entities,
                num_right,
                left_coverage,
                zipf_exponent,
            },
        }
    }

    /// A multi-column scenario, with `random_columns` noise columns appended
    /// (0 = the plain Table 3 analog).
    pub fn multi_column(
        name: &str,
        dataset: MultiColumnDataset,
        scale: f64,
        random_columns: usize,
        seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            seed,
            kind: ScenarioKind::MultiColumnBlend {
                dataset,
                scale,
                random_columns,
            },
        }
    }

    /// Generate the scenario's data.  Deterministic: the same spec always
    /// produces byte-identical tables, at any thread count.
    pub fn generate(&self) -> ScenarioData {
        match &self.kind {
            ScenarioKind::ZeroJoin { left, right } => {
                let task = unrelated_pair(&left.generate(), &right.generate());
                ScenarioData::Single(SingleColumnTask {
                    name: self.name.clone(),
                    ..task
                })
            }
            ScenarioKind::IrrelevantRecords {
                base,
                donor,
                fraction,
            } => {
                let donor_pool = donor.generate().left;
                let task =
                    add_irrelevant_records(&base.generate(), &donor_pool, *fraction, self.seed);
                ScenarioData::Single(SingleColumnTask {
                    name: self.name.clone(),
                    ..task
                })
            }
            ScenarioKind::SparseReference {
                base,
                remove_fraction,
            } => {
                let task = sparsify_reference(&base.generate(), *remove_fraction, self.seed);
                ScenarioData::Single(SingleColumnTask {
                    name: self.name.clone(),
                    ..task
                })
            }
            ScenarioKind::PerturbationStress { base } => {
                let task = base.generate();
                ScenarioData::Single(SingleColumnTask {
                    name: self.name.clone(),
                    ..task
                })
            }
            ScenarioKind::SkewedTokens {
                num_entities,
                num_right,
                left_coverage,
                zipf_exponent,
            } => ScenarioData::Single(generate_skewed_tokens(
                &self.name,
                *num_entities,
                *num_right,
                *left_coverage,
                *zipf_exponent,
                self.seed,
            )),
            ScenarioKind::MultiColumnBlend {
                dataset,
                scale,
                random_columns,
            } => {
                let mut task = dataset.generate(*scale, self.seed);
                if *random_columns > 0 {
                    task = add_random_columns(&task, *random_columns, self.seed ^ 0xD1CE);
                }
                task.name = self.name.clone();
                ScenarioData::Multi(task)
            }
        }
    }
}

/// Deterministic Zipf sampler over ranks `0..n` (`weight ∝ (rank+1)^-s`),
/// via inverse-CDF binary search on a precomputed cumulative table.
struct ZipfSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs a non-empty pool");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Self { cumulative, total }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let x = rng.gen_range(0.0..self.total);
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Generate a single-column task whose entity names are built from a
/// Zipf-skewed token pool: head tokens repeat across most entities, so the
/// q-gram posting lists the blocker probes are extremely unbalanced and the
/// IDF weighting of set distances carries most of the signal.
fn generate_skewed_tokens(
    name: &str,
    num_entities: usize,
    num_right: usize,
    left_coverage: f64,
    zipf_exponent: f64,
    seed: u64,
) -> SingleColumnTask {
    use crate::words::{CITIES, FACILITY_KINDS, MASCOTS, PLACES};
    let mut rng = SmallRng::seed_from_u64(seed);
    // A fixed, ordered token pool; rank order (and therefore which tokens
    // are "head" tokens) is part of the scenario definition.
    let pool: Vec<&str> = PLACES
        .iter()
        .chain(MASCOTS.iter())
        .chain(CITIES.iter())
        .chain(FACILITY_KINDS.iter())
        .copied()
        .collect();
    let zipf = ZipfSampler::new(pool.len(), zipf_exponent);

    // 1. Unique canonical names of 3–4 Zipf-sampled tokens.
    let mut canonical: Vec<String> = Vec::with_capacity(num_entities);
    let mut seen: HashSet<String> = HashSet::with_capacity(num_entities);
    let mut attempts = 0usize;
    while canonical.len() < num_entities && attempts < num_entities * 400 {
        attempts += 1;
        let num_tokens = 3 + usize::from(rng.gen_bool(0.4));
        let mut name: String = String::new();
        for k in 0..num_tokens {
            if k > 0 {
                name.push(' ');
            }
            name.push_str(pool[zipf.sample(&mut rng)]);
        }
        if seen.contains(&name) {
            name = format!("{name} {}", rng.gen_range(2..100));
            if seen.contains(&name) {
                continue;
            }
        }
        seen.insert(name.clone());
        canonical.push(name);
    }

    // 2. Reference table: the first `left_coverage` fraction of entities
    //    (selection by prefix keeps the split trivially deterministic).
    let num_left =
        (((canonical.len() as f64) * left_coverage).round() as usize).clamp(1, canonical.len());
    let left: Vec<String> = canonical[..num_left].to_vec();

    // 3. Query table: perturbed variants of random entities.
    let mix = PerturbationMix::balanced();
    let mut right = Vec::with_capacity(num_right);
    let mut ground_truth = Vec::with_capacity(num_right);
    for _ in 0..num_right {
        let e = rng.gen_range(0..canonical.len());
        right.push(mix.perturb(&canonical[e], &mut rng));
        ground_truth.push(if e < num_left { Some(e) } else { None });
    }

    let task = SingleColumnTask {
        name: name.to_string(),
        left,
        right,
        ground_truth,
    };
    debug_assert!(task.validate().is_ok());
    task
}

/// The committed scenario matrix: the named stress scenarios the
/// `bench_smoke` gate's `scenarios` section runs and gates.  Sizes are pinned to the
/// `Small` benchmark scale (independent of `AUTOFJ_SCALE`) so the committed
/// profiles and quality numbers mean the same thing everywhere.
pub fn scenario_registry() -> Vec<ScenarioSpec> {
    let specs = benchmark_specs(BenchmarkScale::Small);
    // Stable picks from the 50-task benchmark (indices are part of the
    // registry definition): 36 = ShoppingMall (the smoke task), 1 =
    // ArtificialSatellite, 20 = Hospital, 40 = Song, 19 = HistoricBuilding.
    let shopping_mall = specs[36].clone();
    let satellite = specs[1].clone();
    let hospital = specs[20].clone();
    let song = specs[40].clone();
    let historic = specs[19].clone();

    let mix_base = |mix: PerturbationMix, seed: u64| DomainSpec {
        name: String::new(), // renamed by the scenario
        family: Family::TeamSeason,
        num_entities: 400,
        left_coverage: 0.9,
        num_right: 160,
        mix,
        seed,
    };

    vec![
        ScenarioSpec::zero_join("zero_join_satellite_hospital", satellite, hospital),
        ScenarioSpec::irrelevant(
            "irrelevant_25",
            shopping_mall.clone(),
            song.clone(),
            0.25,
            0xF16A_0001,
        ),
        ScenarioSpec::irrelevant(
            "irrelevant_50",
            shopping_mall.clone(),
            song.clone(),
            0.50,
            0xF16A_0002,
        ),
        ScenarioSpec::irrelevant("irrelevant_80", shopping_mall, song, 0.80, 0xF16A_0003),
        ScenarioSpec::sparse("sparse_reference_30", historic.clone(), 0.30, 0x6C_0001),
        ScenarioSpec::sparse("sparse_reference_60", historic, 0.60, 0x6C_0002),
        ScenarioSpec::perturbation(
            "mix_balanced",
            mix_base(PerturbationMix::balanced(), 0xA07F_9001),
        ),
        ScenarioSpec::perturbation(
            "mix_token_heavy",
            mix_base(PerturbationMix::token_heavy(), 0xA07F_9002),
        ),
        ScenarioSpec::perturbation(
            "mix_char_heavy",
            mix_base(PerturbationMix::char_heavy(), 0xA07F_9003),
        ),
        ScenarioSpec::skewed_tokens("skewed_tokens_zipf", 400, 160, 0.9, 1.2, 0x21BF_0001),
        ScenarioSpec::multi_column(
            "multi_column_random_noise",
            MultiColumnDataset::BR,
            0.12,
            3,
            0xBEEF,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_eight_uniquely_named_scenarios() {
        let registry = scenario_registry();
        assert!(registry.len() >= 8, "only {} scenarios", registry.len());
        let names: HashSet<_> = registry.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), registry.len(), "duplicate scenario names");
        // Every scenario family of the paper's stress suite is present.
        for family in [
            "zero_join",
            "irrelevant_records",
            "sparse_reference",
            "perturbation_stress",
            "skewed_tokens",
            "multi_column_blend",
        ] {
            assert!(
                registry.iter().any(|s| s.kind.label() == family),
                "missing scenario family {family}"
            );
        }
    }

    #[test]
    fn every_registry_scenario_generates_valid_data() {
        for spec in scenario_registry() {
            let data = spec.generate();
            data.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let (l, r) = data.size();
            assert!(l > 0 && r > 0, "{}: degenerate size {l}x{r}", spec.name);
            let profile = data.profile();
            assert_eq!(profile.left_rows, l);
            assert_eq!(profile.right_rows, r);
            assert!(
                (0.0..=1.0).contains(&profile.match_density),
                "{}: match density {}",
                spec.name,
                profile.match_density
            );
        }
    }

    #[test]
    fn zero_join_scenario_has_empty_ground_truth() {
        let spec = &scenario_registry()[0];
        assert_eq!(spec.kind.label(), "zero_join");
        let data = spec.generate();
        assert_eq!(data.num_matches(), 0);
        assert_eq!(data.profile().match_density, 0.0);
    }

    #[test]
    fn irrelevant_scenarios_dilute_match_density_monotonically() {
        let registry = scenario_registry();
        let density = |name: &str| {
            registry
                .iter()
                .find(|s| s.name == name)
                .expect("scenario present")
                .generate()
                .profile()
                .match_density
        };
        let d25 = density("irrelevant_25");
        let d50 = density("irrelevant_50");
        let d80 = density("irrelevant_80");
        assert!(d25 > d50 && d50 > d80, "{d25} {d50} {d80}");
    }

    #[test]
    fn skewed_scenario_is_more_skewed_than_balanced() {
        let registry = scenario_registry();
        let gini = |name: &str| {
            registry
                .iter()
                .find(|s| s.name == name)
                .expect("scenario present")
                .generate()
                .profile()
                .token_skew_gini
        };
        let skewed = gini("skewed_tokens_zipf");
        let balanced = gini("mix_balanced");
        assert!(
            skewed > balanced,
            "Zipf scenario ({skewed:.3}) should out-skew the balanced mix ({balanced:.3})"
        );
    }

    #[test]
    fn multi_column_scenario_carries_noise_columns() {
        let registry = scenario_registry();
        let spec = registry
            .iter()
            .find(|s| s.kind.label() == "multi_column_blend")
            .expect("multi-column scenario present");
        let ScenarioData::Multi(task) = spec.generate() else {
            panic!("multi-column scenario must generate a multi-column task");
        };
        assert!(task.left.num_columns() > 4, "noise columns missing");
        assert_eq!(task.left.num_columns(), task.right.num_columns());
    }

    #[test]
    fn zipf_sampler_prefers_head_ranks() {
        let zipf = ZipfSampler::new(100, 1.2);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut head = 0usize;
        const N: usize = 2000;
        for _ in 0..N {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under a uniform distribution the top-10 share would be ~10%.
        assert!(head > N / 3, "top-10 ranks drew only {head}/{N}");
    }
}
