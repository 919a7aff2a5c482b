//! # autofj-datagen
//!
//! Synthetic benchmark generators for Auto-FuzzyJoin experiments.
//!
//! The paper evaluates on 50 single-column fuzzy-join tasks harvested from
//! DBPedia snapshots and 8 multi-column entity-resolution datasets from the
//! Magellan repository.  Neither is redistributable/obtainable offline, so
//! this crate generates *structure-preserving synthetic analogs* (the
//! substitution is documented in `DESIGN.md`): reference tables of unique
//! canonical entity names, query tables of perturbed variants with exact
//! ground truth, incomplete reference coverage, many-to-one matches, and —
//! for the multi-column tasks — a mix of informative and irrelevant columns
//! with missing values.
//!
//! * [`single_column`] — the 50-task single-column benchmark (Table 2).
//! * [`multi_column`] — the 8-task multi-column benchmark (Table 3).
//! * [`adversarial`] — the robustness transformations of Figure 6 / Table 4(b).
//! * [`scenario`] — the named scenario-robustness registry (deterministic
//!   stress scenarios + committed data profiles) behind the
//!   `scenarios` section of the `bench_smoke` gate and the paper registry's
//!   sweeps.
//! * [`perturb`] — the string-variation model.

pub mod adversarial;
pub mod multi_column;
pub mod perturb;
pub mod scenario;
pub mod single_column;
pub mod task;
pub mod words;

pub use multi_column::MultiColumnDataset;
pub use perturb::{Perturbation, PerturbationMix};
pub use scenario::{scenario_registry, ScenarioData, ScenarioKind, ScenarioSpec};
pub use single_column::{
    benchmark_specs, generate_benchmark, large_spec, medium_smoke_spec, BenchmarkScale, DomainSpec,
    Family,
};
pub use task::{MultiColumnTask, SingleColumnTask};
