//! Generator-determinism pins for the scenario-robustness registry.
//!
//! The `bench_smoke scenarios` gate diffs committed data profiles against
//! freshly generated ones, which is only sound if generation is a pure
//! function of the [`autofj_datagen::ScenarioSpec`]: the same spec + seed
//! must produce byte-identical tables and an identical profile on every run
//! and at every worker-thread count.  These properties pin that contract.

use autofj_datagen::{scenario_registry, ScenarioData};
use proptest::prelude::*;
use std::sync::Mutex;

/// `build_global` mutates process-wide state and libtest runs tests
/// concurrently; thread-count sweeps serialize on this lock.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// The byte-exact serialized form of a scenario's generated tables.
fn serialized(data: &ScenarioData) -> String {
    match data {
        ScenarioData::Single(task) => serde_json::to_string(task).expect("task serializes"),
        ScenarioData::Multi(task) => serde_json::to_string(task).expect("task serializes"),
    }
}

#[test]
fn every_registry_scenario_regenerates_byte_identically() {
    for spec in scenario_registry() {
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(
            serialized(&a),
            serialized(&b),
            "{}: tables differ across runs",
            spec.name
        );
        assert_eq!(a.profile(), b.profile(), "{}: profile drifts", spec.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any registry scenario generates the same bytes and profile no matter
    /// how many worker threads the execution engine is configured with.
    #[test]
    fn generation_is_thread_count_independent(
        scenario_idx in 0usize..scenario_registry().len(),
        threads in 1usize..=8,
    ) {
        let spec = scenario_registry().swap_remove(scenario_idx);
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .expect("configure shim pool");
        let base = spec.generate();

        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("configure shim pool");
        let other = spec.generate();

        // Restore the environment-driven default before releasing the lock.
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");

        prop_assert!(
            serialized(&base) == serialized(&other),
            "{}: tables differ between 1 and {} threads",
            spec.name,
            threads
        );
        prop_assert_eq!(base.profile(), other.profile());
        let profile = base.profile();
        let (l, r) = base.size();
        prop_assert_eq!(profile.left_rows, l);
        prop_assert_eq!(profile.right_rows, r);
    }
}
