//! Property tests pinning the snapshot round trip: a state learned on a
//! random table, grown by an append, serialized, and loaded back must answer
//! every query byte-identically to the in-memory state — at every thread
//! count — and a corrupted file must be rejected, never mis-served.

use autofj_core::AutoFjOptions;
use autofj_store::{ServingState, StoreError};
use autofj_text::JoinFunctionSpace;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Strategy: short token-ish strings (letters, digits, spaces).
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9]{1,8}( [A-Za-z0-9]{1,8}){0,5}").unwrap()
}

/// `build_global` mutates process-wide state; properties sweeping thread
/// counts serialize on this lock so concurrent test threads never observe a
/// half-configured pool.
static POOL_LOCK: Mutex<()> = Mutex::new(());

fn temp_path(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "autofj_snapshot_prop_{}_{label}_{n}.afj",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Learn on a random table, append a random batch, snapshot, load: the
    /// loaded state answers the stored rights, the appended batch and novel
    /// queries exactly like the appended in-memory state, at 1, 2 and 4
    /// worker threads.  Load re-derives the column from the raw records, so
    /// this pins that the re-derived column (and the IDF ball rows that
    /// the append re-derived) survive the round trip.
    #[test]
    fn loaded_snapshot_serves_byte_identically_across_thread_counts(
        left in proptest::collection::vec(name_strategy(), 1..24),
        right in proptest::collection::vec(name_strategy(), 0..12),
        appended in proptest::collection::vec(name_strategy(), 0..8),
        novel in proptest::collection::vec(name_strategy(), 0..6),
    ) {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let (mut state, result) = ServingState::learn(&left, &right, &space, &options);

        // Before the append, the replayed stored rights equal the batch
        // assignment.
        for (r, matched) in state.query_batch(&right).iter().enumerate() {
            prop_assert_eq!(matched.map(|m| m.left), result.assignment[r]);
        }
        state.append_right(&appended);

        let path = temp_path("roundtrip");
        state.save(&path).expect("save");
        let loaded = ServingState::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);

        // The manifest survives: same program, same table sizes, same
        // quality estimates (bit-exact — they ride in a binary section).
        prop_assert_eq!(
            serde_json::to_string(&loaded.program()).unwrap(),
            serde_json::to_string(&result.program).unwrap()
        );
        prop_assert_eq!(loaded.num_left(), left.len());
        prop_assert_eq!(loaded.num_right(), right.len() + appended.len());
        prop_assert_eq!(
            loaded.estimated_precision().to_bits(),
            result.estimated_precision.to_bits()
        );

        // Query workload: every stored right, the appended batch, and novel
        // strings.
        let queries: Vec<String> = right.iter().chain(&appended).chain(&novel).cloned().collect();
        let reference = state.query_batch(&queries);
        prop_assert!(loaded.join_all() == state.join_all(), "stored rights differ");

        for threads in [1usize, 2, 4] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .expect("configure shim pool");
            let from_memory = state.query_batch(&queries);
            let from_disk = loaded.query_batch(&queries);
            prop_assert!(from_memory == reference, "in-memory differs at {threads} threads");
            prop_assert!(from_disk == reference, "loaded differs at {threads} threads");
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .expect("reset shim pool");
    }

    /// Flipping any single byte of the payload is detected on open — the
    /// checksum covers the whole payload, so a damaged snapshot can never
    /// serve wrong answers.
    #[test]
    fn any_payload_bit_flip_is_rejected(
        left in proptest::collection::vec(name_strategy(), 1..10),
        right in proptest::collection::vec(name_strategy(), 1..6),
        pick in 0usize..10_000,
    ) {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let space = JoinFunctionSpace::reduced24();
        let options = AutoFjOptions::default();
        let (state, _) = ServingState::learn(&left, &right, &space, &options);

        let path = temp_path("corrupt");
        state.save(&path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip one payload byte (anywhere past the 40-byte header).
        let payload_len = bytes.len() - 40;
        let offset = 40 + pick % payload_len;
        bytes[offset] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corrupted");

        let err = ServingState::load(&path).expect_err("corruption must be detected");
        prop_assert!(
            matches!(
                err,
                StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)
            ),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Truncating the file anywhere — mid-payload or into the header — is
/// rejected on open.
#[test]
fn truncated_snapshots_are_rejected() {
    let left: Vec<String> = vec!["alpha beta".into(), "gamma delta".into()];
    let right: Vec<String> = vec!["alpha betta".into()];
    let (state, _) = ServingState::learn(
        &left,
        &right,
        &JoinFunctionSpace::reduced24(),
        &AutoFjOptions::default(),
    );
    let path = temp_path("truncate");
    state.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    for keep in [bytes.len() - 1, bytes.len() / 2, 41, 39, 8, 0] {
        std::fs::write(&path, &bytes[..keep]).expect("write truncated");
        assert!(
            ServingState::load(&path).is_err(),
            "truncation to {keep} bytes went undetected"
        );
    }
    let _ = std::fs::remove_file(&path);
}
