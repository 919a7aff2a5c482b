//! Format stability across versions.  Both fixtures were made from the two
//! record files beside them (40 × 5 records, default options: two
//! configurations, negative rules on).
//!
//! `fixtures/teams_v1.afj` is a format-version-1 snapshot written by an
//! earlier build of this crate, the one whose loader still went through a
//! page cache.  Version 1 also stored the vocabularies, the token sets and
//! the blocking index, which the current reader re-derives from the raw
//! records, so it must still load and serve the same answers.
//!
//! `fixtures/teams_v2.afj` is a format-version-2 snapshot, written with
//!
//! ```text
//! autofj_serve build --space reduced24 \
//!     --left crates/store/tests/fixtures/teams_left.txt \
//!     --right crates/store/tests/fixtures/teams_right.txt \
//!     --out crates/store/tests/fixtures/teams_v2.afj
//! ```
//!
//! The current writer must write the loaded state back byte for byte, so
//! the on-disk format cannot drift unnoticed.

use autofj_store::ServingState;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Load `name` and check it serves the fixture task's answers: the four
/// stored rights that name a season join it; the unrelated string does not.
fn load_and_check_answers(name: &str) -> ServingState {
    let state = ServingState::load(&fixture(name)).expect("the committed snapshot loads");
    assert_eq!((state.num_left(), state.num_right()), (40, 5));
    let joined: Vec<Option<usize>> = state.join_all().iter().map(|m| m.map(|m| m.left)).collect();
    assert_eq!(joined, [Some(5), Some(17), Some(34), Some(13), None]);
    state
}

#[test]
fn committed_v1_snapshot_loads_and_serves() {
    load_and_check_answers("teams_v1.afj");
}

#[test]
fn committed_v2_snapshot_loads_serves_and_resaves_byte_identically() {
    let state = load_and_check_answers("teams_v2.afj");
    let resaved = std::env::temp_dir().join(format!(
        "autofj_format_stability_{}.afj",
        std::process::id()
    ));
    state.save(&resaved).expect("save");
    let (old, new) = (
        std::fs::read(fixture("teams_v2.afj")).unwrap(),
        std::fs::read(&resaved).unwrap(),
    );
    std::fs::remove_file(&resaved).ok();
    assert!(old == new, "re-saved snapshot differs from the fixture");
}
