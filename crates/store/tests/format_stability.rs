//! Format stability: `fixtures/teams_v1.afj` is a format-version-1 snapshot
//! written by an earlier build of this crate, the one whose loader still
//! went through a page cache.  It was made from the two record files beside
//! it with
//!
//! ```text
//! autofj_serve build --space reduced24 \
//!     --left crates/store/tests/fixtures/teams_left.txt \
//!     --right crates/store/tests/fixtures/teams_right.txt \
//!     --out crates/store/tests/fixtures/teams_v1.afj
//! ```
//!
//! (40 × 5 records, default options: two configurations, negative rules
//! on).  The current reader must load it and serve its answers, and the
//! current writer must write the loaded state back byte for byte, so the
//! on-disk format cannot drift unnoticed.

use autofj_store::ServingState;
use std::path::Path;

#[test]
fn committed_v1_snapshot_loads_serves_and_resaves_byte_identically() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/teams_v1.afj");
    let state = ServingState::load(&fixture).expect("the committed snapshot loads");
    assert_eq!((state.num_left(), state.num_right()), (40, 5));

    // The four stored rights that name a season join it; the unrelated
    // string does not.
    let joined: Vec<Option<usize>> = state.join_all().iter().map(|m| m.map(|m| m.left)).collect();
    assert_eq!(joined, [Some(5), Some(17), Some(34), Some(13), None]);

    let resaved = std::env::temp_dir().join(format!(
        "autofj_format_stability_{}.afj",
        std::process::id()
    ));
    state.save(&resaved).expect("save");
    let (old, new) = (
        std::fs::read(&fixture).unwrap(),
        std::fs::read(&resaved).unwrap(),
    );
    std::fs::remove_file(&resaved).ok();
    assert!(old == new, "re-saved snapshot differs from the fixture");
}
