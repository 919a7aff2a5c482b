//! # autofj-store
//!
//! Persistent snapshots of learned Auto-FuzzyJoin programs, and the frozen
//! [`ServingState`] an online service answers queries from.
//!
//! A snapshot is a single versioned, checksummed binary file (magic
//! [`MAGIC`], version [`FORMAT_VERSION`], a section table, then the section
//! bodies).  It keeps what the learn decided: the selected configurations,
//! the learned negative rules, the per-function ball-distance rows behind
//! the precision estimate, the blocked reference-side candidate lists and
//! the quality estimates, plus the raw record strings.
//! [`ServingState::load`] reads the file once and validates the header, the
//! section table and the whole-payload FNV-1a checksum before decoding.  It
//! then re-derives what is a pure function of the raw records, the prepared
//! column and the blocking index, with the constructors the learn itself
//! runs, and yields a state whose answers are byte-identical to the batch
//! pipeline that learned the program.  A damaged or hostile file is a
//! [`StoreError`], never a panic.
//!
//! ```
//! use autofj_core::{AutoFjOptions, join_single_column};
//! use autofj_store::{QueryScratch, ServingState};
//! use autofj_text::JoinFunctionSpace;
//!
//! let left: Vec<String> = ["2007 LSU Tigers football team",
//!                          "2007 Wisconsin Badgers football team",
//!                          "2008 Oregon Ducks football team"]
//!     .map(String::from).to_vec();
//! let right: Vec<String> = ["2007 LSU Tigers football"].map(String::from).to_vec();
//! let space = JoinFunctionSpace::reduced24();
//! let options = AutoFjOptions::default();
//!
//! let (state, result) = ServingState::learn(&left, &right, &space, &options);
//! let mut scratch = QueryScratch::for_state(&state);
//! let served = state.query(&right[0], &mut scratch);
//! assert_eq!(served.map(|m| m.left), result.assignment[0]);
//! ```

mod format;
pub mod snapshot;

pub use format::{StoreError, FORMAT_VERSION, MAGIC};
pub use snapshot::{QueryScratch, ServeConfig, ServeMatch, ServingState};
