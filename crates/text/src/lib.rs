//! # autofj-text
//!
//! The string substrate used by Auto-FuzzyJoin: pre-processing, tokenization,
//! token weighting and distance functions, plus the *join-function space*
//! (`P × T × W × D`) that the auto-programming search explores (Table 1 of the
//! paper).
//!
//! A [`joinfn::JoinFunction`] is a fully specified way to turn two strings
//! into a distance in `[0, 1]`.  The paper's default experimental space
//! contains 140 such functions
//! (`4 preprocessings × 2 char distances + 4 × 2 tokenizations × 2 weightings
//! × 8 set distances + 4 × 1 embedding distance`), built by
//! [`joinfn::JoinFunctionSpace::full`].
//!
//! Distance evaluation goes through a [`prepared::PreparedColumn`], which
//! caches the pre-processed string, token sets and embedding vectors for each
//! record so that evaluating many join functions over the same tables does
//! not re-tokenize.

pub mod distance;
pub mod joinfn;
pub mod kernel;
pub mod prepared;
pub mod preprocess;
pub mod tokenize;
pub mod vocab;
pub mod weights;

pub use joinfn::{DistanceFunction, JoinFunction, JoinFunctionSpace};
pub use kernel::{plan_kernel_groups, with_scratch, KernelFamily, KernelGroup, KernelScratch};
pub use prepared::{PreparedColumn, PreparedRecord};
pub use preprocess::Preprocessing;
pub use tokenize::Tokenization;
pub use weights::TokenWeighting;

/// Number of join functions in the paper's full experimental space.
pub const FULL_SPACE_SIZE: usize = 140;

/// Number of join functions in the paper's reduced space (Table 6 /
/// Figure 7c-d smallest point).
pub const REDUCED_SPACE_SIZE: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_has_140_functions() {
        assert_eq!(JoinFunctionSpace::full().functions().len(), FULL_SPACE_SIZE);
    }

    #[test]
    fn reduced_space_has_24_functions() {
        assert_eq!(
            JoinFunctionSpace::reduced24().functions().len(),
            REDUCED_SPACE_SIZE
        );
    }
}
