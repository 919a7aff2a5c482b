//! # autofj-core
//!
//! The core of Auto-FuzzyJoin: unsupervised precision estimation over a
//! reference table, the greedy union-of-configurations search (Algorithm 1),
//! negative-rule learning (Algorithm 2) and the multi-column forward
//! selection search (Algorithm 3), as described in *"Auto-FuzzyJoin:
//! Auto-Program Fuzzy Similarity Joins Without Labeled Examples"*
//! (SIGMOD 2021).
//!
//! The main entry point is [`AutoFuzzyJoin`]:
//!
//! ```
//! use autofj_core::{AutoFuzzyJoin, Table};
//!
//! let left = Table::from_strings("reference", [
//!     "2007 LSU Tigers football team",
//!     "2008 LSU Tigers football team",
//!     "2007 Wisconsin Badgers football team",
//! ]);
//! let right = Table::from_strings("queries", [
//!     "2007 LSU Tigers football",
//! ]);
//! let joiner = AutoFuzzyJoin::builder().precision_target(0.9).build();
//! let result = joiner.join(&left, &right);
//! println!("program: {}", result.program);
//! ```

pub mod candidates;
pub mod estimate;
pub mod greedy;
pub mod multi_column;
pub mod negative_rules;
pub mod options;
pub mod oracle;
pub mod program;
pub mod single;
pub mod table;
pub mod trace;

pub use candidates::{candidate_stage, Candidates};
pub use negative_rules::InternedRuleSet;
pub use options::{AutoFjOptions, BallMode};
pub use program::{Config, JoinProgram, JoinResult, JoinedPair};
pub use single::{join_single_column, join_single_column_with_artifacts, PipelineArtifacts};
pub use table::{Column, Table};

use autofj_text::JoinFunctionSpace;

/// The Auto-FuzzyJoin joiner: a configured search space plus options.
#[derive(Debug, Clone)]
pub struct AutoFuzzyJoin {
    options: AutoFjOptions,
    space: JoinFunctionSpace,
}

/// Builder for [`AutoFuzzyJoin`].
#[derive(Debug, Clone)]
pub struct AutoFuzzyJoinBuilder {
    options: AutoFjOptions,
    space: JoinFunctionSpace,
}

impl Default for AutoFuzzyJoinBuilder {
    fn default() -> Self {
        Self {
            options: AutoFjOptions::default(),
            space: JoinFunctionSpace::full(),
        }
    }
}

impl AutoFuzzyJoinBuilder {
    /// Set the precision target `τ` (default 0.9).
    pub fn precision_target(mut self, tau: f64) -> Self {
        self.options.precision_target = tau;
        self
    }

    /// Set the join-function space (default: the full 140-function space).
    pub fn space(mut self, space: JoinFunctionSpace) -> Self {
        self.space = space;
        self
    }

    /// Set the blocking factor `β` (default 1.5).
    pub fn blocking_factor(mut self, beta: f64) -> Self {
        self.options.blocking_factor = beta;
        self
    }

    /// Enable or disable negative rules (default enabled).
    pub fn negative_rules(mut self, enabled: bool) -> Self {
        self.options.use_negative_rules = enabled;
        self
    }

    /// Enable or disable union-of-configurations (default enabled; disabling
    /// gives the `AutoFJ-UC` ablation).
    pub fn union_of_configurations(mut self, enabled: bool) -> Self {
        self.options.union_of_configurations = enabled;
        self
    }

    /// Set the threshold discretization steps `s` (default 50).
    pub fn num_thresholds(mut self, s: usize) -> Self {
        self.options.num_thresholds = s;
        self
    }

    /// Choose the ball used by the precision estimate (default
    /// [`BallMode::ConfigTheta`], Eq. 9).
    pub fn ball_mode(mut self, mode: BallMode) -> Self {
        self.options.ball_mode = mode;
        self
    }

    /// Replace the full option set.
    pub fn options(mut self, options: AutoFjOptions) -> Self {
        self.options = options;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the options are invalid (e.g. precision target outside
    /// `[0, 1]`).
    pub fn build(self) -> AutoFuzzyJoin {
        if let Err(msg) = self.options.validate() {
            panic!("invalid AutoFjOptions: {msg}");
        }
        AutoFuzzyJoin {
            options: self.options,
            space: self.space,
        }
    }
}

impl Default for AutoFuzzyJoin {
    fn default() -> Self {
        AutoFuzzyJoinBuilder::default().build()
    }
}

impl AutoFuzzyJoin {
    /// Start building a joiner.
    pub fn builder() -> AutoFuzzyJoinBuilder {
        AutoFuzzyJoinBuilder::default()
    }

    /// A joiner with the paper's default settings (τ = 0.9, full space).
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The configured options.
    pub fn options(&self) -> &AutoFjOptions {
        &self.options
    }

    /// The configured join-function space.
    pub fn space(&self) -> &JoinFunctionSpace {
        &self.space
    }

    /// Join query table `right` against reference table `left`.
    ///
    /// Dispatches to the single-column algorithm when both tables have one
    /// column and to the multi-column algorithm (Algorithm 3) otherwise.
    pub fn join(&self, left: &Table, right: &Table) -> JoinResult {
        if left.num_columns() == 1 && right.num_columns() == 1 {
            single::join_single_column(left.values(), right.values(), &self.space, &self.options)
        } else {
            multi_column::join_multi_column(left, right, &self.space, &self.options)
        }
    }

    /// Join two single-column tables given as raw string slices.
    pub fn join_values(&self, left: &[String], right: &[String]) -> JoinResult {
        single::join_single_column(left, right, &self.space, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_use_full_space_and_paper_tau() {
        let j = AutoFuzzyJoin::builder().build();
        assert_eq!(j.space().len(), 140);
        assert_eq!(j.options().precision_target, 0.9);
    }

    #[test]
    fn builder_setters_apply() {
        let j = AutoFuzzyJoin::builder()
            .precision_target(0.8)
            .space(JoinFunctionSpace::reduced24())
            .blocking_factor(2.0)
            .negative_rules(false)
            .union_of_configurations(false)
            .num_thresholds(10)
            .ball_mode(BallMode::PairDistance)
            .build();
        assert_eq!(j.options().precision_target, 0.8);
        assert_eq!(j.space().len(), 24);
        assert_eq!(j.options().blocking_factor, 2.0);
        assert!(!j.options().use_negative_rules);
        assert!(!j.options().union_of_configurations);
        assert_eq!(j.options().num_thresholds, 10);
        assert_eq!(j.options().ball_mode, BallMode::PairDistance);
    }

    #[test]
    #[should_panic(expected = "invalid AutoFjOptions")]
    fn builder_rejects_bad_precision_target() {
        let _ = AutoFuzzyJoin::builder().precision_target(-0.1).build();
    }

    #[test]
    fn join_dispatches_on_column_count() {
        let left = Table::from_strings(
            "l",
            [
                "alpha beta gamma one",
                "delta epsilon zeta two",
                "eta theta iota three",
            ],
        );
        let right = Table::from_strings("r", ["alpha beta gamma one extra"]);
        let joiner = AutoFuzzyJoin::builder()
            .space(JoinFunctionSpace::reduced24())
            .build();
        let result = joiner.join(&left, &right);
        assert_eq!(result.assignment.len(), 1);
    }
}
