//! Tuning knobs of the Auto-FuzzyJoin search.
//!
//! All defaults follow the paper's experimental setup (§5.1.3): precision
//! target `τ = 0.9`, threshold discretization `s = 50`, blocking factor
//! `β = 1.5`, negative rules enabled and union of configurations enabled.
//! The multi-column algorithm's column-weight discretization `g = 10` is a
//! constant of [`crate::multi_column`], not an option, and the greedy search
//! has no round cap: it stops where Algorithm 1 stops.

use autofj_block::Blocker;
use serde::{Deserialize, Serialize};

/// Which "ball" is used when counting reference neighbours for the
/// unsupervised precision estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BallMode {
    /// Equation (9): count `l'` with `f(l, l') ≤ 2θ` for a configuration
    /// `⟨f, θ⟩`.  This is what Algorithm 1 pre-computes and is the default.
    ConfigTheta,
    /// Equation (8): count `l'` with `f(l, l') ≤ 2·f(l, r)` for the concrete
    /// pair being scored.  Used in the ablation bench `ablation_ball`.
    PairDistance,
}

/// Options controlling a single Auto-FuzzyJoin run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoFjOptions {
    /// Target precision `τ` (Problem statement, Eq. 5–7).
    pub precision_target: f64,
    /// Number of threshold discretization steps per join function (`s`).
    pub num_thresholds: usize,
    /// Blocking factor `β` (candidates kept per probe = `β·√|L|`).
    pub blocking_factor: f64,
    /// Learn and apply negative rules (Algorithm 2).  Disabling this gives
    /// the paper's `AutoFJ-NR` ablation.
    pub use_negative_rules: bool,
    /// Allow a union of configurations.  Disabling this gives the paper's
    /// `AutoFJ-UC` ablation (single best configuration).
    pub union_of_configurations: bool,
    /// Which ball is used in the precision estimate.
    pub ball_mode: BallMode,
}

impl Default for AutoFjOptions {
    fn default() -> Self {
        Self {
            precision_target: 0.9,
            num_thresholds: 50,
            blocking_factor: 1.5,
            use_negative_rules: true,
            union_of_configurations: true,
            ball_mode: BallMode::ConfigTheta,
        }
    }
}

impl AutoFjOptions {
    /// Validate the options, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.precision_target) {
            return Err(format!(
                "precision_target must be in [0, 1], got {}",
                self.precision_target
            ));
        }
        if self.num_thresholds == 0 {
            return Err("num_thresholds must be at least 1".to_string());
        }
        if !(self.blocking_factor.is_finite() && self.blocking_factor > 0.0) {
            return Err(format!(
                "blocking_factor must be positive, got {}",
                self.blocking_factor
            ));
        }
        Ok(())
    }

    /// The blocker implied by these options.
    pub fn blocker(&self) -> Blocker {
        Blocker::with_factor(self.blocking_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let o = AutoFjOptions::default();
        assert_eq!(o.precision_target, 0.9);
        assert_eq!(o.num_thresholds, 50);
        assert_eq!(o.blocking_factor, 1.5);
        assert_eq!(o.ball_mode, BallMode::ConfigTheta);
        assert!(o.use_negative_rules);
        assert!(o.union_of_configurations);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn blocker_follows_the_blocking_factor() {
        for factor in [0.3, 1.5, 4.0] {
            let options = AutoFjOptions {
                blocking_factor: factor,
                ..Default::default()
            };
            assert_eq!(options.blocker().factor(), factor);
        }
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut o = AutoFjOptions {
            precision_target: 1.5,
            ..Default::default()
        };
        assert!(o.validate().is_err());
        o.precision_target = 0.9;
        o.num_thresholds = 0;
        assert!(o.validate().is_err());
        o.num_thresholds = 50;
        o.blocking_factor = -1.0;
        assert!(o.validate().is_err());
        o.blocking_factor = f64::NAN;
        assert!(o.validate().is_err());
        o.blocking_factor = 1.5;
        assert!(o.validate().is_ok());
    }
}
