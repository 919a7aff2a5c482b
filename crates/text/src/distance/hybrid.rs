//! Hybrid containment distances (Table 1 footnote).
//!
//! The paper adds three hybrid distance functions — Contain-Jaccard,
//! Contain-Cosine and Contain-Dice.  "If two records have containment
//! relationship (i.e. r ⊆ l), they are equivalent to the standard distance
//! functions; otherwise, output 1."  These capture the Super-Bowl style cases
//! of Figure 3(b) where the right record is a strict sub-description of the
//! left record and plain set distances are too permissive.

use super::set::SetOverlap;

/// Which base distance a containment-hybrid wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainmentBase {
    /// Contain-Jaccard.
    Jaccard,
    /// Contain-Cosine.
    Cosine,
    /// Contain-Dice.
    Dice,
}

/// Compute a containment-hybrid distance from overlap statistics where the
/// *left* record is `A` and the *right* record is `B`.
///
/// If `B ⊆ A` (the right record's tokens are contained in the left record's),
/// the underlying distance is returned; otherwise the distance is 1.
pub fn containment_distance(o: &SetOverlap, base: ContainmentBase) -> f64 {
    if !o.b_subset_of_a {
        return 1.0;
    }
    match base {
        ContainmentBase::Jaccard => o.jaccard_distance(),
        ContainmentBase::Cosine => o.cosine_distance(),
        ContainmentBase::Dice => o.dice_distance(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::set::overlap;
    use crate::weights::WeightTable;

    #[test]
    fn contained_pair_uses_base_distance() {
        let w = WeightTable::default();
        // B = {1,2} ⊆ A = {0,1,2,3}
        let o = overlap(&[0, 1, 2, 3], &[1, 2], &w);
        let cj = containment_distance(&o, ContainmentBase::Jaccard);
        assert!((cj - o.jaccard_distance()).abs() < 1e-12);
        assert!(cj < 1.0);
    }

    #[test]
    fn non_contained_pair_is_distance_one() {
        let w = WeightTable::default();
        // B has token 5 which is not in A.
        let o = overlap(&[0, 1, 2, 3], &[1, 5], &w);
        for base in [
            ContainmentBase::Jaccard,
            ContainmentBase::Cosine,
            ContainmentBase::Dice,
        ] {
            assert_eq!(containment_distance(&o, base), 1.0);
        }
    }

    #[test]
    fn identical_sets_have_zero_containment_distance() {
        let w = WeightTable::default();
        let o = overlap(&[0, 1], &[0, 1], &w);
        assert_eq!(containment_distance(&o, ContainmentBase::Dice), 0.0);
    }

    #[test]
    fn containment_is_directional() {
        let w = WeightTable::default();
        // A ⊆ B but B ⊄ A: the hybrid distance (defined w.r.t. r ⊆ l) is 1.
        let o = overlap(&[1, 2], &[0, 1, 2, 3], &w);
        assert_eq!(containment_distance(&o, ContainmentBase::Jaccard), 1.0);
        // Swapping roles makes it contained again.
        let o2 = overlap(&[0, 1, 2, 3], &[1, 2], &w);
        assert!(containment_distance(&o2, ContainmentBase::Jaccard) < 1.0);
    }
}
