//! Weighted set distances over interned token-id sets.
//!
//! Token sets are represented as **sorted, deduplicated** `&[u32]` slices and
//! weights come from a [`WeightTable`].  With equal weights these reduce to
//! the classic unweighted definitions.
//!
//! Abbreviations follow Table 1 of the paper:
//! * `JD` — Jaccard distance: `1 − w(A∩B)/w(A∪B)`
//! * `CD` — Cosine distance: `1 − w(A∩B)/√(w(A))·√(w(B))` (weighted binary
//!   vectors, i.e. Ochiai coefficient with squared weights)
//! * `DD` — Dice distance: `1 − 2·w(A∩B)/(w(A)+w(B))`
//! * `MD` — Max-inclusion distance: `1 − w(A∩B)/max(w(A), w(B))`
//! * `ID` — Intersect (overlap / containment) distance:
//!   `1 − w(A∩B)/min(w(A), w(B))`

use crate::weights::WeightTable;

/// Accumulated weight statistics of a pair of sorted token-id sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetOverlap {
    /// Total weight of the intersection.
    pub intersection: f64,
    /// Total weight of set `A`.
    pub weight_a: f64,
    /// Total weight of set `B`.
    pub weight_b: f64,
    /// Sum of squared weights over `A` (used by the cosine distance).
    pub sq_weight_a: f64,
    /// Sum of squared weights over `B`.
    pub sq_weight_b: f64,
    /// Sum of squared weights over the intersection.
    pub sq_intersection: f64,
    /// `true` when every token of `B` appears in `A` (i.e. `B ⊆ A`).
    pub b_subset_of_a: bool,
    /// `true` when every token of `A` appears in `B` (i.e. `A ⊆ B`).
    pub a_subset_of_b: bool,
}

/// Merge-scan two sorted id sets, accumulating weighted overlap statistics.
pub fn overlap(a: &[u32], b: &[u32], weights: &WeightTable) -> SetOverlap {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0.0;
    let mut sq_inter = 0.0;
    let mut wa = 0.0;
    let mut wb = 0.0;
    let mut sqa = 0.0;
    let mut sqb = 0.0;
    let mut only_a = 0usize;
    let mut only_b = 0usize;
    while i < a.len() && j < b.len() {
        let (ta, tb) = (a[i], b[j]);
        if ta == tb {
            let w = weights.weight(ta);
            inter += w;
            sq_inter += w * w;
            wa += w;
            wb += w;
            sqa += w * w;
            sqb += w * w;
            i += 1;
            j += 1;
        } else if ta < tb {
            let w = weights.weight(ta);
            wa += w;
            sqa += w * w;
            only_a += 1;
            i += 1;
        } else {
            let w = weights.weight(tb);
            wb += w;
            sqb += w * w;
            only_b += 1;
            j += 1;
        }
    }
    while i < a.len() {
        let w = weights.weight(a[i]);
        wa += w;
        sqa += w * w;
        only_a += 1;
        i += 1;
    }
    while j < b.len() {
        let w = weights.weight(b[j]);
        wb += w;
        sqb += w * w;
        only_b += 1;
        j += 1;
    }
    SetOverlap {
        intersection: inter,
        weight_a: wa,
        weight_b: wb,
        sq_weight_a: sqa,
        sq_weight_b: sqb,
        sq_intersection: sq_inter,
        b_subset_of_a: only_b == 0,
        a_subset_of_b: only_a == 0,
    }
}

impl SetOverlap {
    /// Weighted Jaccard distance.
    pub fn jaccard_distance(&self) -> f64 {
        let union = self.weight_a + self.weight_b - self.intersection;
        if union <= 0.0 {
            return if self.weight_a == 0.0 && self.weight_b == 0.0 {
                0.0
            } else {
                1.0
            };
        }
        super::clamp_unit(1.0 - self.intersection / union)
    }

    /// Weighted cosine distance over binary token-indicator vectors scaled by
    /// token weights.
    pub fn cosine_distance(&self) -> f64 {
        if self.sq_weight_a == 0.0 && self.sq_weight_b == 0.0 {
            return 0.0;
        }
        let denom = self.sq_weight_a.sqrt() * self.sq_weight_b.sqrt();
        if denom == 0.0 {
            return 1.0;
        }
        super::clamp_unit(1.0 - self.sq_intersection / denom)
    }

    /// Weighted Dice distance.
    pub fn dice_distance(&self) -> f64 {
        let denom = self.weight_a + self.weight_b;
        if denom == 0.0 {
            return 0.0;
        }
        super::clamp_unit(1.0 - 2.0 * self.intersection / denom)
    }

    /// Max-inclusion distance (`MD`): intersection over the *larger* set
    /// weight.  Penalizes asymmetric containment less than Jaccard but more
    /// than the overlap coefficient.
    pub fn max_inclusion_distance(&self) -> f64 {
        let denom = self.weight_a.max(self.weight_b);
        if denom == 0.0 {
            return 0.0;
        }
        super::clamp_unit(1.0 - self.intersection / denom)
    }

    /// Intersect distance (`ID`, also called overlap or containment
    /// coefficient distance): intersection over the *smaller* set weight.
    pub fn intersect_distance(&self) -> f64 {
        if self.weight_a == 0.0 && self.weight_b == 0.0 {
            return 0.0;
        }
        let denom = self.weight_a.min(self.weight_b);
        if denom == 0.0 {
            return 1.0;
        }
        super::clamp_unit(1.0 - self.intersection / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> WeightTable {
        WeightTable::default()
    }

    #[test]
    fn identical_sets_have_zero_distance_everywhere() {
        let w = table();
        let o = overlap(&[0, 1, 2], &[0, 1, 2], &w);
        assert_eq!(o.jaccard_distance(), 0.0);
        assert_eq!(o.cosine_distance(), 0.0);
        assert_eq!(o.dice_distance(), 0.0);
        assert_eq!(o.max_inclusion_distance(), 0.0);
        assert_eq!(o.intersect_distance(), 0.0);
        assert!(o.a_subset_of_b && o.b_subset_of_a);
    }

    #[test]
    fn disjoint_sets_have_distance_one() {
        let w = table();
        let o = overlap(&[0, 1], &[2, 3], &w);
        assert_eq!(o.jaccard_distance(), 1.0);
        assert_eq!(o.cosine_distance(), 1.0);
        assert_eq!(o.dice_distance(), 1.0);
        assert_eq!(o.max_inclusion_distance(), 1.0);
        assert_eq!(o.intersect_distance(), 1.0);
    }

    #[test]
    fn unweighted_jaccard_matches_hand_computation() {
        // |A∩B| = 2, |A∪B| = 4 → distance 0.5
        let w = table();
        let o = overlap(&[0, 1, 2], &[1, 2, 3], &w);
        assert!((o.jaccard_distance() - 0.5).abs() < 1e-12);
        // Dice: 1 - 2*2/6 = 1/3
        assert!((o.dice_distance() - (1.0 - 4.0 / 6.0)).abs() < 1e-12);
        // Cosine: 1 - 2/sqrt(3*3) = 1/3
        assert!((o.cosine_distance() - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        // MD: 1 - 2/3, ID: 1 - 2/3
        assert!((o.max_inclusion_distance() - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        assert!((o.intersect_distance() - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn containment_sets_have_zero_intersect_distance() {
        let w = table();
        let o = overlap(&[0, 1, 2, 3], &[1, 2], &w);
        assert!(o.b_subset_of_a);
        assert!(!o.a_subset_of_b);
        assert_eq!(o.intersect_distance(), 0.0);
        assert!(o.jaccard_distance() > 0.0);
    }

    #[test]
    fn idf_weights_downweight_common_tokens() {
        use crate::vocab::Vocab;
        let mut v = Vocab::new();
        // "team" appears everywhere; "tigers" and "badgers" are rare.
        for _ in 0..20 {
            v.add_document(&["team", "football"]);
        }
        let a = v.add_document(&["team", "football", "tigers"]);
        let b = v.add_document(&["team", "football", "badgers"]);
        let w = WeightTable::idf(&v);
        let weighted = overlap(&a, &b, &w).jaccard_distance();
        let unweighted = overlap(&a, &b, &table()).jaccard_distance();
        // With IDF weights, sharing only common tokens should look *less*
        // similar (higher distance) than under equal weights.
        assert!(weighted > unweighted);
    }

    #[test]
    fn empty_sets_are_identical() {
        let w = table();
        let o = overlap(&[], &[], &w);
        assert_eq!(o.jaccard_distance(), 0.0);
        assert_eq!(o.intersect_distance(), 0.0);
    }

    #[test]
    fn empty_vs_nonempty_is_maximal() {
        let w = table();
        let o = overlap(&[], &[0, 1], &w);
        assert_eq!(o.jaccard_distance(), 1.0);
        assert_eq!(o.intersect_distance(), 1.0);
    }

    #[test]
    fn overlap_is_symmetric_up_to_role_swap() {
        let w = table();
        let o1 = overlap(&[0, 2, 4], &[2, 4, 6], &w);
        let o2 = overlap(&[2, 4, 6], &[0, 2, 4], &w);
        assert_eq!(o1.jaccard_distance(), o2.jaccard_distance());
        assert_eq!(o1.dice_distance(), o2.dice_distance());
        assert_eq!(o1.cosine_distance(), o2.cosine_distance());
        assert_eq!(o1.max_inclusion_distance(), o2.max_inclusion_distance());
        assert_eq!(o1.intersect_distance(), o2.intersect_distance());
    }

    #[test]
    fn jaccard_on_token_sets_of_team_names() {
        // {"2007","lsu","tigers","football"} vs {"2007","lsu","tigers",
        // "football","team"}: |A∩B| = 4, |A∪B| = 5.
        let w = table();
        let o = overlap(&[0, 1, 2, 3], &[0, 1, 2, 3, 4], &w);
        assert!((o.jaccard_distance() - 0.2).abs() < 1e-12);
        // A ⊆ B, so the containment (intersect) distance is 0.
        assert!(o.a_subset_of_b && !o.b_subset_of_a);
        assert_eq!(o.intersect_distance(), 0.0);
        // MD uses the larger set: 1 - 4/5.
        assert!((o.max_inclusion_distance() - 0.2).abs() < 1e-12);
        // Dice: 1 - 2*4/9.
        assert!((o.dice_distance() - (1.0 - 8.0 / 9.0)).abs() < 1e-12);
        // Cosine: 1 - 4/sqrt(4*5).
        assert!((o.cosine_distance() - (1.0 - 4.0 / 20f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn distance_family_ordering_invariant() {
        // For any pair: ID <= MD <= JD (smaller denominators forgive more)
        // and DD <= JD, with all values in [0, 1].
        let w = table();
        let sets: [&[u32]; 6] = [
            &[],
            &[0],
            &[0, 1, 2],
            &[1, 2, 3, 4],
            &[0, 1, 2, 3, 4, 5],
            &[5, 6, 7, 8, 9],
        ];
        for a in sets {
            for b in sets {
                let o = overlap(a, b, &w);
                let (id, md, jd, dd, cd) = (
                    o.intersect_distance(),
                    o.max_inclusion_distance(),
                    o.jaccard_distance(),
                    o.dice_distance(),
                    o.cosine_distance(),
                );
                for d in [id, md, jd, dd, cd] {
                    assert!((0.0..=1.0).contains(&d), "{a:?}/{b:?} -> {d}");
                }
                assert!(id <= md + 1e-12, "{a:?}/{b:?}: ID {id} > MD {md}");
                assert!(md <= jd + 1e-12, "{a:?}/{b:?}: MD {md} > JD {jd}");
                assert!(dd <= jd + 1e-12, "{a:?}/{b:?}: DD {dd} > JD {jd}");
            }
        }
    }

    #[test]
    fn unknown_token_ids_fall_back_to_unit_weight() {
        // Ids beyond the table length weigh 1, so a table that is too small
        // behaves exactly like equal weights.
        let mut v = crate::vocab::Vocab::new();
        v.add_document(&["a"]);
        v.add_document(&["b"]);
        let small = WeightTable::idf(&v);
        let o_small = overlap(&[3, 7, 9], &[7, 9, 11], &small);
        let o_equal = overlap(&[3, 7, 9], &[7, 9, 11], &table());
        assert_eq!(o_small.jaccard_distance(), o_equal.jaccard_distance());
        assert!((o_small.jaccard_distance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idf_weighted_jaccard_matches_hand_computation() {
        use crate::vocab::Vocab;
        let mut v = Vocab::new();
        // 4 documents; "team" in all 4, "lsu"/"tigers" in 1 each.
        v.add_document(&["team"]);
        v.add_document(&["team"]);
        v.add_document(&["team"]);
        let a = v.add_document(&["team", "lsu"]);
        let w = WeightTable::idf(&v);
        let team = w.weight(a[0].min(a[1]));
        let lsu = w.weight(a[0].max(a[1]));
        // Rare tokens must weigh strictly more than ubiquitous ones.
        assert!(lsu > team, "idf({lsu}) should exceed idf({team})");
        let b = vec![a[0].min(a[1])]; // just {"team"}
        let o = overlap(&a, &b, &w);
        let expected = 1.0 - team / (team + lsu);
        assert!((o.jaccard_distance() - expected).abs() < 1e-12);
    }
}
