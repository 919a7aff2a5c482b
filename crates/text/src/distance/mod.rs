//! Distance functions (the `D` axis of the configuration space).
//!
//! All distances are normalized to `[0, 1]`, `0` meaning identical and `1`
//! meaning maximally different, so that thresholds from different functions
//! live on comparable scales (the search still discretizes thresholds per
//! function).
//!
//! * [`edit`] — normalized Levenshtein distance (`ED`).
//! * [`jaro`] — Jaro-Winkler distance (`JW`).
//! * [`set`] — weighted set distances: Jaccard (`JD`), Cosine (`CD`),
//!   Dice (`DD`), Max-inclusion (`MD`) and Intersect (`ID`).
//! * [`hybrid`] — the paper's Contain-Jaccard / Contain-Cosine / Contain-Dice
//!   distances (Table 1 footnote).
//! * [`embed`] — embedding distance (`GED`) over hashed token embeddings.
//! * [`myers`] — bit-parallel / banded edit-distance kernels (the hot path).
//! * `masks` (private) — the pattern-match mask table the Myers and Jaro
//!   kernels share.
//! * [`mod@reference`] — the original scalar inner loops, kept as the
//!   correctness pin for the kernel proptests.

pub mod edit;
pub mod embed;
pub mod hybrid;
pub mod jaro;
mod masks;
pub mod myers;
pub mod reference;
pub mod set;

/// Clamp a floating point distance into `[0, 1]`, mapping NaN to 1 and
/// normalizing `-0.0` to `+0.0` (the weighted set kernels can produce `-0.0`
/// for identical sets, and a sign bit would break byte-identical result
/// comparisons downstream).
#[inline]
pub fn clamp_unit(d: f64) -> f64 {
    if d.is_nan() {
        return 1.0;
    }
    let c = d.clamp(0.0, 1.0);
    // `clamp` keeps -0.0 (it compares equal to 0.0); drop the sign bit.
    if c == 0.0 {
        0.0
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::clamp_unit;

    #[test]
    fn clamp_handles_nan_and_out_of_range() {
        assert_eq!(clamp_unit(f64::NAN), 1.0);
        assert_eq!(clamp_unit(-0.5), 0.0);
        assert_eq!(clamp_unit(1.5), 1.0);
        assert_eq!(clamp_unit(0.25), 0.25);
    }

    #[test]
    fn clamp_normalizes_negative_zero() {
        let out = clamp_unit(-0.0);
        assert_eq!(out, 0.0);
        assert!(out.is_sign_positive(), "clamp_unit(-0.0) kept the sign bit");
        // And a computation that actually produces -0.0 stays normalized.
        let neg_zero = 0.0f64 * -1.0f64.signum();
        assert!(neg_zero.is_sign_negative());
        assert!(clamp_unit(neg_zero).is_sign_positive());
    }
}
