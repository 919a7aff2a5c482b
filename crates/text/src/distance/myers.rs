//! Bit-parallel and banded edit-distance kernels.
//!
//! Two modern replacements for the scalar single-row DP (kept in
//! [`super::reference`]):
//!
//! * [`levenshtein_myers`] — Myers' bit-parallel algorithm in Hyyrö's
//!   multi-block form: the DP matrix is encoded as vertical delta bit-vectors
//!   in `u64` blocks, one column of blocks per text character, so 64 DP cells
//!   advance per word operation.  Exact for any lengths and any `u32`
//!   character ids.
//! * [`levenshtein_banded`] — Ukkonen's banded DP for thresholded calls: when
//!   a distance bound `k` is known, only the `2k+1` diagonals around the main
//!   diagonal can hold a result `≤ k`, and the scan aborts as soon as a whole
//!   row exceeds the budget.
//!
//! [`bounded_normalized_edit`] is the dispatching entry point used by the
//! kernel layer: it converts a normalized bound `τ` into a raw-distance
//! budget, short-circuits on the length gap, picks banded vs bit-parallel by
//! cost, and guarantees the *bounded-agreement contract*: the result equals
//! the exact normalized distance whenever that distance is `≤ τ`, and is some
//! value `> τ` (but never exceeding the true distance) otherwise — so an
//! early exit can never flip a join decision made at threshold `τ`.
//!
//! All kernels borrow their working memory from an [`EditScratch`] so the
//! steady state allocates nothing per call; the Myers `Peq` is the
//! pattern-mask table it shares with the Jaro kernel.

use super::masks::PatternMasks;

/// Reusable working memory for the edit-distance kernels.
#[derive(Debug, Default, Clone)]
pub struct EditScratch {
    /// The pattern's `Peq` bit-masks.
    masks: PatternMasks,
    /// Vertical positive-delta vectors, one per block.
    vp: Vec<u64>,
    /// Vertical negative-delta vectors, one per block.
    vn: Vec<u64>,
    /// Banded-DP row buffers.
    row_prev: Vec<usize>,
    row_curr: Vec<usize>,
}

/// Advance one 64-row block of the Myers bit-parallel DP by one text
/// character.  `hin`/`hout` are the horizontal deltas crossing the block's
/// top and bottom boundary (`out_bit` selects the boundary row, 63 for full
/// blocks, `(m-1) % 64` for the final partial block).
#[inline]
fn advance_block(vp: &mut u64, vn: &mut u64, eq: u64, hin: i32, out_bit: u32) -> i32 {
    let hin_neg = (hin < 0) as u64;
    let eq = eq | hin_neg;
    let d0 = (((eq & *vp).wrapping_add(*vp)) ^ *vp) | eq | *vn;
    let hp = *vn | !(d0 | *vp);
    let hn = d0 & *vp;
    let hout = ((hp >> out_bit) & 1) as i32 - ((hn >> out_bit) & 1) as i32;
    let hp = (hp << 1) | (hin > 0) as u64;
    let hn = (hn << 1) | hin_neg;
    *vp = hn | !(d0 | hp);
    *vn = d0 & hp;
    hout
}

/// Exact Levenshtein distance via multi-block bit-parallel Myers.
///
/// The shorter string becomes the pattern (vertical axis), so the cost is
/// `O(⌈min(m,n)/64⌉ · max(m,n))` word operations plus an `O(m)` `Peq`
/// build in the shared pattern-mask table, all out of `scratch`.
pub fn levenshtein_myers(a: &[u32], b: &[u32], scratch: &mut EditScratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (pat, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = pat.len();
    let num_blocks = m.div_ceil(64);
    let last_block = num_blocks - 1;
    let last_bit = ((m - 1) % 64) as u32;
    let (vp, vn) = (&mut scratch.vp, &mut scratch.vn);
    scratch.masks.with(pat, |peq| {
        let mut score = m as isize;
        vp.clear();
        vp.resize(num_blocks, !0u64);
        vn.clear();
        vn.resize(num_blocks, 0);
        for &c in text {
            let eq = peq.row(c);
            // The top boundary row increases by one per text column (D[0][j] = j).
            let mut hin = 1i32;
            for blk in 0..num_blocks {
                let out_bit = if blk == last_block { last_bit } else { 63 };
                hin = advance_block(&mut vp[blk], &mut vn[blk], eq[blk], hin, out_bit);
            }
            score += hin as isize;
        }
        score as usize
    })
}

/// Banded (Ukkonen) Levenshtein: exact distance when it is `≤ k`, `None` as
/// soon as the band proves it exceeds `k`.  Cost `O((2k+1) · max(m,n))`.
pub fn levenshtein_banded(
    a: &[u32],
    b: &[u32],
    k: usize,
    scratch: &mut EditScratch,
) -> Option<usize> {
    if a.len().abs_diff(b.len()) > k {
        return None;
    }
    let n = b.len();
    let inf = k + 1;
    scratch.row_prev.clear();
    scratch.row_prev.resize(n + 1, inf);
    scratch.row_curr.clear();
    scratch.row_curr.resize(n + 1, inf);
    for (j, cell) in scratch.row_prev.iter_mut().enumerate().take(n.min(k) + 1) {
        *cell = j;
    }
    for i in 1..=a.len() {
        let lo = i.saturating_sub(k);
        let hi = (i + k).min(n);
        let mut row_min = inf;
        for j in lo..=hi {
            let cell = if j == 0 {
                i
            } else {
                let sub = scratch.row_prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
                let del = if j < i + k {
                    scratch.row_prev[j] + 1
                } else {
                    inf
                };
                let ins = if j > lo {
                    scratch.row_curr[j - 1] + 1
                } else {
                    inf
                };
                sub.min(del).min(ins).min(inf)
            };
            scratch.row_curr[j] = cell;
            row_min = row_min.min(cell);
        }
        if row_min >= inf {
            return None;
        }
        std::mem::swap(&mut scratch.row_prev, &mut scratch.row_curr);
    }
    let d = scratch.row_prev[n];
    (d <= k).then_some(d)
}

/// Exact Levenshtein over id slices, dispatching to the bit-parallel kernel.
pub fn levenshtein_ids(a: &[u32], b: &[u32], scratch: &mut EditScratch) -> usize {
    if a == b {
        return 0;
    }
    levenshtein_myers(a, b, scratch)
}

/// Normalized edit distance `levenshtein / max(|a|, |b|)` with an optional
/// bound.
///
/// Without a bound the result is always exact.  With `bound = Some(τ)` the
/// contract is: the result equals the exact distance whenever the exact
/// distance is `≤ τ`; otherwise it is some value in `(τ, exact]`.  The banded
/// kernel runs when the implied raw budget keeps its band cheaper than the
/// bit-parallel scan.
pub fn bounded_normalized_edit(
    a: &[u32],
    b: &[u32],
    bound: Option<f64>,
    scratch: &mut EditScratch,
) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 0.0;
    }
    if a == b {
        return 0.0;
    }
    let Some(bound) = bound else {
        return levenshtein_myers(a, b, scratch) as f64 / max_len as f64;
    };
    if bound < 0.0 {
        // Nothing can beat a negative bound; the length gap (or 1 edit for
        // equal lengths) lower-bounds the true distance and exceeds it.
        return a.len().abs_diff(b.len()).max(1) as f64 / max_len as f64;
    }
    // Raw-distance budget: every raw distance d with d / max_len ≤ τ
    // satisfies d ≤ ⌈τ · max_len⌉, so a band of that width is exact on every
    // pair the bound admits.
    let k = if bound >= 1.0 {
        max_len
    } else {
        ((bound * max_len as f64).ceil() as usize).min(max_len)
    };
    if a.len().abs_diff(b.len()) > k {
        // True distance ≥ length gap > k, and (k+1)/max_len > τ by choice of
        // k, so this sentinel honours the contract without any DP work.
        return (k + 1) as f64 / max_len as f64;
    }
    // The band scans (2k+1) scalar cells per row; the bit-parallel kernel
    // ~16 word ops per 64-cell block.  Prefer the band only when it is
    // clearly narrower.
    let blocks = a.len().min(b.len()).div_ceil(64);
    let d = if 2 * k + 1 < 8 * blocks {
        match levenshtein_banded(a, b, k, scratch) {
            Some(d) => d,
            None => return (k + 1) as f64 / max_len as f64,
        }
    } else {
        levenshtein_myers(a, b, scratch)
    };
    d as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::reference::{char_ids, levenshtein_reference};

    fn myers(a: &str, b: &str) -> usize {
        levenshtein_myers(&char_ids(a), &char_ids(b), &mut EditScratch::default())
    }

    #[test]
    fn myers_matches_classic_values() {
        assert_eq!(myers("kitten", "sitting"), 3);
        assert_eq!(myers("flaw", "lawn"), 2);
        assert_eq!(myers("saturday", "sunday"), 3);
        assert_eq!(myers("gumbo", "gambol"), 2);
        assert_eq!(myers("", "abc"), 3);
        assert_eq!(myers("abc", ""), 3);
        assert_eq!(myers("café", "cafe"), 1);
        assert_eq!(myers("same", "same"), 0);
    }

    #[test]
    fn myers_handles_multi_block_patterns() {
        // Patterns longer than 64 (and 128) ids exercise the block chaining.
        let a: String = "abcdefgh".repeat(20);
        let mut b = a.clone();
        b.replace_range(3..5, "XY");
        b.push_str("tail");
        let (ai, bi) = (char_ids(&a), char_ids(&b));
        assert_eq!(
            levenshtein_myers(&ai, &bi, &mut EditScratch::default()),
            levenshtein_reference(&ai, &bi)
        );
        let c: Vec<u32> = (0..150u32).collect();
        let mut d: Vec<u32> = (0..150u32).map(|x| x + 1000).collect();
        d[40] = 40;
        assert_eq!(
            levenshtein_myers(&c, &d, &mut EditScratch::default()),
            levenshtein_reference(&c, &d)
        );
    }

    #[test]
    fn myers_agrees_with_reference_on_random_like_grid() {
        let words = [
            "",
            "a",
            "ab",
            "team",
            "teams",
            "steam",
            "mississippi bulldogs",
            "missisippi bulldog",
            "2007 lsu tigers football team",
            "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz",
        ];
        let mut scratch = EditScratch::default();
        for x in words {
            for y in words {
                let (xi, yi) = (char_ids(x), char_ids(y));
                assert_eq!(
                    levenshtein_myers(&xi, &yi, &mut scratch),
                    levenshtein_reference(&xi, &yi),
                    "{x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn banded_is_exact_within_budget_and_none_beyond() {
        let mut scratch = EditScratch::default();
        let words = [
            "team",
            "teams",
            "steam",
            "meat",
            "",
            "mate",
            "completely different",
        ];
        for x in words {
            for y in words {
                let (xi, yi) = (char_ids(x), char_ids(y));
                let exact = levenshtein_reference(&xi, &yi);
                for k in 0..12 {
                    let got = levenshtein_banded(&xi, &yi, k, &mut scratch);
                    if exact <= k {
                        assert_eq!(got, Some(exact), "{x:?}/{y:?} k={k}");
                    } else {
                        assert_eq!(got, None, "{x:?}/{y:?} k={k} exact={exact}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_contract_holds_on_sample_pairs() {
        let mut scratch = EditScratch::default();
        let pairs = [
            ("kitten", "sitting"),
            ("2007 lsu tigers football team", "2007 lsu tigers football"),
            ("abc", "xyzw"),
            ("", "abc"),
            ("aaaa", "aaaa"),
        ];
        for (x, y) in pairs {
            let (xi, yi) = (char_ids(x), char_ids(y));
            let exact = bounded_normalized_edit(&xi, &yi, None, &mut scratch);
            for bound in [0.0, 0.05, 0.2, 0.5, 0.9, 1.0] {
                let got = bounded_normalized_edit(&xi, &yi, Some(bound), &mut scratch);
                if exact <= bound {
                    assert_eq!(got, exact, "{x:?}/{y:?} τ={bound}");
                } else {
                    assert!(got > bound, "{x:?}/{y:?} τ={bound}: {got} ≤ bound");
                    assert!(
                        got <= exact + 1e-12,
                        "{x:?}/{y:?} τ={bound}: {got} > exact {exact}"
                    );
                }
            }
        }
    }
}
