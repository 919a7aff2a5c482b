//! Pattern-match masks: the bit-parallel character table shared by the
//! Myers edit-distance and Jaro kernels.
//!
//! For a pattern `p` of length `m`, the mask of a character id `c` is the
//! set of positions `i` with `p[i] == c`, stored as `⌈m/64⌉` `u64` words
//! (bit `i % 64` of word `i / 64`).  Ids below 256 index a direct table;
//! any other id lives in a sorted spill list found by binary search, so a
//! record of `k` distinct ids past Latin-1 costs `O(m log m)` to build and
//! `O(log k)` per lookup.
//!
//! The table is scratch memory: [`PatternMasks::with`] sets only the words
//! the pattern touches, runs the kernel, and zeroes those words again, so
//! every call starts from an all-zero table without paying for a full clear.

/// Ids below this bound use the direct table.
const DIRECT: usize = 256;

/// Reusable pattern-match mask table (one per kernel scratch).
#[derive(Debug, Default, Clone)]
pub(super) struct PatternMasks {
    /// Words per character, `⌈m/64⌉` for the current pattern.
    words: usize,
    /// `(DIRECT + 1) × words` masks, row `c` for id `c < DIRECT`; row
    /// `DIRECT` is never written and answers every absent id.  All zero
    /// between calls.
    direct: Vec<u64>,
    /// Ids `≥ DIRECT` present in the current pattern, sorted and distinct.
    spill_ids: Vec<u32>,
    /// Their masks, `spill_ids.len() × words`, row-major.
    spill_masks: Vec<u64>,
}

impl PatternMasks {
    /// Build the masks of `pattern`, run `f` over them, then clear them.
    pub(super) fn with<R>(&mut self, pattern: &[u32], f: impl FnOnce(&Self) -> R) -> R {
        let w = pattern.len().div_ceil(64);
        self.words = w;
        if self.direct.len() < (DIRECT + 1) * w {
            self.direct.resize((DIRECT + 1) * w, 0);
        }
        for (i, &c) in pattern.iter().enumerate() {
            if (c as usize) < DIRECT {
                self.direct[c as usize * w + i / 64] |= 1u64 << (i % 64);
            } else {
                self.spill_ids.push(c);
            }
        }
        if !self.spill_ids.is_empty() {
            self.spill_ids.sort_unstable();
            self.spill_ids.dedup();
            self.spill_masks.resize(self.spill_ids.len() * w, 0);
            for (i, &c) in pattern.iter().enumerate() {
                if let Ok(row) = self.spill_ids.binary_search(&c) {
                    self.spill_masks[row * w + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        let out = f(self);
        for (i, &c) in pattern.iter().enumerate() {
            if (c as usize) < DIRECT {
                self.direct[c as usize * w + i / 64] = 0;
            }
        }
        self.spill_ids.clear();
        self.spill_masks.clear();
        out
    }

    /// The mask words of character id `c` (all zero if the pattern lacks it).
    #[inline]
    pub(super) fn row(&self, c: u32) -> &[u64] {
        let w = self.words;
        let slot = if (c as usize) < DIRECT {
            c as usize
        } else {
            match self.spill_ids.binary_search(&c) {
                Ok(row) => return &self.spill_masks[row * w..(row + 1) * w],
                Err(_) => DIRECT,
            }
        };
        &self.direct[slot * w..(slot + 1) * w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(words: &[u64]) -> Vec<usize> {
        (0..words.len() * 64)
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn masks_hold_every_position_of_each_id() {
        let mut pattern: Vec<u32> = (0..150).map(|i| [97, 98, 0x4E2D][i % 3]).collect();
        pattern[149] = 0x1F600;
        let mut masks = PatternMasks::default();
        masks.with(&pattern, |pm| {
            assert_eq!(pm.words, 3);
            for c in [97u32, 98, 0x4E2D, 0x1F600, 99, 0x10FFFF] {
                let expect: Vec<usize> = (0..pattern.len()).filter(|&i| pattern[i] == c).collect();
                assert_eq!(positions(pm.row(c)), expect, "id {c:#x}");
            }
        });
    }

    #[test]
    fn table_is_clear_after_each_call() {
        let mut masks = PatternMasks::default();
        let long: Vec<u32> = (0..130).map(|i| i % 300).collect();
        masks.with(&long, |_| ());
        assert!(masks.direct.iter().all(|&w| w == 0));
        assert!(masks.spill_ids.is_empty() && masks.spill_masks.is_empty());
        // A shorter pattern reuses the wider table at a smaller stride.
        masks.with(&[5, 7, 5], |pm| {
            assert_eq!(pm.words, 1);
            assert_eq!(pm.row(5), &[0b101]);
            assert_eq!(pm.row(7), &[0b010]);
            assert_eq!(pm.row(299), &[0]);
        });
    }
}
