//! Vertical tid bitmaps: the dense representation behind the dEclat
//! kernel's tid-sets ([`crate::diffset`]).
//!
//! A [`TidBitmap`] packs a set of transaction ids into `Vec<u64>` words.
//! Support counting — the inner loop of vertical mining — becomes a word-wise AND
//! plus `count_ones`, processing 64 tids per instruction instead of one
//! comparison per element. [`TidBitmap::and_count`] counts an
//! intersection *without materializing it*, so infrequent candidate
//! extensions cost zero allocations.

/// Bits per storage word.
pub const WORD_BITS: usize = 64;

/// A set of transaction ids over a fixed universe `0..universe`, stored as
/// dense bit words with the cardinality cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TidBitmap {
    words: Vec<u64>,
    universe: usize,
    count: u64,
}

impl TidBitmap {
    /// An empty bitmap over `0..universe`.
    pub fn new(universe: usize) -> Self {
        TidBitmap { words: vec![0; universe.div_ceil(WORD_BITS)], universe, count: 0 }
    }

    /// Build from a sorted, duplicate-free tid slice.
    ///
    /// # Panics
    /// Debug builds assert every tid is below `universe` and the input is
    /// strictly increasing.
    pub fn from_sorted_tids(tids: &[u32], universe: usize) -> Self {
        debug_assert!(tids.windows(2).all(|w| w[0] < w[1]), "tids must be strictly increasing");
        debug_assert!(tids.last().is_none_or(|&t| (t as usize) < universe));
        let mut words = vec![0u64; universe.div_ceil(WORD_BITS)];
        for &tid in tids {
            words[tid as usize / WORD_BITS] |= 1u64 << (tid as usize % WORD_BITS);
        }
        TidBitmap { words, universe, count: tids.len() as u64 }
    }

    /// Set one tid (idempotent).
    pub fn insert(&mut self, tid: u32) {
        debug_assert!((tid as usize) < self.universe);
        let word = &mut self.words[tid as usize / WORD_BITS];
        let mask = 1u64 << (tid as usize % WORD_BITS);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
        }
    }

    /// Whether `tid` is present.
    pub fn contains(&self, tid: u32) -> bool {
        let idx = tid as usize / WORD_BITS;
        idx < self.words.len() && self.words[idx] & (1u64 << (tid as usize % WORD_BITS)) != 0
    }

    /// Cached cardinality.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no tid is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The universe size this bitmap covers (`0..universe`).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of storage words (the cost unit of one AND pass).
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Cardinality of `self ∩ other` via popcount, **without** allocating
    /// the intersection.
    ///
    /// # Panics
    /// Debug builds assert the universes match.
    pub fn and_count(&self, other: &TidBitmap) -> u64 {
        debug_assert_eq!(self.universe, other.universe, "bitmap universes must match");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum()
    }

    /// Materialize `self ∩ other` with its cardinality cached.
    ///
    /// # Panics
    /// Debug builds assert the universes match.
    pub fn and(&self, other: &TidBitmap) -> TidBitmap {
        debug_assert_eq!(self.universe, other.universe, "bitmap universes must match");
        let mut count = 0u64;
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| {
                let w = a & b;
                count += u64::from(w.count_ones());
                w
            })
            .collect();
        TidBitmap { words, universe: self.universe, count }
    }

    /// Cardinality of `self \ other` via popcount, **without** allocating
    /// the difference (the diffset analogue of [`TidBitmap::and_count`]).
    ///
    /// # Panics
    /// Debug builds assert the universes match.
    pub fn and_not_count(&self, other: &TidBitmap) -> u64 {
        debug_assert_eq!(self.universe, other.universe, "bitmap universes must match");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| u64::from((a & !b).count_ones()))
            .sum()
    }

    /// Materialize `self \ other` with its cardinality cached.
    ///
    /// # Panics
    /// Debug builds assert the universes match.
    pub fn and_not(&self, other: &TidBitmap) -> TidBitmap {
        debug_assert_eq!(self.universe, other.universe, "bitmap universes must match");
        let mut count = 0u64;
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| {
                let w = a & !b;
                count += u64::from(w.count_ones());
                w
            })
            .collect();
        TidBitmap { words, universe: self.universe, count }
    }

    /// The tids in ascending order.
    pub fn to_sorted_tids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count as usize);
        for (i, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                out.push((i * WORD_BITS) as u32 + bit);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap(tids: &[u32], universe: usize) -> TidBitmap {
        TidBitmap::from_sorted_tids(tids, universe)
    }

    #[test]
    fn empty_bitmap_over_any_universe() {
        for universe in [0usize, 1, 63, 64, 65, 1000] {
            let b = TidBitmap::new(universe);
            assert_eq!(b.count(), 0);
            assert!(b.is_empty());
            assert_eq!(b.universe(), universe);
            assert_eq!(b.word_len(), universe.div_ceil(64));
            assert!(b.to_sorted_tids().is_empty());
        }
    }

    #[test]
    fn word_boundary_universes_roundtrip() {
        // 63, 64, 65 tids straddle the one-word/two-word boundary.
        for n in [63usize, 64, 65] {
            let tids: Vec<u32> = (0..n as u32).collect();
            let b = bitmap(&tids, n);
            assert_eq!(b.count(), n as u64, "all-ones universe {n}");
            assert_eq!(b.to_sorted_tids(), tids, "universe {n}");
            assert!(b.contains(n as u32 - 1));
            assert!(!b.contains(n as u32), "out-of-universe tid");
            // The last tid alone exercises the top bit of the last word.
            let last = bitmap(&[n as u32 - 1], n);
            assert_eq!(last.count(), 1);
            assert_eq!(last.to_sorted_tids(), vec![n as u32 - 1]);
        }
    }

    #[test]
    fn and_and_and_count_agree() {
        let a = bitmap(&[0, 1, 5, 63, 64, 100, 127], 128);
        let b = bitmap(&[1, 2, 63, 64, 99, 127], 128);
        let inter = a.and(&b);
        assert_eq!(inter.to_sorted_tids(), vec![1, 63, 64, 127]);
        assert_eq!(inter.count(), 4);
        assert_eq!(a.and_count(&b), 4);
        assert_eq!(b.and_count(&a), 4);
        // Self-intersection is identity.
        assert_eq!(a.and(&a), a);
        assert_eq!(a.and_count(&a), a.count());
    }

    #[test]
    fn and_not_and_and_not_count_agree() {
        let a = bitmap(&[0, 1, 5, 63, 64, 100, 127], 128);
        let b = bitmap(&[1, 2, 63, 64, 99, 127], 128);
        let diff = a.and_not(&b);
        assert_eq!(diff.to_sorted_tids(), vec![0, 5, 100]);
        assert_eq!(diff.count(), 3);
        assert_eq!(a.and_not_count(&b), 3);
        assert_eq!(b.and_not_count(&a), 2, "{{2, 99}}");
        // Self-difference is empty; difference with empty is identity.
        assert_eq!(a.and_not_count(&a), 0);
        assert!(a.and_not(&a).is_empty());
        let empty = TidBitmap::new(128);
        assert_eq!(a.and_not(&empty), a);
    }

    #[test]
    fn insert_is_idempotent_and_counts_once() {
        let mut b = TidBitmap::new(70);
        b.insert(64);
        b.insert(64);
        b.insert(3);
        assert_eq!(b.count(), 2);
        assert_eq!(b.to_sorted_tids(), vec![3, 64]);
        assert!(b.contains(64));
        assert!(!b.contains(65));
    }

    #[test]
    fn all_ones_intersection_with_sparse() {
        let n = 130usize;
        let all: Vec<u32> = (0..n as u32).collect();
        let dense = bitmap(&all, n);
        let sparse = bitmap(&[0, 64, 129], n);
        assert_eq!(dense.and(&sparse), sparse);
        assert_eq!(dense.and_count(&sparse), 3);
        assert_eq!(dense.count(), n as u64);
    }
}
