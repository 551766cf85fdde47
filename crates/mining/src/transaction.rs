//! Encoding recipes as transactions for itemset mining.
//!
//! The paper mines combinations at two granularities (Fig. 3a vs 3b):
//! individual ingredients and ingredient categories. [`ItemMode`] selects
//! the granularity; [`TransactionSet`] holds the encoded transactions of
//! one cuisine (or of any recipe collection).
//!
//! # Representation
//!
//! Transactions are stored in CSR (compressed sparse row) form: one flat
//! `Vec<u32>` items buffer plus an offsets table, so an entire encoding is
//! exactly two allocations regardless of recipe count. The evolution loop
//! encodes a fresh pool per replicate (100 replicates × 25 cuisines × 4
//! models), where the previous `Vec<Vec<u32>>` layout paid one allocation
//! per recipe; CSR also hands the mining kernel contiguous,
//! cache-friendly slices.

use cuisine_data::{Corpus, CuisineId, Recipe};
use cuisine_lexicon::Lexicon;
#[cfg(test)]
use cuisine_lexicon::Category;
use serde::{Deserialize, Serialize};

/// Granularity at which recipes are converted to transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ItemMode {
    /// Items are ingredient entity ids.
    Ingredients,
    /// Items are category indices; a recipe's transaction is the *set* of
    /// categories it draws from.
    Categories,
}

/// A collection of transactions: each a sorted, duplicate-free `&[u32]`
/// slice into one shared CSR items buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransactionSet {
    /// Flat items buffer; transaction `i` is
    /// `items[offsets[i] .. offsets[i + 1]]`.
    items: Vec<u32>,
    /// `len() + 1` monotone offsets into `items` (first entry 0).
    offsets: Vec<u32>,
    mode: ItemMode,
}

impl TransactionSet {
    /// An empty set at the given granularity.
    fn empty(mode: ItemMode) -> Self {
        TransactionSet { items: Vec::new(), offsets: vec![0], mode }
    }

    /// Close the currently open transaction: sort + dedup the tail written
    /// since the last offset, then record the new boundary.
    fn seal_transaction(&mut self) {
        let start = *self.offsets.last().unwrap_or(&0) as usize;
        self.items[start..].sort_unstable();
        // In-place dedup of the tail (Vec::dedup would scan the whole
        // buffer).
        let mut write = start;
        for read in start..self.items.len() {
            if write == start || self.items[write - 1] != self.items[read] {
                self.items[write] = self.items[read];
                write += 1;
            }
        }
        self.items.truncate(write);
        self.offsets.push(self.items.len() as u32);
    }

    /// Encode the recipes of one cuisine.
    pub fn from_cuisine(
        corpus: &Corpus,
        cuisine: CuisineId,
        mode: ItemMode,
        lexicon: &Lexicon,
    ) -> Self {
        Self::from_recipes(corpus.recipes_in(cuisine), mode, lexicon)
    }

    /// Encode an arbitrary recipe collection.
    pub fn from_recipes<'a>(
        recipes: impl IntoIterator<Item = &'a Recipe>,
        mode: ItemMode,
        lexicon: &Lexicon,
    ) -> Self {
        let mut set = Self::empty(mode);
        for r in recipes {
            match mode {
                ItemMode::Ingredients => {
                    // Recipe ingredient lists are already sorted and
                    // deduplicated; copy straight into the buffer.
                    set.items.extend(r.ingredients().iter().map(|id| id.0 as u32));
                    debug_assert!({
                        let start = *set.offsets.last().unwrap_or(&0) as usize;
                        set.items[start..].windows(2).all(|w| w[0] < w[1])
                    });
                    set.offsets.push(set.items.len() as u32);
                }
                ItemMode::Categories => {
                    set.items.extend(
                        r.ingredients()
                            .iter()
                            .map(|&id| lexicon.category(id).index() as u32),
                    );
                    set.seal_transaction();
                }
            }
        }
        set
    }

    /// Build directly from raw item lists (for tests and synthetic inputs).
    /// Each transaction is sorted and deduplicated.
    pub fn from_raw(raw: Vec<Vec<u32>>, mode: ItemMode) -> Self {
        let mut set = Self::empty(mode);
        for t in raw {
            set.items.extend(t);
            set.seal_transaction();
        }
        set
    }

    /// Transaction `i` as a slice of the shared items buffer.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn transaction(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate the transactions as slices of the shared items buffer.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(move |w| &self.items[w[0] as usize..w[1] as usize])
    }

    /// The flat CSR items buffer (all transactions concatenated).
    pub fn csr_items(&self) -> &[u32] {
        &self.items
    }

    /// The CSR offsets table (`len() + 1` entries, first 0, monotone).
    pub fn csr_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The granularity this set was encoded at.
    pub fn mode(&self) -> ItemMode {
        self.mode
    }

    /// Absolute support threshold corresponding to a relative one, rounded
    /// *up* so that "at least 5% of all recipes" holds exactly.
    ///
    /// # Panics
    /// Panics when `relative` is outside `(0, 1]`.
    pub fn absolute_support(&self, relative: f64) -> u64 {
        assert!(
            relative > 0.0 && relative <= 1.0,
            "relative support must be in (0, 1], got {relative}"
        );
        (relative * self.len() as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuisine_data::Recipe;

    #[test]
    fn ingredient_transactions_use_entity_ids() {
        let lex = Lexicon::standard();
        let (r, _) = Recipe::from_mentions(CuisineId(0), ["cumin", "olive", "cilantro"], lex);
        let ts = TransactionSet::from_recipes([&r], ItemMode::Ingredients, lex);
        assert_eq!(ts.len(), 1);
        let t = ts.transaction(0);
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn category_transactions_dedup_categories() {
        let lex = Lexicon::standard();
        // Two spices + one herb -> categories {Spice, Herb}.
        let (r, _) = Recipe::from_mentions(CuisineId(0), ["cumin", "turmeric", "basil"], lex);
        let ts = TransactionSet::from_recipes([&r], ItemMode::Categories, lex);
        let t = ts.transaction(0);
        assert_eq!(t.len(), 2);
        assert!(t.contains(&(Category::Spice.index() as u32)));
        assert!(t.contains(&(Category::Herb.index() as u32)));
    }

    #[test]
    fn from_raw_sorts_and_dedups() {
        let ts = TransactionSet::from_raw(vec![vec![3, 1, 3, 2]], ItemMode::Ingredients);
        assert_eq!(ts.transaction(0), &[1, 2, 3]);
    }

    #[test]
    fn csr_layout_is_flat_and_monotone() {
        let ts = TransactionSet::from_raw(
            vec![vec![2, 1], vec![], vec![5, 5, 4]],
            ItemMode::Ingredients,
        );
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.csr_items(), &[1, 2, 4, 5]);
        assert_eq!(ts.csr_offsets(), &[0, 2, 2, 4]);
        assert_eq!(ts.transaction(0), &[1, 2]);
        assert!(ts.transaction(1).is_empty());
        assert_eq!(ts.transaction(2), &[4, 5]);
        let collected: Vec<&[u32]> = ts.iter().collect();
        assert_eq!(collected, vec![&[1u32, 2][..], &[][..], &[4, 5][..]]);
    }

    #[test]
    fn csr_roundtrips_the_nested_encoding() {
        // The CSR form must carry exactly the information of the previous
        // nested `Vec<Vec<u32>>` layout: rebuild the nested view and
        // re-encode it, which must reproduce the same buffers.
        let raw = vec![vec![7, 3], vec![], vec![9], vec![1, 2, 3, 4], vec![3, 3, 3]];
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let nested: Vec<Vec<u32>> = ts.iter().map(<[u32]>::to_vec).collect();
        let rebuilt = TransactionSet::from_raw(nested.clone(), ItemMode::Ingredients);
        assert_eq!(ts, rebuilt);
        assert_eq!(nested.len(), ts.len());
        assert_eq!(
            nested.iter().map(Vec::len).sum::<usize>(),
            ts.csr_items().len()
        );
    }

    #[test]
    fn empty_set_has_single_offset() {
        let ts = TransactionSet::from_raw(vec![], ItemMode::Ingredients);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.csr_offsets(), &[0]);
        assert_eq!(ts.iter().count(), 0);
    }

    #[test]
    fn absolute_support_rounds_up() {
        let ts = TransactionSet::from_raw(vec![vec![0]; 470], ItemMode::Ingredients);
        // 5% of 470 = 23.5 -> 24 ("at least 5%").
        assert_eq!(ts.absolute_support(0.05), 24);
        let ts = TransactionSet::from_raw(vec![vec![0]; 100], ItemMode::Ingredients);
        assert_eq!(ts.absolute_support(0.05), 5);
    }

    #[test]
    #[should_panic(expected = "relative support")]
    fn absolute_support_rejects_zero() {
        let ts = TransactionSet::from_raw(vec![], ItemMode::Ingredients);
        let _ = ts.absolute_support(0.0);
    }
}
