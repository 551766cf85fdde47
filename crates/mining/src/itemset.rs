//! Itemsets and frequent-itemset records.

use serde::{Deserialize, Serialize};

/// A sorted, duplicate-free set of dense item ids.
///
/// Items are `u32` indices whose meaning is defined by the
/// [`crate::transaction::TransactionSet`] that produced them (ingredient
/// entity ids or category indices).
pub type Itemset = Vec<u32>;

/// An itemset together with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Itemset,
    /// Number of transactions containing all the items.
    pub support_count: u64,
}

impl FrequentItemset {
    /// Relative support given the total transaction count.
    ///
    /// # Panics
    /// Panics when `total` is zero.
    pub fn relative_support(&self, total: usize) -> f64 {
        assert!(total > 0, "relative support of an empty transaction set");
        self.support_count as f64 / total as f64
    }

    /// Itemset size.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the (never produced) empty itemset; API completeness.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Canonical ordering for mining results so dEclat and Apriori output
/// can be compared directly: descending support, then ascending size, then
/// lexicographic items.
pub fn canonical_sort(itemsets: &mut [FrequentItemset]) {
    itemsets.sort_by(|a, b| {
        b.support_count
            .cmp(&a.support_count)
            .then(a.items.len().cmp(&b.items.len()))
            .then_with(|| a.items.cmp(&b.items))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_support_is_fractional() {
        let f = FrequentItemset { items: vec![1, 2], support_count: 5 };
        assert!((f.relative_support(20) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty transaction set")]
    fn relative_support_rejects_zero_total() {
        let f = FrequentItemset { items: vec![1], support_count: 1 };
        let _ = f.relative_support(0);
    }

    #[test]
    fn canonical_sort_orders_by_support_then_size_then_items() {
        let mut sets = vec![
            FrequentItemset { items: vec![3], support_count: 2 },
            FrequentItemset { items: vec![1, 2], support_count: 5 },
            FrequentItemset { items: vec![2], support_count: 5 },
            FrequentItemset { items: vec![1], support_count: 5 },
        ];
        canonical_sort(&mut sets);
        assert_eq!(sets[0].items, vec![1]);
        assert_eq!(sets[1].items, vec![2]);
        assert_eq!(sets[2].items, vec![1, 2]);
        assert_eq!(sets[3].items, vec![3]);
    }
}
