//! Apriori frequent-itemset mining (Agrawal & Srikant, 1994).
//!
//! Level-wise search: frequent 1-itemsets seed candidate 2-itemsets, and so
//! on; every candidate's `(k-1)`-subsets must be frequent (the Apriori
//! property). Transactions are sorted item lists, so candidate containment
//! is a linear merge.
//!
//! This is the reference oracle: tests compare the dEclat kernel against
//! it, and no production path calls it.

use std::collections::{BTreeMap, HashSet};

use crate::itemset::{canonical_sort, FrequentItemset, Itemset};
use crate::transaction::TransactionSet;

/// Mine all itemsets with support count >= `min_support_count`.
///
/// Returns itemsets in canonical order (descending support, then size, then
/// lexicographic).
pub fn mine_apriori(transactions: &TransactionSet, min_support_count: u64) -> Vec<FrequentItemset> {
    assert!(min_support_count > 0, "minimum support must be at least 1");
    let mut results: Vec<FrequentItemset> = Vec::new();

    // Level 1: count individual items. BTreeMap makes the emission order
    // structurally deterministic (ascending item id), not an after-the-fact
    // sort over random hash order.
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for t in transactions.iter() {
        for &item in t {
            *counts.entry(item).or_default() += 1;
        }
    }
    let mut frequent: Vec<Itemset> = counts
        .iter()
        .filter(|&(_, &c)| c >= min_support_count)
        .map(|(&item, _)| vec![item])
        .collect();
    for items in &frequent {
        results.push(FrequentItemset {
            items: items.clone(),
            support_count: counts[&items[0]],
        });
    }

    // Levels k >= 2.
    while !frequent.is_empty() {
        let candidates = generate_candidates(&frequent);
        if candidates.is_empty() {
            break;
        }
        // BTreeMap keys iterate in lexicographic itemset order — exactly
        // the sorted order generate_candidates requires of its input.
        let mut candidate_counts: BTreeMap<Itemset, u64> = BTreeMap::new();
        for t in transactions.iter() {
            for c in &candidates {
                if is_subset_sorted(c, t) {
                    *candidate_counts.entry(c.clone()).or_default() += 1;
                }
            }
        }
        let next: Vec<Itemset> = candidate_counts
            .iter()
            .filter(|&(_, &c)| c >= min_support_count)
            .map(|(items, _)| items.clone())
            .collect();
        for items in &next {
            results.push(FrequentItemset {
                items: items.clone(),
                support_count: candidate_counts[items],
            });
        }
        frequent = next;
    }

    canonical_sort(&mut results);
    results
}

/// Join step + prune step of Apriori candidate generation.
///
/// `frequent` holds the frequent k-itemsets (sorted lists, globally
/// sorted); produces candidate (k+1)-itemsets whose every k-subset is
/// frequent.
fn generate_candidates(frequent: &[Itemset]) -> Vec<Itemset> {
    let frequent_set: HashSet<&Itemset> = frequent.iter().collect();
    let mut candidates = Vec::new();
    for (i, a) in frequent.iter().enumerate() {
        for b in &frequent[i + 1..] {
            let k = a.len();
            // Join: sets sharing the first k-1 items.
            if a[..k - 1] != b[..k - 1] {
                // frequent is sorted, so no later b can share the prefix.
                break;
            }
            let mut cand = a.clone();
            cand.push(b[k - 1]);
            // (a and b are sorted and share the prefix; a[k-1] < b[k-1]
            // because the outer list is sorted, so cand is sorted.)
            debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
            // Prune: all k-subsets must be frequent. The two subsets
            // obtained by removing the last two items are a and b
            // themselves; check the rest.
            let all_frequent = (0..k - 1).all(|skip| {
                let subset: Itemset = cand
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, &x)| x)
                    .collect();
                frequent_set.contains(&subset)
            });
            if all_frequent {
                candidates.push(cand);
            }
        }
    }
    candidates
}

/// Whether sorted `needle` is a subset of sorted `haystack` (linear merge).
pub(crate) fn is_subset_sorted(needle: &[u32], haystack: &[u32]) -> bool {
    let mut hi = 0;
    'outer: for &n in needle {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::ItemMode;

    fn ts(raw: Vec<Vec<u32>>) -> TransactionSet {
        TransactionSet::from_raw(raw, ItemMode::Ingredients)
    }

    #[test]
    fn subset_check() {
        assert!(is_subset_sorted(&[2, 5], &[1, 2, 3, 5]));
        assert!(is_subset_sorted(&[], &[1, 2]));
        assert!(!is_subset_sorted(&[4], &[1, 2, 3]));
        assert!(!is_subset_sorted(&[1, 2], &[2, 3]));
        assert!(!is_subset_sorted(&[1], &[]));
    }

    #[test]
    fn textbook_example() {
        // Classic example: transactions over items 1..5.
        let t = ts(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ]);
        let result = mine_apriori(&t, 2);
        let get = |items: &[u32]| {
            result
                .iter()
                .find(|f| f.items == items)
                .map(|f| f.support_count)
        };
        assert_eq!(get(&[1]), Some(2));
        assert_eq!(get(&[2]), Some(3));
        assert_eq!(get(&[3]), Some(3));
        assert_eq!(get(&[5]), Some(3));
        assert_eq!(get(&[4]), None, "support 1 < 2");
        assert_eq!(get(&[1, 3]), Some(2));
        assert_eq!(get(&[2, 3]), Some(2));
        assert_eq!(get(&[2, 5]), Some(3));
        assert_eq!(get(&[3, 5]), Some(2));
        assert_eq!(get(&[2, 3, 5]), Some(2));
        assert_eq!(get(&[1, 2]), None);
        assert_eq!(result.len(), 9);
    }

    #[test]
    fn empty_transactions_yield_nothing() {
        assert!(mine_apriori(&ts(vec![]), 1).is_empty());
        assert!(mine_apriori(&ts(vec![vec![], vec![]]), 1).is_empty());
    }

    #[test]
    fn min_support_one_enumerates_all_observed_subsets() {
        let t = ts(vec![vec![1, 2]]);
        let result = mine_apriori(&t, 1);
        // {1}, {2}, {1,2}
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn results_are_canonically_sorted() {
        let t = ts(vec![vec![1, 2, 3], vec![1, 2], vec![1]]);
        let result = mine_apriori(&t, 1);
        for w in result.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert!(
                a.support_count > b.support_count
                    || (a.support_count == b.support_count && a.items.len() <= b.items.len())
            );
        }
    }

    #[test]
    #[should_panic(expected = "minimum support")]
    fn rejects_zero_support() {
        let _ = mine_apriori(&ts(vec![vec![1]]), 0);
    }

    #[test]
    fn supports_decrease_with_size() {
        // Anti-monotonicity: support of a superset never exceeds a subset's.
        let t = ts(vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 3],
            vec![1, 2],
            vec![1],
            vec![2, 3, 4],
        ]);
        let result = mine_apriori(&t, 1);
        for f in &result {
            for g in &result {
                if is_subset_sorted(&f.items, &g.items) && f.items.len() < g.items.len() {
                    assert!(f.support_count >= g.support_count);
                }
            }
        }
    }
}
