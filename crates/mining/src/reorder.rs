//! Support-ascending item reordering and the parallel-DFS front-end of
//! the dEclat kernel.
//!
//! # Reordering
//!
//! A vertical DFS miner extends each equivalence-class member only by the
//! members *after* it, so class order decides the shape of the search
//! tree. Processing items in **ascending support** order is the classic
//! Eclat/dEclat heuristic (Zaki, 2000): rare items head the prefixes, so
//! candidate tid-sets shrink as early as possible and the bushy part of
//! the lattice is explored with the smallest intermediates.
//!
//! Frequent itemsets and their supports are a function of the *set* of
//! items per transaction, not of item labels — relabeling items permutes
//! itemsets but changes neither membership nor support. [`ItemReorder`]
//! exploits this: the kernel mines over dense rank ids assigned in
//! ascending `(support, item)` order, then [`ItemReorder::decode`] maps
//! ranks back to items and re-sorts each itemset ascending. After
//! [`canonical_sort`] — a *total* order on `(support, len, items)` — the
//! output bytes are identical to an un-reordered run, which is exactly
//! what the Apriori-oracle property tests and the determinism suite
//! pin.
//!
//! # Parallel DFS
//!
//! First-level equivalence classes are independent: the subtree rooted at
//! class member `i` only reads members `i+1..`. [`mine_classes`] fans the
//! root-level subtrees out over [`cuisine_exec::par_map_range`] and
//! concatenates the per-root result vectors in root order, so the
//! pre-`canonical_sort` sequence — and therefore every output byte — is
//! independent of the thread count. The knob follows the workspace
//! convention (`None` = available parallelism, `Some(0|1)` = sequential);
//! kernels run sequentially by default so they stay well-behaved under
//! the per-cuisine fan-out above them (the nested-parallelism convention
//! from the analytics layer).

use crate::itemset::FrequentItemset;

/// A rank permutation built from 1-item supports: rank `r` (the id the
/// kernel mines over) maps back to the original item `rank_to_item[r]`.
#[derive(Debug, Clone)]
pub(crate) struct ItemReorder {
    rank_to_item: Vec<u32>,
}

impl ItemReorder {
    /// Relabel `roots` (in ascending item order, as built from the
    /// `BTreeMap` vertical pass) with dense rank ids assigned in ascending
    /// `(support, item)` order. Returns the roots sorted by rank together
    /// with the permutation needed to undo the relabeling.
    pub(crate) fn relabel<T>(
        roots: Vec<(u32, T)>,
        support: impl Fn(&T) -> u64,
    ) -> (Vec<(u32, T)>, ItemReorder) {
        let mut order: Vec<usize> = (0..roots.len()).collect();
        // `sort_by_key` is stable and `roots` is already ascending by
        // item, so ties on support deterministically break by item id.
        order.sort_by_key(|&i| support(&roots[i].1));

        let mut slots: Vec<Option<(u32, T)>> = roots.into_iter().map(Some).collect();
        let mut rank_to_item = Vec::with_capacity(slots.len());
        let mut relabeled = Vec::with_capacity(slots.len());
        for (rank, &i) in order.iter().enumerate() {
            let (item, payload) = slots[i].take().expect("each root is moved exactly once");
            rank_to_item.push(item);
            relabeled.push((rank as u32, payload));
        }
        (relabeled, ItemReorder { rank_to_item })
    }

    /// Map rank-space itemsets back to item space and restore the
    /// ascending-items invariant inside each itemset. The caller's
    /// [`canonical_sort`] then restores the global order.
    ///
    /// [`canonical_sort`]: crate::itemset::canonical_sort
    pub(crate) fn decode(&self, itemsets: &mut [FrequentItemset]) {
        for itemset in itemsets {
            for rank in &mut itemset.items {
                *rank = self.rank_to_item[*rank as usize];
            }
            itemset.items.sort_unstable();
        }
    }
}

/// Drive the root-level DFS fan-out of the kernel.
///
/// `expand(i, roots, out)` must emit the full subtree rooted at class
/// member `i` (the member itself plus every extension drawn from
/// `roots[i+1..]`) into `out`. Per-root outputs are concatenated in root
/// order, so the result is byte-for-byte independent of `threads`; the
/// caller applies [`crate::itemset::canonical_sort`] afterwards.
pub(crate) fn mine_classes<T, F>(
    roots: &[(u32, T)],
    threads: Option<usize>,
    expand: F,
) -> Vec<FrequentItemset>
where
    T: Sync,
    F: Fn(usize, &[(u32, T)], &mut Vec<FrequentItemset>) + Sync,
{
    cuisine_exec::par_map_range(roots.len(), threads, |i| {
        let mut out = Vec::new();
        expand(i, roots, &mut out);
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(items: &[u32], support_count: u64) -> FrequentItemset {
        FrequentItemset { items: items.to_vec(), support_count }
    }

    #[test]
    fn relabel_assigns_ranks_support_ascending() {
        let roots = vec![(10u32, 5u64), (20, 2), (30, 9), (40, 2)];
        let (relabeled, reorder) = ItemReorder::relabel(roots, |&s| s);
        // Supports ascending with item-id tie-break: 20(2), 40(2), 10(5), 30(9).
        assert_eq!(relabeled, vec![(0u32, 2u64), (1, 2), (2, 5), (3, 9)]);
        assert_eq!(reorder.rank_to_item, vec![20, 40, 10, 30]);
    }

    #[test]
    fn decode_restores_items_and_sortedness() {
        let (_, reorder) = ItemReorder::relabel(
            vec![(10u32, 5u64), (20, 2), (30, 9)],
            |&s| s,
        );
        // rank_to_item = [20, 10, 30]; rank-space itemset {0,1} = items {20,10}.
        let mut mined = vec![fi(&[0, 1], 2), fi(&[2], 9)];
        reorder.decode(&mut mined);
        assert_eq!(mined, vec![fi(&[10, 20], 2), fi(&[30], 9)]);
    }

    #[test]
    fn mine_classes_is_thread_count_invariant() {
        let roots: Vec<(u32, u64)> = (0..17).map(|i| (i, u64::from(i))).collect();
        let expand = |i: usize, roots: &[(u32, u64)], out: &mut Vec<FrequentItemset>| {
            // A stand-in subtree: the root plus one pair per later member.
            out.push(fi(&[roots[i].0], roots[i].1));
            for (other, s) in &roots[i + 1..] {
                out.push(fi(&[roots[i].0, *other], *s));
            }
        };
        let sequential = mine_classes(&roots, Some(1), expand);
        for threads in [Some(2), Some(4), Some(16), None] {
            assert_eq!(mine_classes(&roots, threads, expand), sequential, "{threads:?}");
        }
    }

    #[test]
    fn empty_roots_mine_nothing() {
        let roots: Vec<(u32, u64)> = Vec::new();
        assert!(mine_classes(&roots, None, |_, _, _| unreachable!()).is_empty());
    }
}
