//! dEclat: vertical mining over *diffsets* (Zaki & Gouda, 2003).
//!
//! Deep in the Eclat lattice, tid-sets of sibling extensions become
//! nearly identical — storing each child's full tid-set repeats almost
//! all of the parent's. dEclat stores the **diffset** instead: the tids
//! the child *lost* relative to its parent, so
//! `support(child) = support(parent) − |diffset|`. On dense workloads the
//! diffsets shrink geometrically down the DFS while tid-sets stay large,
//! which is exactly the regime of the paper's full-scale ingredient
//! corpus.
//!
//! # Representation switch
//!
//! Every node picks the cheapest of three representations, sized in the
//! units one intersection pass touches:
//!
//! - dense tid **bitmap** — `ceil(universe/64)` words (chosen only while
//!   the cardinality is at least the word count, density ≥ 1/64),
//! - sorted tid **list** — `support` elements,
//! - sorted **diffset** list — `parent_support − support` elements.
//!
//! Because the choice is per node, a class mixes representations and
//! [`combine`] implements the support algebra for every pairing (members
//! `X`, `Y` of one class share the parent `P`; diffsets are relative to
//! the parent, and the combined node `XY` is a child of `PX`):
//!
//! | `X` rep | `Y` rep | support of `XY` | child node of `PX` |
//! |---|---|---|---|
//! | tidset `tx` | tidset `ty` | `\|tx ∩ ty\|` | tidset `tx ∩ ty` or diffset `tx \ ty` |
//! | tidset `tx` | diffset `dy` | `sup(X) − \|tx ∩ dy\|` | tidset `tx \ dy` or diffset `tx ∩ dy` |
//! | diffset `dx` | tidset `ty` | `\|ty \ dx\|` | tidset `ty \ dx` (diffset needs `t(P)`) |
//! | diffset `dx` | diffset `dy` | `sup(X) − \|dy \ dx\|` | diffset `dy \ dx` |
//!
//! The identities follow from `t(X) = t(P) \ dx` and `d(XY) ⊆ t(X)`:
//! e.g. `t(XY) = tx ∩ (t(P) \ dy) = tx \ dy` since `tx ⊆ t(P)`, and
//! `d(PXY rel PX) = t(X) \ t(XY)`. Roots are children of the empty prefix
//! whose tid-set is the whole universe, so a root may itself start as a
//! complement diffset when the item is nearly universal.
//!
//! # Determinism
//!
//! Output is byte-identical to the reference Apriori miner (pinned by the
//! property tests): representations change *how* a support is computed,
//! never its value; [`ItemReorder`] is undone before the total
//! [`canonical_sort`]; and [`mine_classes`] merges per-class results in
//! class order whatever the thread count.

use std::collections::BTreeMap;

use crate::bitmap::TidBitmap;
use crate::itemset::{canonical_sort, FrequentItemset, Itemset};
use crate::reorder::{mine_classes, ItemReorder};
use crate::transaction::TransactionSet;
use crate::MineOpts;

/// A DFS node's tid information, in whichever form is smallest.
#[derive(Debug, Clone)]
enum Rep {
    /// Dense tid bitmap (cardinality ≥ word count).
    Bitmap(TidBitmap),
    /// Sorted tid list.
    Tids(Vec<u32>),
    /// Sorted diffset against the parent prefix:
    /// `support = parent_support − len`.
    Diff(Vec<u32>),
}

/// One equivalence-class member: explicit support plus its [`Rep`].
#[derive(Debug, Clone)]
struct Node {
    support: u64,
    rep: Rep,
}

/// Storage cost of a materialized tid-set of cardinality `support`: a
/// sorted list, unless the bitmap (word count) is no larger (density
/// ≥ 1/64).
fn tid_cost(support: u64, universe: usize) -> usize {
    (support as usize).min(universe.div_ceil(64))
}

/// Wrap a sorted tid list in the cheaper tid-set representation.
fn tidset(tids: Vec<u32>, universe: usize) -> Rep {
    if tids.len() >= universe.div_ceil(64) {
        Rep::Bitmap(TidBitmap::from_sorted_tids(&tids, universe))
    } else {
        Rep::Tids(tids)
    }
}

/// Mine all itemsets with support count ≥ `min_support_count` using the
/// dEclat kernel with default options (sequential DFS). Output is
/// identical to [`crate::apriori::mine_apriori`].
pub fn mine_declat(
    transactions: &TransactionSet,
    min_support_count: u64,
) -> Vec<FrequentItemset> {
    mine_declat_with(transactions, min_support_count, MineOpts::default())
}

/// [`mine_declat`] with explicit DFS parallelism options.
pub fn mine_declat_with(
    transactions: &TransactionSet,
    min_support_count: u64,
    opts: MineOpts,
) -> Vec<FrequentItemset> {
    assert!(min_support_count > 0, "minimum support must be at least 1");

    let universe = transactions.len();
    let mut tidlists: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (tid, t) in transactions.iter().enumerate() {
        for &item in t {
            tidlists.entry(item).or_default().push(tid as u32);
        }
    }
    // Roots are children of the empty prefix (tid-set = the whole
    // universe, support = universe), so a near-universal item is cheapest
    // as its complement diffset.
    let roots: Vec<(u32, Node)> = tidlists
        .into_iter()
        .filter(|(_, tids)| tids.len() as u64 >= min_support_count)
        .map(|(item, tids)| {
            let support = tids.len() as u64;
            let diff_len = universe - tids.len();
            let rep = if diff_len < tid_cost(support, universe) {
                Rep::Diff(complement(&tids, universe))
            } else {
                tidset(tids, universe)
            };
            (item, Node { support, rep })
        })
        .collect();

    let (roots, reorder) = ItemReorder::relabel(roots, |node| node.support);
    let mut out = mine_classes(&roots, opts.threads, |i, class, out| {
        expand(&[], i, class, min_support_count, universe, out)
    });
    reorder.decode(&mut out);
    canonical_sort(&mut out);
    out
}

/// Emit the subtree rooted at class member `i`: the member itself plus
/// every extension by later members.
fn expand(
    prefix: &[u32],
    i: usize,
    class: &[(u32, Node)],
    min_support: u64,
    universe: usize,
    out: &mut Vec<FrequentItemset>,
) {
    let (item, node) = &class[i];
    // Classes stay in ascending rank order, so appending preserves
    // sortedness in rank space.
    debug_assert!(prefix.last().is_none_or(|&last| last < *item));
    let mut items: Itemset = prefix.to_vec();
    items.push(*item);
    out.push(FrequentItemset { items: items.clone(), support_count: node.support });

    let mut child: Vec<(u32, Node)> = Vec::new();
    for (other, other_node) in &class[i + 1..] {
        if let Some(combined) = combine(node, other_node, min_support, universe) {
            child.push((*other, combined));
        }
    }
    for j in 0..child.len() {
        expand(&items, j, &child, min_support, universe, out);
    }
}

/// Combine class members `X` (the new prefix generator) and `Y` into the
/// candidate `XY`, or `None` when it is infrequent. Implements the
/// four-case support algebra from the module docs; where the child's
/// representation is a choice, the smaller of tid-set and diffset wins.
fn combine(x: &Node, y: &Node, min_support: u64, universe: usize) -> Option<Node> {
    match (&x.rep, &y.rep) {
        (Rep::Diff(dx), Rep::Diff(dy)) => {
            // d(XY rel X) = dy \ dx; support = sup(X) − |dy \ dx|.
            let diff = diff_sorted(dy, dx);
            let support = x.support - diff.len() as u64;
            (support >= min_support).then_some(Node { support, rep: Rep::Diff(diff) })
        }
        (Rep::Diff(dx), ty) => {
            // t(XY) = ty \ dx. The diffset rel X would need t(X), which a
            // diffset node no longer carries — keep a tid-set.
            let tids = tid_sub_list(ty, dx, universe);
            let support = tids.len() as u64;
            (support >= min_support)
                .then(|| Node { support, rep: tidset(tids, universe) })
        }
        (tx, Rep::Diff(dy)) => {
            // support = sup(X) − |tx ∩ dy|; child is tx \ dy (tid-set) or
            // tx ∩ dy (diffset rel X), whichever is smaller.
            let cut = tid_and_list_count(tx, dy);
            let support = x.support - cut;
            if support < min_support {
                return None;
            }
            let rep = if (cut as usize) < tid_cost(support, universe) {
                Rep::Diff(tid_and_list(tx, dy))
            } else {
                tidset(tid_sub_list(tx, dy, universe), universe)
            };
            Some(Node { support, rep })
        }
        (tx, ty) => {
            // support = |tx ∩ ty|; child is tx ∩ ty (tid-set) or tx \ ty
            // (diffset rel X), whichever is smaller.
            let support = tid_and_count(tx, ty);
            if support < min_support {
                return None;
            }
            let diff_len = x.support - support;
            let rep = if (diff_len as usize) < tid_cost(support, universe) {
                Rep::Diff(tid_sub(tx, ty))
            } else {
                tid_and(tx, ty, universe)
            };
            Some(Node { support, rep })
        }
    }
}

/// `|a ∩ b|` for two tid-set reps (never `Diff`), without materializing
/// the bitmap × bitmap case.
fn tid_and_count(a: &Rep, b: &Rep) -> u64 {
    match (a, b) {
        (Rep::Bitmap(x), Rep::Bitmap(y)) => x.and_count(y),
        (Rep::Bitmap(x), Rep::Tids(y)) | (Rep::Tids(y), Rep::Bitmap(x)) => {
            y.iter().filter(|&&tid| x.contains(tid)).count() as u64
        }
        (Rep::Tids(x), Rep::Tids(y)) => intersect_count(x, y),
        _ => unreachable!("tid_and_count is only called on tid-set reps"),
    }
}

/// `a ∩ b` materialized as the cheaper tid-set rep (never called on
/// `Diff`).
fn tid_and(a: &Rep, b: &Rep, universe: usize) -> Rep {
    match (a, b) {
        (Rep::Bitmap(x), Rep::Bitmap(y)) => {
            let inter = x.and(y);
            if (inter.count() as usize) < inter.word_len() {
                Rep::Tids(inter.to_sorted_tids())
            } else {
                Rep::Bitmap(inter)
            }
        }
        (Rep::Bitmap(x), Rep::Tids(y)) | (Rep::Tids(y), Rep::Bitmap(x)) => {
            Rep::Tids(y.iter().copied().filter(|&tid| x.contains(tid)).collect())
        }
        (Rep::Tids(x), Rep::Tids(y)) => tidset(intersect_sorted(x, y), universe),
        _ => unreachable!("tid_and is only called on tid-set reps"),
    }
}

/// `a \ b` for two tid-set reps, materialized as a sorted list (it
/// becomes a diffset, which is always a list).
fn tid_sub(a: &Rep, b: &Rep) -> Vec<u32> {
    match (a, b) {
        (Rep::Bitmap(x), Rep::Bitmap(y)) => x.and_not(y).to_sorted_tids(),
        (Rep::Bitmap(x), Rep::Tids(y)) => diff_sorted(&x.to_sorted_tids(), y),
        (Rep::Tids(x), Rep::Bitmap(y)) => {
            x.iter().copied().filter(|&tid| !y.contains(tid)).collect()
        }
        (Rep::Tids(x), Rep::Tids(y)) => diff_sorted(x, y),
        _ => unreachable!("tid_sub is only called on tid-set reps"),
    }
}

/// `|t ∩ d|` where `t` is a tid-set rep and `d` a sorted diffset list.
fn tid_and_list_count(t: &Rep, d: &[u32]) -> u64 {
    match t {
        Rep::Bitmap(x) => d.iter().filter(|&&tid| x.contains(tid)).count() as u64,
        Rep::Tids(x) => intersect_count(x, d),
        Rep::Diff(_) => unreachable!("tid_and_list_count is only called on tid-set reps"),
    }
}

/// `t ∩ d` as a sorted list (`t` a tid-set rep, `d` a sorted list).
fn tid_and_list(t: &Rep, d: &[u32]) -> Vec<u32> {
    match t {
        Rep::Bitmap(x) => d.iter().copied().filter(|&tid| x.contains(tid)).collect(),
        Rep::Tids(x) => intersect_sorted(x, d),
        Rep::Diff(_) => unreachable!("tid_and_list is only called on tid-set reps"),
    }
}

/// `t \ d` as a sorted list (`t` a tid-set rep, `d` a sorted list).
fn tid_sub_list(t: &Rep, d: &[u32], universe: usize) -> Vec<u32> {
    match t {
        Rep::Bitmap(x) => x.and_not(&TidBitmap::from_sorted_tids(d, universe)).to_sorted_tids(),
        Rep::Tids(x) => diff_sorted(x, d),
        Rep::Diff(_) => unreachable!("tid_sub_list is only called on tid-set reps"),
    }
}

/// `|a ∩ b|` of two sorted lists by merge, no allocation.
fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// `a ∩ b` of two sorted lists by merge.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// `a \ b` of two sorted lists by merge.
fn diff_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] > b[j] {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    out
}

/// The complement of a sorted tid list within `0..universe`.
fn complement(tids: &[u32], universe: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(universe - tids.len());
    let mut next = 0usize;
    for &tid in tids {
        out.extend((next as u32)..tid);
        next = tid as usize + 1;
    }
    out.extend((next as u32)..(universe as u32));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::mine_apriori;
    use crate::transaction::ItemMode;

    fn ts(raw: Vec<Vec<u32>>) -> TransactionSet {
        TransactionSet::from_raw(raw, ItemMode::Ingredients)
    }

    fn agrees_with_apriori(t: &TransactionSet, min_support: u64) -> Vec<FrequentItemset> {
        let declat = mine_declat(t, min_support);
        assert_eq!(declat, mine_apriori(t, min_support));
        for opts in [MineOpts { threads: Some(4) }, MineOpts { threads: None }] {
            assert_eq!(declat, mine_declat_with(t, min_support, opts), "{opts:?}");
        }
        declat
    }

    #[test]
    fn set_helpers_agree_with_naive() {
        let a = vec![1u32, 3, 5, 8, 13];
        let b = vec![2u32, 3, 8, 9];
        assert_eq!(intersect_sorted(&a, &b), vec![3, 8]);
        assert_eq!(intersect_count(&a, &b), 2);
        assert_eq!(diff_sorted(&a, &b), vec![1, 5, 13]);
        assert_eq!(diff_sorted(&b, &a), vec![2, 9]);
        assert_eq!(complement(&[1, 3, 4], 6), vec![0, 2, 5]);
        assert_eq!(complement(&[], 3), vec![0, 1, 2]);
        assert_eq!(complement(&[0, 1, 2], 3), Vec::<u32>::new());
    }

    #[test]
    fn dense_roots_start_as_complement_diffsets() {
        // 130 transactions, item in all but one → diffset of size 1 beats
        // a 3-word bitmap.
        let mut raw = vec![vec![1u32]; 130];
        raw[64].clear();
        let t = ts(raw);
        let got = mine_declat(&t, 1);
        assert_eq!(got, vec![FrequentItemset { items: vec![1], support_count: 129 }]);
    }

    #[test]
    fn textbook_example_matches_apriori() {
        let t = ts(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ]);
        assert_eq!(agrees_with_apriori(&t, 2).len(), 9);
    }

    #[test]
    fn empty_class_support_equals_parent() {
        // Two items in exactly the same transactions: the child diffset is
        // empty and support equals the parent's.
        let t = ts(vec![vec![1, 2], vec![1, 2], vec![1, 2], vec![3]]);
        let got = agrees_with_apriori(&t, 2);
        let pair = got.iter().find(|f| f.items == vec![1, 2]).expect("pair mined");
        let single = got.iter().find(|f| f.items == vec![1]).expect("single mined");
        assert_eq!(pair.support_count, single.support_count, "empty diffset");
    }

    #[test]
    fn single_tid_nodes_survive_at_support_one() {
        // Item 3 lives in one transaction; every combination with it has
        // support 1 and a diffset of size sup(parent) − 1.
        let mut raw = vec![vec![1u32, 2]; 130];
        raw[64].push(3);
        let t = ts(raw);
        let got = agrees_with_apriori(&t, 1);
        assert!(got.iter().any(|f| f.items == vec![1, 2, 3] && f.support_count == 1));
    }

    #[test]
    fn sparse_corpus_round_trips() {
        let mut raw = vec![Vec::new(); 200];
        for item in 0u32..40 {
            raw[(item as usize * 5) % 200].push(item);
            raw[(item as usize * 5 + 7) % 200].push(item);
        }
        let t = ts(raw);
        assert!(!agrees_with_apriori(&t, 2).is_empty());
    }

    #[test]
    fn dense_corpus_round_trips() {
        let t = ts(vec![vec![7, 8, 9]; 130]);
        let got = agrees_with_apriori(&t, 65);
        assert_eq!(got.len(), 7);
        assert!(got.iter().all(|f| f.support_count == 130));
    }

    #[test]
    fn empty_and_threshold_edge() {
        assert!(mine_declat(&ts(vec![]), 1).is_empty());
        assert!(mine_declat(&ts(vec![vec![1], vec![2]]), 2).is_empty());
        assert_eq!(mine_declat(&ts(vec![vec![1], vec![1]]), 2).len(), 1);
    }

    #[test]
    fn single_transaction_powerset() {
        let t = ts(vec![vec![1, 2, 3, 4]]);
        assert_eq!(mine_declat(&t, 1).len(), 15, "2^4 - 1");
    }

    #[test]
    #[should_panic(expected = "minimum support")]
    fn rejects_zero_support() {
        let _ = mine_declat(&ts(vec![vec![1]]), 0);
    }
}
