//! Property-based tests for the mining substrate. The headline property:
//! the dEclat kernel produces exactly the reference Apriori output on
//! arbitrary inputs, for sequential and parallel DFS alike.

use cuisine_mining::apriori::mine_apriori;
use cuisine_mining::diffset::{mine_declat, mine_declat_with};
use cuisine_mining::{
    CombinationAnalysis, FrequentItemset, ItemMode, MineOpts, Miner, TransactionSet,
};
use proptest::prelude::*;

/// The DFS thread counts the oracle properties sweep.
const OPTS_GRID: [MineOpts; 2] = [MineOpts { threads: Some(1) }, MineOpts { threads: Some(4) }];

/// dEclat at every [`OPTS_GRID`] entry at relative support `rel`, each
/// paired with its options for failure messages.
fn declat_runs(ts: &TransactionSet, rel: f64) -> Vec<(MineOpts, Vec<FrequentItemset>)> {
    OPTS_GRID
        .iter()
        .map(|&opts| (opts, CombinationAnalysis::mine_opts(ts, rel, Miner::DEclat, opts).itemsets))
        .collect()
}

fn arb_transactions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..12, 0..8), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn declat_matches_apriori(raw in arb_transactions(), min_sup in 1u64..6) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let a = mine_apriori(&ts, min_sup);
        for opts in OPTS_GRID {
            prop_assert_eq!(&a, &mine_declat_with(&ts, min_sup, opts), "{:?}", opts);
        }
    }

    #[test]
    fn supports_are_antimonotone(raw in arb_transactions()) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let result = mine_declat(&ts, 1);
        // Build a lookup and check every (subset, superset) pair.
        for f in &result {
            for g in &result {
                if f.items.len() < g.items.len()
                    && f.items.iter().all(|x| g.items.contains(x))
                {
                    prop_assert!(
                        f.support_count >= g.support_count,
                        "{:?} ({}) vs {:?} ({})",
                        f.items, f.support_count, g.items, g.support_count
                    );
                }
            }
        }
    }

    #[test]
    fn mined_supports_match_direct_counting(raw in arb_transactions(), min_sup in 1u64..4) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let result = mine_declat(&ts, min_sup);
        for f in &result {
            let direct = ts
                .iter()
                .filter(|t| f.items.iter().all(|x| t.contains(x)))
                .count() as u64;
            prop_assert_eq!(f.support_count, direct, "itemset {:?}", f.items);
        }
    }

    #[test]
    fn every_frequent_itemset_is_found(raw in arb_transactions()) {
        // Exhaustively verify 1- and 2-itemsets against the miner at
        // min support 2.
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let mined = mine_declat(&ts, 2);
        let contains = |items: &[u32]| mined.iter().any(|f| f.items == items);
        for a in 0u32..12 {
            let support_a = ts.iter().filter(|t| t.contains(&a)).count();
            prop_assert_eq!(support_a >= 2, contains(&[a]), "singleton {}", a);
            for b in (a + 1)..12 {
                let support = ts
                    .iter()
                    .filter(|t| t.contains(&a) && t.contains(&b))
                    .count();
                prop_assert_eq!(support >= 2, contains(&[a, b]), "pair {} {}", a, b);
            }
        }
    }

    #[test]
    fn rank_frequency_bounded_by_one(raw in arb_transactions()) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let analysis = CombinationAnalysis::mine(&ts, 0.05);
        for (_, f) in analysis.rank_frequency().points() {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
    }

    // --- the Apriori oracle over the full support range ----------------

    #[test]
    fn miners_agree_at_relative_support(
        raw in arb_wide_transactions(),
        // The paper mines at 0.05; sweep well past it on both sides.
        rel in 0.01f64..0.5,
    ) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let reference = mine_apriori(&ts, ts.absolute_support(rel).max(1));
        for (opts, itemsets) in declat_runs(&ts, rel) {
            prop_assert_eq!(&reference, &itemsets, "{:?}", opts);
        }
        prop_assert_eq!(CombinationAnalysis::mine(&ts, rel).transaction_count, ts.len());
    }

    #[test]
    fn full_support_keeps_only_universal_itemsets(raw in arb_wide_transactions()) {
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let n = ts.len() as u64;
        let reference = mine_apriori(&ts, n.max(1));
        for (opts, itemsets) in declat_runs(&ts, 1.0) {
            for f in &itemsets {
                prop_assert_eq!(
                    f.support_count, n,
                    "itemset {:?} not universal under {:?}", f.items, opts
                );
            }
            prop_assert_eq!(&reference, &itemsets, "{:?}", opts);
        }
    }

    // --- density-heuristic crossover -----------------------------------

    #[test]
    fn declat_agrees_on_sparse_corpora(raw in arb_sparse_transactions(), min_sup in 1u64..4) {
        // > 64 transactions with rare items: roots start below the 1/64
        // density threshold, so dEclat runs in its tid-list regime.
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        prop_assert!(ts.len() > 64, "strategy must span > one bitmap word");
        let reference = mine_apriori(&ts, min_sup);
        for opts in OPTS_GRID {
            prop_assert_eq!(&reference, &mine_declat_with(&ts, min_sup, opts), "{:?}", opts);
        }
    }

    #[test]
    fn declat_agrees_across_the_density_crossover(
        sparse in arb_sparse_transactions(),
        dense_item_count in 1usize..4,
    ) {
        // Mix dense universal items (bitmap path) into a sparse corpus
        // (list path): intersections then cross the heuristic both ways.
        let mut raw = sparse;
        for t in raw.iter_mut() {
            for item in 0..dense_item_count as u32 {
                t.push(100 + item);
            }
        }
        let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
        let reference = mine_apriori(&ts, 2);
        // Dense universal items push dEclat roots into complement
        // diffsets; the sparse remainder stays in tid-lists — the mixed
        // combine cases all fire here.
        for opts in OPTS_GRID {
            prop_assert_eq!(&reference, &mine_declat_with(&ts, 2, opts), "{:?}", opts);
        }
    }
}

/// Transactions with raw sizes spanning 0–60 (recipes top out at 38 in the
/// paper; mining must stay correct well past that). The item universe is
/// kept at 10 symbols so exhaustive itemset counts stay bounded even at
/// absolute support 1.
fn arb_wide_transactions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..61), 0..32)
}

/// Sparse corpora: 65–120 transactions (more than one 64-bit bitmap word)
/// over a wide item universe with at most two items per transaction, so
/// per-item tid density sits below dEclat's 1/64 bitmap threshold.
fn arb_sparse_transactions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..40, 0..3), 65..120)
}

#[test]
fn empty_corpus_agrees_and_is_empty() {
    let ts = TransactionSet::from_raw(Vec::new(), ItemMode::Ingredients);
    for opts in OPTS_GRID {
        let analysis = CombinationAnalysis::mine_opts(&ts, 0.05, Miner::DEclat, opts);
        assert!(analysis.itemsets.is_empty());
        assert_eq!(analysis.transaction_count, 0);
    }
    // All-empty transactions are not the same as no transactions: the
    // count must survive even though nothing is frequent.
    let blank = TransactionSet::from_raw(vec![Vec::new(); 7], ItemMode::Ingredients);
    assert!(mine_apriori(&blank, 1).is_empty());
    for opts in OPTS_GRID {
        let analysis = CombinationAnalysis::mine_opts(&blank, 0.05, Miner::DEclat, opts);
        assert!(analysis.itemsets.is_empty());
        assert_eq!(analysis.transaction_count, 7);
    }
}

#[test]
fn shared_core_survives_full_support() {
    // Every transaction contains {1, 2}; extras differ. At support 1.0
    // exactly the subsets of the shared core are frequent.
    let raw = vec![vec![1, 2, 3], vec![2, 1, 4], vec![5, 1, 2, 6], vec![1, 2]];
    let ts = TransactionSet::from_raw(raw, ItemMode::Ingredients);
    let reference = mine_apriori(&ts, 4);
    for (opts, itemsets) in declat_runs(&ts, 1.0) {
        assert_eq!(itemsets, reference, "{opts:?}");
        let mut found: Vec<Vec<u32>> = itemsets.into_iter().map(|f| f.items).collect();
        found.sort();
        assert_eq!(found, vec![vec![1], vec![1, 2], vec![2]], "{opts:?}");
    }
}
