//! Combination rank-frequency analysis — Section IV of the paper.
//!
//! "we considered only those combinations (of size 1 and greater) which
//! appeared in at least 5% of all recipes in a cuisine" — i.e. frequent
//! itemsets at relative minimum support 0.05, ranked by support and
//! normalized by the number of recipes (Fig. 3).

use cuisine_stats::RankFrequency;
use serde::{Deserialize, Serialize};

use crate::diffset::mine_declat_with;
use crate::itemset::FrequentItemset;
use crate::transaction::TransactionSet;
use crate::MineOpts;

/// The paper's support threshold: 5% of all recipes in a cuisine.
pub const PAPER_MIN_SUPPORT: f64 = 0.05;

/// The mining kernel. dEclat is the only one; this type stays only
/// because the repository benchmark (`benchmark/src/trace.rs`) passes
/// `PipelineConfig::miner` / `EvaluationConfig::miner` into
/// [`CombinationAnalysis::mine_opts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Miner {
    /// dEclat ([`crate::diffset`]).
    #[default]
    DEclat,
}

/// Frequent combinations of a transaction set, with their rank-frequency
/// curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CombinationAnalysis {
    /// The frequent itemsets, canonically ordered (rank order).
    pub itemsets: Vec<FrequentItemset>,
    /// Number of transactions mined over.
    pub transaction_count: usize,
    /// Relative minimum support used.
    pub min_support: f64,
}

impl CombinationAnalysis {
    /// Mine a transaction set at the given relative support with default
    /// [`MineOpts`] (sequential DFS).
    ///
    /// Returns an analysis with an empty itemset list for an empty
    /// transaction set.
    pub fn mine(transactions: &TransactionSet, min_support: f64) -> Self {
        Self::mine_opts(transactions, min_support, Miner::DEclat, MineOpts::default())
    }

    /// [`CombinationAnalysis::mine`] with explicit kernel execution
    /// options; no option changes any output byte.
    pub fn mine_opts(
        transactions: &TransactionSet,
        min_support: f64,
        Miner::DEclat: Miner,
        opts: MineOpts,
    ) -> Self {
        if transactions.is_empty() {
            return CombinationAnalysis {
                itemsets: Vec::new(),
                transaction_count: 0,
                min_support,
            };
        }
        let abs = transactions.absolute_support(min_support).max(1);
        CombinationAnalysis {
            itemsets: mine_declat_with(transactions, abs, opts),
            transaction_count: transactions.len(),
            min_support,
        }
    }

    /// Mine with the paper's 5% threshold.
    pub fn paper(transactions: &TransactionSet) -> Self {
        Self::mine(transactions, PAPER_MIN_SUPPORT)
    }

    /// The rank-frequency curve: combination supports normalized by the
    /// total number of recipes, in rank order (Fig. 3 / Fig. 4 y-axis).
    pub fn rank_frequency(&self) -> RankFrequency {
        if self.transaction_count == 0 {
            return RankFrequency::default();
        }
        RankFrequency::from_counts(
            self.itemsets.iter().map(|f| f.support_count),
            self.transaction_count as f64,
        )
    }

    /// Number of frequent combinations found.
    pub fn len(&self) -> usize {
        self.itemsets.len()
    }

    /// True when no combination cleared the threshold.
    pub fn is_empty(&self) -> bool {
        self.itemsets.is_empty()
    }

    /// Largest combination size observed.
    pub fn max_size(&self) -> usize {
        self.itemsets.iter().map(|f| f.items.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::mine_apriori;
    use crate::transaction::ItemMode;

    fn ts(raw: Vec<Vec<u32>>) -> TransactionSet {
        TransactionSet::from_raw(raw, ItemMode::Ingredients)
    }

    #[test]
    fn mine_respects_relative_threshold() {
        // 20 transactions; item 1 in all, item 2 in exactly one (5%),
        // item 3 in none of the required count.
        let mut raw = vec![vec![1u32]; 19];
        raw.push(vec![1, 2]);
        let analysis = CombinationAnalysis::mine(&ts(raw), 0.05);
        let names: Vec<&[u32]> =
            analysis.itemsets.iter().map(|f| f.items.as_slice()).collect();
        assert!(names.contains(&&[1u32][..]));
        assert!(names.contains(&&[2u32][..]), "exactly 5% must be included");
        assert!(names.contains(&&[1u32, 2][..]));
    }

    #[test]
    fn rank_frequency_is_normalized_and_sorted() {
        let raw = vec![vec![1, 2], vec![1], vec![1, 2], vec![3]];
        let analysis = CombinationAnalysis::mine(&ts(raw), 0.25);
        let rf = analysis.rank_frequency();
        assert!(rf.at_rank(1).unwrap() <= 1.0);
        assert_eq!(rf.at_rank(1).unwrap(), 0.75, "item 1 in 3 of 4");
        for w in rf.frequencies().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn miners_agree() {
        let raw = vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 4],
        ];
        let t = ts(raw);
        let reference = mine_apriori(&t, t.absolute_support(0.3));
        assert_eq!(reference, CombinationAnalysis::mine(&t, 0.3).itemsets);
        let opts = MineOpts { threads: Some(2) };
        let with = CombinationAnalysis::mine_opts(&t, 0.3, Miner::DEclat, opts);
        assert_eq!(reference, with.itemsets, "{opts:?}");
    }

    #[test]
    fn empty_input_is_empty_analysis() {
        let analysis = CombinationAnalysis::paper(&ts(vec![]));
        assert!(analysis.is_empty());
        assert!(analysis.rank_frequency().is_empty());
        assert_eq!(analysis.max_size(), 0);
    }

    #[test]
    fn max_size_reports_largest_combo() {
        let raw = vec![vec![1, 2, 3]; 10];
        let analysis = CombinationAnalysis::mine(&ts(raw), 0.5);
        assert_eq!(analysis.max_size(), 3);
    }
}
