//! # cuisine-mining
//!
//! Frequent-itemset mining substrate for the cuisine-evolution workspace.
//!
//! Section IV of the paper ranks *combinations* of ingredients (and of
//! ingredient categories) that appear in at least 5% of a cuisine's
//! recipes — classical frequent itemset mining. This crate provides:
//!
//! - [`transaction`] — recipe → transaction encoding at ingredient or
//!   category granularity.
//! - [`diffset`] — dEclat (Zaki & Gouda, 2003), the one production
//!   kernel: vertical DFS whose nodes store *diffsets* against their
//!   parent (support = parent support − |diffset|), with a per-node
//!   tid-list / [`bitmap`] / diffset switch.
//! - [`reorder`] — support-ascending item reordering plus the parallel
//!   DFS over first-level equivalence classes; [`MineOpts`] holds the
//!   DFS thread count.
//! - [`apriori`] — the reference Apriori miner. Tests compare dEclat
//!   against it; no production path calls it.
//! - [`combination`] — the paper's 5%-support combination analysis and its
//!   rank-frequency curve.
//! - [`cache`] — per-`(cuisine, mode)` transaction memoization shared by
//!   the parallel analysis fan-out (encode once, mine many times).
//!
//! ```
//! use cuisine_mining::{CombinationAnalysis, ItemMode, TransactionSet};
//!
//! let ts = TransactionSet::from_raw(
//!     vec![vec![1, 2], vec![1, 2], vec![1, 3], vec![2]],
//!     ItemMode::Ingredients,
//! );
//! let analysis = CombinationAnalysis::mine(&ts, 0.5);
//! let rf = analysis.rank_frequency();
//! assert_eq!(rf.at_rank(1), Some(0.75)); // items 1 and 2 each in 3/4
//! ```

#![warn(missing_docs)]

pub mod apriori;
pub mod bitmap;
pub mod cache;
pub mod combination;
pub mod diffset;
pub mod itemset;
pub mod reorder;
pub mod transaction;

pub use apriori::mine_apriori;
pub use bitmap::TidBitmap;
pub use cache::{TransactionCache, TransactionSource};
pub use diffset::{mine_declat, mine_declat_with};
pub use combination::{CombinationAnalysis, Miner, PAPER_MIN_SUPPORT};
pub use itemset::{FrequentItemset, Itemset};
pub use transaction::{ItemMode, TransactionSet};

/// Execution options for the dEclat kernel. **No option changes a single
/// output byte**: the parallel DFS merges per-class results in stable
/// class order (pinned by the property tests and `tests/determinism.rs`),
/// so the thread count is purely a performance choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MineOpts {
    /// Worker threads for the first-level equivalence-class fan-out,
    /// following the workspace convention: `None` = available
    /// parallelism, `Some(0)`/`Some(1)` = sequential. Defaults to
    /// sequential so the kernel stays well-behaved under the per-cuisine
    /// fan-out above it.
    pub threads: Option<usize>,
}

impl Default for MineOpts {
    fn default() -> Self {
        MineOpts { threads: Some(1) }
    }
}
