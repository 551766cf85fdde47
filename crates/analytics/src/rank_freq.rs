//! Combination rank-frequency analysis across cuisines — Fig. 3.
//!
//! Per cuisine, the rank-frequency curve of ingredient (or category)
//! combinations with support ≥ 5%, normalized by the cuisine's recipe
//! count; plus the aggregate curve over all recipes (the Fig. 3 insets).

use cuisine_data::{Corpus, CuisineId};
use cuisine_lexicon::Lexicon;
use cuisine_mining::{
    CombinationAnalysis, ItemMode, MineOpts, Miner, TransactionCache, TransactionSource,
};
use cuisine_stats::RankFrequency;
use serde::{Deserialize, Serialize};

/// The rank-frequency curves of all cuisines at one granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankFrequencyAnalysis {
    /// Granularity mined at.
    pub mode: ItemMode,
    /// Relative support threshold used.
    pub min_support: f64,
    /// Region codes, parallel to `curves`.
    pub codes: Vec<String>,
    /// One curve per populated cuisine.
    pub curves: Vec<RankFrequency>,
    /// Curve over the pooled corpus (the inset).
    pub aggregate: RankFrequency,
}

impl RankFrequencyAnalysis {
    /// Mine every populated cuisine of a corpus (sequential, uncached).
    pub fn measure(
        corpus: &Corpus,
        lexicon: &Lexicon,
        mode: ItemMode,
        min_support: f64,
    ) -> Self {
        Self::measure_with(corpus, lexicon, mode, min_support, MineOpts::default(), Some(1), None)
    }

    /// [`RankFrequencyAnalysis::measure`] with explicit parallelism, kernel
    /// execution options, and an optional transaction cache.
    ///
    /// Per-cuisine mining jobs (plus the pooled aggregate, which is the
    /// single largest job and is overlapped with the rest) fan out via
    /// [`cuisine_exec::par_map_range`]. When that outer fan-out resolves to
    /// more than one thread, the kernel-level DFS fan-out in `mining` is
    /// forced sequential (the nested-parallelism convention: the cores are
    /// already saturated). Output is identical for every `threads`/`mining`
    /// value and for cache on vs off.
    pub fn measure_with(
        corpus: &Corpus,
        lexicon: &Lexicon,
        mode: ItemMode,
        min_support: f64,
        mining: MineOpts,
        threads: Option<usize>,
        cache: Option<&TransactionCache>,
    ) -> Self {
        enum Job {
            Cuisine(String, RankFrequency),
            Aggregate(RankFrequency),
        }

        let source = TransactionSource::from(cache);
        let populated: Vec<CuisineId> = CuisineId::all()
            .filter(|&c| corpus.recipe_count(c) > 0)
            .collect();

        // Job n is the pooled aggregate; jobs 0..n are the cuisines. The
        // aggregate is scheduled *first* within its chunk ordering only by
        // index; what matters is that it runs concurrently with the
        // per-cuisine jobs instead of serially after them.
        let n = populated.len();
        let outer = cuisine_exec::resolve_threads(threads, n + 1);
        let mining = if outer > 1 { MineOpts { threads: Some(1) } } else { mining };
        let mut slots = cuisine_exec::par_map_range(n + 1, threads, |i| {
            if i < n {
                let cuisine = populated[i];
                let ts = source.cuisine(corpus, cuisine, mode, lexicon);
                let analysis =
                    CombinationAnalysis::mine_opts(&ts, min_support, Miner::DEclat, mining);
                Job::Cuisine(cuisine.code().to_string(), analysis.rank_frequency())
            } else {
                let pooled = source.pooled(corpus, mode, lexicon);
                Job::Aggregate(
                    CombinationAnalysis::mine_opts(&pooled, min_support, Miner::DEclat, mining)
                        .rank_frequency(),
                )
            }
        });

        let aggregate = match slots.pop() {
            Some(Job::Aggregate(curve)) => curve,
            _ => unreachable!("last job is always the aggregate"),
        };
        let mut codes = Vec::with_capacity(n);
        let mut curves = Vec::with_capacity(n);
        for job in slots {
            match job {
                Job::Cuisine(code, curve) => {
                    codes.push(code);
                    curves.push(curve);
                }
                Job::Aggregate(_) => unreachable!("aggregate job is last"),
            }
        }
        RankFrequencyAnalysis { mode, min_support, codes, curves, aggregate }
    }

    /// Mine with the paper's 5% threshold.
    pub fn paper(corpus: &Corpus, lexicon: &Lexicon, mode: ItemMode) -> Self {
        Self::measure(corpus, lexicon, mode, cuisine_mining::PAPER_MIN_SUPPORT)
    }

    /// Curve of one cuisine by region code.
    pub fn curve_for(&self, code: &str) -> Option<&RankFrequency> {
        let i = self.codes.iter().position(|c| c == code)?;
        Some(&self.curves[i])
    }

    /// Number of cuisines covered.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// True when no cuisine was populated.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuisine_data::Recipe;
    use cuisine_lexicon::IngredientId;

    fn ids(lex: &Lexicon, names: &[&str]) -> Vec<IngredientId> {
        names.iter().map(|n| lex.resolve(n).unwrap()).collect()
    }

    fn corpus(lex: &Lexicon) -> Corpus {
        Corpus::new(vec![
            Recipe::new(CuisineId(0), ids(lex, &["Cumin", "Salt", "Onion"])),
            Recipe::new(CuisineId(0), ids(lex, &["Cumin", "Salt"])),
            Recipe::new(CuisineId(0), ids(lex, &["Salt", "Tomato"])),
            Recipe::new(CuisineId(1), ids(lex, &["Butter", "Flour"])),
        ])
    }

    #[test]
    fn per_cuisine_curves_are_normalized_by_cuisine_size() {
        let lex = Lexicon::standard();
        let analysis = RankFrequencyAnalysis::paper(&corpus(lex), lex, ItemMode::Ingredients);
        assert_eq!(analysis.len(), 2);
        let afr = analysis.curve_for("AFR").unwrap();
        // Salt in 3/3 recipes of cuisine 0.
        assert_eq!(afr.at_rank(1), Some(1.0));
    }

    #[test]
    fn aggregate_pools_all_recipes() {
        let lex = Lexicon::standard();
        let analysis = RankFrequencyAnalysis::paper(&corpus(lex), lex, ItemMode::Ingredients);
        // Salt in 3 of 4 pooled recipes.
        assert_eq!(analysis.aggregate.at_rank(1), Some(0.75));
    }

    #[test]
    fn category_mode_produces_smaller_item_space() {
        let lex = Lexicon::standard();
        let ing = RankFrequencyAnalysis::paper(&corpus(lex), lex, ItemMode::Ingredients);
        let cat = RankFrequencyAnalysis::paper(&corpus(lex), lex, ItemMode::Categories);
        assert_eq!(cat.mode, ItemMode::Categories);
        // Salt+Cumin+Onion+Tomato span 3 categories in cuisine 0, vs 4
        // ingredients; the category curve cannot be longer.
        let c0_ing = ing.curve_for("AFR").unwrap().len();
        let c0_cat = cat.curve_for("AFR").unwrap().len();
        assert!(c0_cat <= c0_ing);
    }

    #[test]
    fn unknown_code_is_none() {
        let lex = Lexicon::standard();
        let analysis = RankFrequencyAnalysis::paper(&corpus(lex), lex, ItemMode::Ingredients);
        assert!(analysis.curve_for("ITA").is_none());
    }

    #[test]
    fn empty_corpus_is_empty_analysis() {
        let lex = Lexicon::standard();
        let analysis =
            RankFrequencyAnalysis::paper(&Corpus::new(vec![]), lex, ItemMode::Ingredients);
        assert!(analysis.is_empty());
        assert!(analysis.aggregate.is_empty());
    }
}
