//! One-call pipelines reproducing each experiment of the paper.
//!
//! [`Experiment`] bundles a lexicon and a corpus; its methods map one-to-one
//! onto the paper's artifacts (see DESIGN.md §5 for the experiment index):
//!
//! | method | artifact |
//! |---|---|
//! | [`Experiment::table1`] | Table I |
//! | [`Experiment::fig1`] | Fig. 1 |
//! | [`Experiment::fig2`] | Fig. 2 |
//! | [`Experiment::fig3`] | Fig. 3 (+ the Eq. 2 similarity matrix) |
//! | [`Experiment::fig4`] | Fig. 4 / Section VI |

use cuisine_analytics::category_profile::CategoryProfile;
use cuisine_analytics::overrepresentation::{table1_with, Table1Row};
use cuisine_analytics::rank_freq::RankFrequencyAnalysis;
use cuisine_analytics::similarity::SimilarityMatrix;
use cuisine_analytics::size_dist::{fig1_with, Fig1};
use cuisine_data::Corpus;
use cuisine_evolution::{evaluate_with, Evaluation, EvaluationConfig, ModelKind};
use cuisine_lexicon::Lexicon;
use cuisine_mining::{ItemMode, MineOpts, Miner, TransactionCache, PAPER_MIN_SUPPORT};
use cuisine_stats::ErrorMetric;
use cuisine_synth::{generate_corpus, SynthConfig};

/// Execution knobs shared by every [`Experiment`] method.
///
/// `threads` follows the `EnsembleConfig` convention: `None` = available
/// parallelism, `Some(0)`/`Some(1)` = sequential, larger values are
/// clamped to the number of jobs. `cache` toggles the per-cuisine
/// encoded-transaction cache. **Neither knob changes any result**: fan-out
/// order is stable, all randomness is seeded from logical indices, and the
/// cache memoizes deterministic encodings — so `threads: Some(1)` vs
/// `Some(32)` and cache on vs off produce byte-identical artifacts (this
/// is enforced by `tests/determinism.rs`). The kernel-internal `mining`
/// options (DFS-level parallelism) are purely a performance choice too,
/// and follow the nested-parallelism convention: the kernel fan-out is
/// forced sequential whenever the per-cuisine fan-out above it is already
/// parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Worker threads for per-cuisine/per-model fan-out.
    pub threads: Option<usize>,
    /// Memoize `(cuisine, mode)` transaction encodings across stages.
    pub cache: bool,
    /// The mining kernel; always [`Miner::DEclat`]. Kept only because the
    /// repository benchmark reads it.
    pub miner: Miner,
    /// Kernel-internal execution options (DFS threads).
    pub mining: MineOpts,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: None,
            cache: true,
            miner: Miner::default(),
            mining: MineOpts::default(),
        }
    }
}

/// An experiment context: a lexicon plus the corpus under analysis.
pub struct Experiment {
    lexicon: &'static Lexicon,
    corpus: Corpus,
    config: PipelineConfig,
    cache: TransactionCache,
}

impl Experiment {
    /// Build from an existing corpus (e.g. read from JSONL/TSV), with the
    /// default [`PipelineConfig`] (all cores, cache on).
    pub fn new(corpus: Corpus) -> Self {
        Self::with_config(corpus, PipelineConfig::default())
    }

    /// Build from an existing corpus with explicit execution knobs.
    pub fn with_config(corpus: Corpus, config: PipelineConfig) -> Self {
        Experiment {
            lexicon: Lexicon::standard(),
            corpus,
            config,
            cache: TransactionCache::new(),
        }
    }

    /// Generate the calibrated synthetic corpus and wrap it.
    pub fn synthetic(config: &SynthConfig) -> Self {
        Self::synthetic_with(config, PipelineConfig::default())
    }

    /// [`Experiment::synthetic`] with explicit execution knobs.
    pub fn synthetic_with(config: &SynthConfig, pipeline: PipelineConfig) -> Self {
        let lexicon = Lexicon::standard();
        Self::with_config(generate_corpus(config, lexicon), pipeline)
    }

    /// The lexicon in use.
    pub fn lexicon(&self) -> &'static Lexicon {
        self.lexicon
    }

    /// The corpus under analysis.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The execution configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The transaction cache when enabled (`None` with `cache: false`).
    ///
    /// Exposed so layered subsystems (e.g. `cuisine-serve`'s snapshot
    /// builder and on-demand `/evolve` handler) can share one set of
    /// encoded transactions with the pipeline methods instead of
    /// re-encoding the corpus per request.
    pub fn transaction_cache(&self) -> Option<&TransactionCache> {
        self.config.cache.then_some(&self.cache)
    }

    /// Internal alias kept for the pipeline methods.
    fn cache(&self) -> Option<&TransactionCache> {
        self.transaction_cache()
    }

    /// Experiment E1 — Table I: per-cuisine recipe/ingredient counts and
    /// top overrepresented ingredients (Eq. 1).
    pub fn table1(&self) -> Vec<Table1Row> {
        table1_with(&self.corpus, self.lexicon, self.config.threads)
    }

    /// Experiment E2 — Fig. 1: recipe-size distributions with Gaussian
    /// fits, per cuisine and aggregated.
    pub fn fig1(&self) -> Fig1 {
        fig1_with(&self.corpus, self.config.threads)
    }

    /// Experiment E3 — Fig. 2: category composition profile (25 × 21
    /// means and their per-category boxplots).
    pub fn fig2(&self) -> CategoryProfile {
        CategoryProfile::measure_with(&self.corpus, self.lexicon, self.config.threads)
    }

    /// Experiment E4 — Fig. 3: rank-frequency curves of frequent
    /// combinations at the given granularity, plus the pairwise Eq. 2
    /// similarity matrix (paper averages: 0.035 ingredient / 0.052
    /// category).
    pub fn fig3(&self, mode: ItemMode) -> (RankFrequencyAnalysis, SimilarityMatrix) {
        let analysis = RankFrequencyAnalysis::measure_with(
            &self.corpus,
            self.lexicon,
            mode,
            PAPER_MIN_SUPPORT,
            self.config.mining,
            self.config.threads,
            self.cache(),
        );
        let matrix =
            SimilarityMatrix::measure_with(&analysis, ErrorMetric::PaperMae, self.config.threads);
        (analysis, matrix)
    }

    /// Experiments E5/E6 — Fig. 4 / Section VI: evaluate the evolution
    /// models against the corpus at the configured granularity.
    pub fn fig4(&self, config: &EvaluationConfig) -> Evaluation {
        self.fig4_models(&ModelKind::ALL, config)
    }

    /// Like [`Experiment::fig4`] but for a model subset.
    ///
    /// The pipeline-level [`PipelineConfig::mining`] options override the
    /// per-call [`EvaluationConfig::mining`]; callers driving
    /// `evaluate_with` directly keep full control.
    pub fn fig4_models(&self, models: &[ModelKind], config: &EvaluationConfig) -> Evaluation {
        let config = EvaluationConfig {
            mining: self.config.mining,
            ..config.clone()
        };
        evaluate_with(
            &self.corpus,
            self.lexicon,
            models,
            &config,
            self.config.threads,
            self.cache(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuisine_evolution::EnsembleConfig;

    fn experiment() -> Experiment {
        Experiment::synthetic(&SynthConfig { seed: 9, scale: 0.01, ..Default::default() })
    }

    #[test]
    fn table1_covers_all_cuisines() {
        let rows = experiment().table1();
        assert_eq!(rows.len(), 25);
    }

    #[test]
    fn fig1_has_aggregate() {
        let f = experiment().fig1();
        assert_eq!(f.per_cuisine.len(), 25);
        assert!(f.aggregate.histogram.total() > 0);
    }

    #[test]
    fn fig2_and_fig3_run() {
        let e = experiment();
        let p = e.fig2();
        assert_eq!(p.codes.len(), 25);
        let (analysis, matrix) = e.fig3(ItemMode::Ingredients);
        assert_eq!(analysis.len(), 25);
        assert!(matrix.average().is_some());
    }

    #[test]
    fn fig4_runs_at_tiny_scale() {
        let e = experiment();
        let config = EvaluationConfig {
            ensemble: EnsembleConfig { replicates: 2, seed: 3, threads: None },
            ..Default::default()
        };
        let eval = e.fig4_models(&[ModelKind::CmR, ModelKind::Null], &config);
        assert_eq!(eval.cuisines.len(), 25);
        assert_eq!(eval.cuisines[0].models.len(), 2);
    }
}
