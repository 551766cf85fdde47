//! Model-vs-empirical evaluation — the machinery behind Fig. 4 and the
//! Section VI category-combination claim.
//!
//! For each cuisine: mine the empirical rank-frequency curve of frequent
//! combinations; run each model's replicate ensemble; mine every
//! replicate's pool the same way; aggregate the replicate curves; report
//! the Eq. 2 distance between the aggregated model curve and the empirical
//! one (the number printed in Fig. 4's legends).

use cuisine_data::{Corpus, CuisineId};
use cuisine_lexicon::Lexicon;
use cuisine_mining::{
    CombinationAnalysis, ItemMode, MineOpts, Miner, TransactionCache, TransactionSet,
    TransactionSource,
};
use cuisine_stats::error::{curve_distance, ErrorMetric};
use cuisine_stats::RankFrequency;
use serde::{Deserialize, Serialize};

use crate::ensemble::{run_ensemble_map, EnsembleConfig};
use crate::model::{CuisineSetup, ModelKind, ModelParams};

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Replicates per model per cuisine (paper: 100).
    pub ensemble: EnsembleConfig,
    /// Combination granularity (Fig. 4 uses ingredients; the Section VI
    /// exclusion claim uses categories).
    pub mode: ItemMode,
    /// Relative support threshold (paper: 0.05).
    pub min_support: f64,
    /// Distance metric (paper: Eq. 2, i.e. [`ErrorMetric::PaperMae`]).
    pub metric: ErrorMetric,
    /// The mining kernel; always [`Miner::DEclat`]. Kept only because the
    /// repository benchmark reads it.
    pub miner: Miner,
    /// Kernel-internal execution options (DFS threads). Value-neutral: no
    /// option changes any output byte.
    pub mining: MineOpts,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            ensemble: EnsembleConfig::default(),
            mode: ItemMode::Ingredients,
            min_support: cuisine_mining::PAPER_MIN_SUPPORT,
            metric: ErrorMetric::PaperMae,
            miner: Miner::default(),
            mining: MineOpts::default(),
        }
    }
}

/// One model's result on one cuisine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelResult {
    /// Model evaluated.
    pub model: ModelKind,
    /// Aggregated (replicate-mean) rank-frequency curve.
    pub curve: RankFrequency,
    /// Eq. 2 distance to the empirical curve (`None` when either curve is
    /// empty).
    pub distance: Option<f64>,
}

/// All models' results on one cuisine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuisineEvaluation {
    /// Region code.
    pub code: String,
    /// Empirical rank-frequency curve.
    pub empirical: RankFrequency,
    /// One result per evaluated model, in input order.
    pub models: Vec<ModelResult>,
}

impl CuisineEvaluation {
    /// The model with the smallest distance (ignoring models with no
    /// distance). `None` when no model produced a curve.
    pub fn best_model(&self) -> Option<ModelKind> {
        self.models
            .iter()
            .filter_map(|m| m.distance.map(|d| (m.model, d)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .map(|(k, _)| k)
    }

    /// Distance of one model.
    pub fn distance_of(&self, model: ModelKind) -> Option<f64> {
        self.models.iter().find(|m| m.model == model)?.distance
    }
}

/// The full Fig. 4 computation: every populated cuisine × every model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Granularity evaluated at.
    pub mode: ItemMode,
    /// Per-cuisine results.
    pub cuisines: Vec<CuisineEvaluation>,
}

impl Evaluation {
    /// Mean distance of a model across cuisines (skipping missing).
    pub fn mean_distance(&self, model: ModelKind) -> Option<f64> {
        let ds: Vec<f64> =
            self.cuisines.iter().filter_map(|c| c.distance_of(model)).collect();
        if ds.is_empty() {
            return None;
        }
        Some(ds.iter().sum::<f64>() / ds.len() as f64)
    }

    /// How many cuisines each model wins (smallest distance).
    pub fn win_counts(&self) -> Vec<(ModelKind, usize)> {
        ModelKind::ALL
            .iter()
            .map(|&k| {
                let wins = self
                    .cuisines
                    .iter()
                    .filter(|c| c.best_model() == Some(k))
                    .count();
                (k, wins)
            })
            .collect()
    }
}

/// Mine the rank-frequency curve of a recipe pool.
fn pool_curve(
    recipes: &[cuisine_data::Recipe],
    lexicon: &Lexicon,
    config: &EvaluationConfig,
    mining: MineOpts,
) -> RankFrequency {
    let ts = TransactionSet::from_recipes(recipes.iter(), config.mode, lexicon);
    CombinationAnalysis::mine_opts(&ts, config.min_support, config.miner, mining)
        .rank_frequency()
}

/// Evaluate one model on one cuisine.
pub fn evaluate_model_on_cuisine(
    model: ModelKind,
    params: &ModelParams,
    setup: &CuisineSetup,
    empirical: &RankFrequency,
    lexicon: &Lexicon,
    config: &EvaluationConfig,
) -> ModelResult {
    // Replicates fan out per `config.ensemble.threads`; when that is
    // actually parallel, the kernel DFS inside each replicate's mine is
    // forced sequential (nested-parallelism convention).
    let replicate_mining = if cuisine_exec::resolve_threads(
        config.ensemble.threads,
        config.ensemble.replicates,
    ) > 1
    {
        MineOpts { threads: Some(1) }
    } else {
        config.mining
    };
    let curves = run_ensemble_map(
        model,
        params,
        setup,
        lexicon,
        &config.ensemble,
        |recipes| pool_curve(&recipes, lexicon, config, replicate_mining),
    );
    let curve = RankFrequency::aggregate(&curves);
    let distance =
        curve_distance(empirical.frequencies(), curve.frequencies(), config.metric);
    ModelResult { model, curve, distance }
}

/// Evaluate a set of models on every populated cuisine of a corpus.
///
/// Sequential at the cuisine × model level; replicate ensembles still
/// parallelize per `config.ensemble.threads`. See [`evaluate_with`] for the
/// outer fan-out used by the pipeline.
pub fn evaluate(
    corpus: &Corpus,
    lexicon: &Lexicon,
    models: &[ModelKind],
    config: &EvaluationConfig,
) -> Evaluation {
    evaluate_with(corpus, lexicon, models, config, Some(1), None)
}

/// [`evaluate`] with explicit outer parallelism and an optional
/// transaction cache.
///
/// Work fans out across `(cuisine, model)` pairs via
/// [`cuisine_exec::par_map_indexed`]. When the resolved outer thread count
/// exceeds 1, each pair's replicate ensemble is forced to a single inner
/// thread — the outer fan-out already saturates the cores, and nesting
/// scoped pools would oversubscribe. Results are byte-identical for every
/// `threads` value and for cache on vs off: ensemble seeds depend only on
/// logical replicate indices, and cached encodings are the same values the
/// uncached path computes.
pub fn evaluate_with(
    corpus: &Corpus,
    lexicon: &Lexicon,
    models: &[ModelKind],
    config: &EvaluationConfig,
    threads: Option<usize>,
    cache: Option<&TransactionCache>,
) -> Evaluation {
    let source = TransactionSource::from(cache);
    let all: Vec<CuisineId> = CuisineId::all().collect();

    // Stage 1 — per-cuisine prep (setup + empirical curve), in parallel.
    // Kernel-level DFS fan-out is forced sequential whenever this outer
    // fan-out is actually parallel (the nested-parallelism convention).
    let stage1_outer = cuisine_exec::resolve_threads(threads, all.len());
    let stage1_mining = if stage1_outer > 1 {
        MineOpts { threads: Some(1) }
    } else {
        config.mining
    };
    let prep: Vec<(CuisineId, CuisineSetup, RankFrequency)> =
        cuisine_exec::par_map_indexed(&all, threads, |_, &cuisine| {
            let setup = CuisineSetup::from_corpus(corpus, cuisine)?;
            let ts = source.cuisine(corpus, cuisine, config.mode, lexicon);
            let empirical = CombinationAnalysis::mine_opts(
                &ts,
                config.min_support,
                config.miner,
                stage1_mining,
            )
            .rank_frequency();
            Some((cuisine, setup, empirical))
        })
        .into_iter()
        .flatten()
        .collect();

    // Stage 2 — per (cuisine, model) ensembles, in parallel with stable
    // order. Inner replicate parallelism is disabled whenever the outer
    // fan-out is actually parallel.
    let jobs: Vec<(usize, ModelKind)> = (0..prep.len())
        .flat_map(|ci| models.iter().map(move |&m| (ci, m)))
        .collect();
    let outer = cuisine_exec::resolve_threads(threads, jobs.len());
    let inner_config = EvaluationConfig {
        ensemble: EnsembleConfig {
            threads: if outer > 1 { Some(1) } else { config.ensemble.threads },
            ..config.ensemble
        },
        mining: if outer > 1 {
            MineOpts { threads: Some(1) }
        } else {
            config.mining
        },
        ..config.clone()
    };
    let mut results: Vec<ModelResult> =
        cuisine_exec::par_map_indexed(&jobs, threads, |_, &(ci, model)| {
            let (_, setup, empirical) = &prep[ci];
            let params = ModelParams::paper(model);
            evaluate_model_on_cuisine(model, &params, setup, empirical, lexicon, &inner_config)
        });

    // Reassemble: jobs were laid out cuisine-major, so drain in order.
    let mut results = results.drain(..);
    let cuisines = prep
        .into_iter()
        .map(|(cuisine, _, empirical)| CuisineEvaluation {
            code: cuisine.code().to_string(),
            empirical,
            models: results.by_ref().take(models.len()).collect(),
        })
        .collect();
    Evaluation { mode: config.mode, cuisines }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuisine_synth::{generate_corpus, SynthConfig};

    fn small_eval(mode: ItemMode) -> &'static Evaluation {
        use std::sync::OnceLock;
        assert_eq!(mode, ItemMode::Ingredients, "tests share the cached evaluation");
        static EVAL: OnceLock<Evaluation> = OnceLock::new();
        EVAL.get_or_init(|| {
            let lex = Lexicon::standard();
            let corpus = generate_corpus(
                &SynthConfig { seed: 77, scale: 0.02, ..Default::default() },
                lex,
            );
            let config = EvaluationConfig {
                ensemble: EnsembleConfig { replicates: 5, seed: 5, threads: None },
                mode,
                ..Default::default()
            };
            evaluate(&corpus, lex, &ModelKind::ALL, &config)
        })
    }

    #[test]
    fn evaluation_covers_all_cuisines_and_models() {
        let eval = small_eval(ItemMode::Ingredients);
        assert_eq!(eval.cuisines.len(), 25);
        for c in &eval.cuisines {
            assert_eq!(c.models.len(), 4);
            assert!(!c.empirical.is_empty(), "{}: empty empirical curve", c.code);
        }
    }

    #[test]
    fn copy_mutate_beats_null_on_ingredient_combinations() {
        let eval = small_eval(ItemMode::Ingredients);
        // The paper's headline: NM fails to replicate the ingredient-
        // combination distribution while CM models track it. Require the
        // best CM model to beat NM in a clear majority of cuisines.
        let mut cm_wins = 0usize;
        let mut total = 0usize;
        for c in &eval.cuisines {
            let nm = c.distance_of(ModelKind::Null);
            let best_cm = [ModelKind::CmR, ModelKind::CmC, ModelKind::CmM]
                .iter()
                .filter_map(|&k| c.distance_of(k))
                .min_by(|a, b| a.partial_cmp(b).unwrap());
            if let (Some(nm), Some(cm)) = (nm, best_cm) {
                total += 1;
                if cm < nm {
                    cm_wins += 1;
                }
            }
        }
        assert!(total >= 20, "only {total} comparable cuisines");
        assert!(
            cm_wins * 3 >= total * 2,
            "copy-mutate won only {cm_wins}/{total} cuisines"
        );
    }

    #[test]
    fn mean_distances_and_win_counts_are_consistent() {
        let eval = small_eval(ItemMode::Ingredients);
        for k in ModelKind::ALL {
            assert!(eval.mean_distance(k).is_some(), "{k}");
        }
        let wins: usize = eval.win_counts().iter().map(|&(_, w)| w).sum();
        assert!(wins <= 25);
    }
}
