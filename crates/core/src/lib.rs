//! # cuisine-core
//!
//! Facade of the **cuisine-evolution** workspace — a production-quality
//! Rust reproduction of *Tuwani, Sahoo, Singh & Bagler, "Computational
//! models for the evolution of world cuisines", ICDE 2019*.
//!
//! The workspace implements the paper end to end:
//!
//! - a reconstructed 721-entity ingredient lexicon with 21 categories and a
//!   mention-aliasing protocol ([`cuisine_lexicon`]);
//! - the 25-cuisine recipe data model, indexed corpus store, and I/O
//!   ([`cuisine_data`]);
//! - a calibrated synthetic corpus generator standing in for the paper's
//!   non-redistributable 158k-recipe scrape ([`cuisine_synth`]);
//! - frequent-itemset mining (dEclat, checked against an Apriori oracle)
//!   for the combination analyses ([`cuisine_mining`]);
//! - the paper's statistics: Eq. 1 overrepresentation, size distributions,
//!   category profiles, rank-frequency curves, Eq. 2 similarity
//!   ([`cuisine_analytics`], [`cuisine_stats`]);
//! - the culinary evolution models CM-R / CM-C / CM-M / NM with 100-replicate
//!   ensembles and the Fig. 4 evaluation harness ([`cuisine_evolution`]);
//! - terminal/CSV reporting ([`cuisine_report`]).
//!
//! Start with [`Experiment`]:
//!
//! ```
//! use cuisine_core::prelude::*;
//!
//! let exp = Experiment::synthetic(&SynthConfig::test_scale(7));
//! let rows = exp.table1();
//! assert_eq!(rows.len(), 25);
//! ```

#![warn(missing_docs)]

pub mod pipeline;
pub mod recipegen;

pub use cuisine_analytics as analytics;
pub use cuisine_data as data;
pub use cuisine_evolution as evolution;
pub use cuisine_exec as exec;
pub use cuisine_lexicon as lexicon;
pub use cuisine_mining as mining;
pub use cuisine_report as report;
pub use cuisine_stats as stats;
pub use cuisine_synth as synth;

pub use pipeline::{Experiment, PipelineConfig};
pub use recipegen::{Constraints, GenerateError, RecipeGenerator};

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::pipeline::{Experiment, PipelineConfig};
    pub use crate::recipegen::{Constraints, RecipeGenerator};
    pub use cuisine_analytics::{
        CategoryProfile, RankFrequencyAnalysis, SimilarityMatrix, Table1Row,
    };
    pub use cuisine_data::{Corpus, Cuisine, CuisineId, Recipe, CUISINES};
    pub use cuisine_evolution::{
        CuisineSetup, EnsembleConfig, Evaluation, EvaluationConfig, ModelKind, ModelParams,
    };
    pub use cuisine_lexicon::{Category, IngredientId, Lexicon};
    pub use cuisine_mining::{
        CombinationAnalysis, ItemMode, MineOpts, TransactionCache, TransactionSet,
    };
    pub use cuisine_stats::{ErrorMetric, RankFrequency};
    pub use cuisine_synth::{generate_corpus, SynthConfig};
}
