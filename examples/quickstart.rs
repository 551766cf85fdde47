//! Quickstart: generate a calibrated synthetic corpus, inspect a cuisine,
//! and run one culinary evolution model against it.
//!
//! ```sh
//! cargo run --release -p cuisine-core --example quickstart
//! ```

use cuisine_core::prelude::*;
use cuisine_evolution::evaluate::evaluate_model_on_cuisine;
use cuisine_mining::PAPER_MIN_SUPPORT;

fn main() {
    // 1. A reduced-scale corpus (5% of the paper's 158k recipes) generates
    //    in about a second and reproduces the same statistics.
    let exp = Experiment::synthetic(&SynthConfig {
        seed: 42,
        scale: 0.05,
        ..Default::default()
    });
    let corpus = exp.corpus();
    let lexicon = exp.lexicon();
    println!(
        "generated {} recipes across {} cuisines (lexicon: {} entities)",
        corpus.len(),
        corpus.populated_cuisines().len(),
        lexicon.len()
    );

    // 2. Inspect one cuisine.
    let ita: CuisineId = "ITA".parse().expect("known region code");
    println!(
        "\nItaly: {} recipes, {} unique ingredients, mean size {:.2}, phi {:.4}",
        corpus.recipe_count(ita),
        corpus.unique_ingredient_count(ita),
        corpus.mean_size_in(ita).unwrap(),
        corpus.phi(ita).unwrap(),
    );
    let top = cuisine_analytics::top_overrepresented(corpus, ita, lexicon, 5);
    println!("top overrepresented (Eq. 1):");
    for s in &top {
        println!(
            "  {:<18} O = {:+.4}  (local {:.1}% vs global {:.1}%)",
            s.name,
            s.score,
            100.0 * s.local_share,
            100.0 * s.global_share
        );
    }

    // 3. Run the CM-R copy-mutate model on Italy and score it against the
    //    empirical combination rank-frequency curve (a one-cuisine Fig. 4).
    let setup = CuisineSetup::from_corpus(corpus, ita).expect("Italy is populated");
    let ts = TransactionSet::from_cuisine(corpus, ita, ItemMode::Ingredients, lexicon);
    let empirical = CombinationAnalysis::mine(&ts, PAPER_MIN_SUPPORT).rank_frequency();
    let config = EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 20, seed: 7, threads: None },
        ..Default::default()
    };
    for kind in [ModelKind::CmR, ModelKind::Null] {
        let params = ModelParams::paper(kind);
        let result =
            evaluate_model_on_cuisine(kind, &params, &setup, &empirical, lexicon, &config);
        println!(
            "\n{}: {} combination ranks, Eq.2 distance to empirical = {:.5}",
            kind.label(),
            result.curve.len(),
            result.distance.unwrap_or(f64::NAN)
        );
    }
    println!("\n(copy-mutate should land far closer to the data than the null model)");
}
