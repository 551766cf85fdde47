//! Bench E5/E6 — Fig. 4: single replicates of each evolution model on a
//! representative cuisine, and a small end-to-end ensemble evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cuisine_bench::bench_corpus;
use cuisine_data::CuisineId;
use cuisine_evolution::evaluate::evaluate_model_on_cuisine;
use cuisine_evolution::{
    run_copy_mutate, run_null, CuisineSetup, EnsembleConfig, EvaluationConfig, ModelKind,
    ModelParams,
};
use cuisine_lexicon::Lexicon;
use cuisine_mining::{CombinationAnalysis, ItemMode, TransactionSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fig4(c: &mut Criterion) {
    let lexicon = Lexicon::standard();
    let corpus = bench_corpus();
    let ita: CuisineId = "ITA".parse().unwrap();
    let setup = CuisineSetup::from_corpus(corpus, ita).expect("populated");

    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);

    // One replicate of each model (the Algorithm-1 engines themselves).
    for kind in ModelKind::ALL {
        let params = ModelParams::paper(kind);
        group.bench_with_input(
            BenchmarkId::new("single_replicate", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let recipes = match kind {
                        ModelKind::Null => run_null(&params, &setup, lexicon, &mut rng),
                        _ => run_copy_mutate(kind, &params, &setup, lexicon, &mut rng),
                    };
                    black_box(recipes)
                })
            },
        );
    }

    // Full per-cuisine evaluation: ensemble + mining + aggregation + Eq. 2.
    let ts = TransactionSet::from_cuisine(corpus, ita, ItemMode::Ingredients, lexicon);
    let empirical = CombinationAnalysis::mine(&ts, 0.05).rank_frequency();
    let config = EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 10, seed: 7, threads: None },
        ..Default::default()
    };
    group.bench_function("evaluate_cmr_ita_10_replicates", |b| {
        b.iter(|| {
            black_box(evaluate_model_on_cuisine(
                ModelKind::CmR,
                &ModelParams::paper(ModelKind::CmR),
                &setup,
                &empirical,
                lexicon,
                &config,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
