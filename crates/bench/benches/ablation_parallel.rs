//! Ablation: the deterministic parallel execution layer. Per-cuisine
//! mining (the Fig. 3 workload: 25 cuisines + the pooled aggregate, each
//! encoded and mined independently) at 1 / 2 / 4 worker threads, and the
//! encoded-transaction cache cold vs warm.
//!
//! The headline number backing DESIGN.md §4: 4 threads vs 1 thread on
//! `RankFrequencyAnalysis::measure_with` should be a ≥2× speedup, with
//! byte-identical output (enforced separately by `tests/determinism.rs`).
//!
//! **Caveat**: the speedup only materializes on multicore hosts. The 26
//! jobs (25 cuisines + aggregate) are independent and embarrassingly
//! parallel, so expect ~min(cores, 4)× at `threads_4`; on a single-core
//! container all thread counts are within noise of each other (scoped
//! threads time-slice one CPU) — which is itself worth seeing: the
//! fan-out layer adds no meaningful overhead when it cannot help.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cuisine_bench::bench_corpus;
use cuisine_lexicon::Lexicon;
use cuisine_mining::{ItemMode, MineOpts, TransactionCache, PAPER_MIN_SUPPORT};
use cuisine_analytics::RankFrequencyAnalysis;

fn measure(threads: Option<usize>, cache: Option<&TransactionCache>) -> RankFrequencyAnalysis {
    RankFrequencyAnalysis::measure_with(
        bench_corpus(),
        Lexicon::standard(),
        ItemMode::Ingredients,
        PAPER_MIN_SUPPORT,
        MineOpts::default(),
        threads,
        cache,
    )
}

fn bench_parallel_fanout(c: &mut Criterion) {
    // Materialize the corpus outside the timed region.
    let _ = bench_corpus();

    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);

    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("fig3_mining", format!("threads_{threads}")),
            &threads,
            |b, &threads| b.iter(|| black_box(measure(Some(threads), None))),
        );
    }

    // Cache ablation: cold = encode every cuisine inside the timed region
    // (fresh cache each iteration); warm = encodings memoized up front, so
    // the timed region is mining only.
    group.bench_function("fig3_mining/cache_cold", |b| {
        b.iter(|| {
            let cache = TransactionCache::new();
            black_box(measure(Some(4), Some(&cache)))
        })
    });
    let warm = TransactionCache::new();
    let _ = measure(Some(4), Some(&warm)); // populate
    group.bench_function("fig3_mining/cache_warm", |b| {
        b.iter(|| black_box(measure(Some(4), Some(&warm))))
    });

    // Encoding micro-ablation: what one cache hit saves. `uncached`
    // re-encodes the cuisine's transactions from the corpus every time;
    // `cached_hit` is an `Arc` clone out of the warm cache.
    let corpus = bench_corpus();
    let lexicon = Lexicon::standard();
    let ita: cuisine_data::CuisineId = "ITA".parse().unwrap();
    group.bench_function("encode/uncached", |b| {
        b.iter(|| {
            black_box(cuisine_mining::TransactionSet::from_cuisine(
                corpus,
                ita,
                ItemMode::Ingredients,
                lexicon,
            ))
        })
    });
    let _ = warm.cuisine(corpus, ita, ItemMode::Ingredients, lexicon);
    group.bench_function("encode/cached_hit", |b| {
        b.iter(|| black_box(warm.cuisine(corpus, ita, ItemMode::Ingredients, lexicon)))
    });

    group.finish();
}

criterion_group!(benches, bench_parallel_fanout);
criterion_main!(benches);
