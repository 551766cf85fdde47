//! Determinism contract of the parallel execution layer: every pipeline
//! artifact is **byte-identical** regardless of thread count and of
//! whether the encoded-transaction cache is enabled.
//!
//! This is the test backing the `PipelineConfig` doc promise ("neither
//! knob changes any result"): fan-out order is stable, all randomness is
//! seeded from logical indices, and the cache memoizes deterministic
//! encodings. Each artifact is serialized to JSON so the comparison is a
//! full structural equality down to float bit patterns formatted by the
//! same serializer.
//!
//! Regression note (PR 4): the miners and the pairing analysis used to
//! iterate `HashMap`s and then sort — correct only because every trailing
//! sort happened to be total. They now accumulate in `BTreeMap`s, so
//! emission order is structurally deterministic, and `cuisine-lint`
//! (rule D1) rejects new hash-iteration sites in artifact-producing
//! crates at the source level. These tests remain the dynamic witness
//! that the artifacts are byte-identical across `{1,2,8}` threads × cache
//! on/off; the linter is the static one.

use cuisine_core::prelude::*;
use cuisine_evolution::ModelKind;

/// Thread counts to sweep: sequential, small, oversubscribed.
const THREADS: &[Option<usize>] = &[Some(1), Some(2), Some(8)];

fn experiment(threads: Option<usize>, cache: bool) -> Experiment {
    let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
    let config = PipelineConfig { threads, cache, ..Default::default() };
    Experiment::synthetic_with(&synth, config)
}

/// Smaller corpus for the model-evaluation sweeps (fig4 runs evolution
/// ensembles per cuisine × model × config, so keep each run cheap).
fn small_experiment(threads: Option<usize>, cache: bool) -> Experiment {
    let synth = SynthConfig { seed: 11, scale: 0.005, ..Default::default() };
    let config = PipelineConfig { threads, cache, ..Default::default() };
    Experiment::synthetic_with(&synth, config)
}

/// All `(threads, cache)` combinations under test.
fn configs() -> Vec<(Option<usize>, bool)> {
    let mut out = Vec::new();
    for &t in THREADS {
        for cache in [false, true] {
            out.push((t, cache));
        }
    }
    out
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable artifact")
}

#[test]
fn table1_fig1_fig2_identical_across_threads() {
    let reference = {
        let e = experiment(Some(1), false);
        (to_json(&e.table1()), to_json(&e.fig1()), to_json(&e.fig2()))
    };
    for (threads, cache) in configs() {
        let e = experiment(threads, cache);
        assert_eq!(
            to_json(&e.table1()),
            reference.0,
            "table1 diverged at threads={threads:?} cache={cache}"
        );
        assert_eq!(
            to_json(&e.fig1()),
            reference.1,
            "fig1 diverged at threads={threads:?} cache={cache}"
        );
        assert_eq!(
            to_json(&e.fig2()),
            reference.2,
            "fig2 diverged at threads={threads:?} cache={cache}"
        );
    }
}

#[test]
fn fig3_and_similarity_identical_across_threads_and_cache() {
    for mode in [ItemMode::Ingredients, ItemMode::Categories] {
        let reference = {
            let (analysis, matrix) = experiment(Some(1), false).fig3(mode);
            (to_json(&analysis), to_json(&matrix))
        };
        for (threads, cache) in configs() {
            let e = experiment(threads, cache);
            let (analysis, matrix) = e.fig3(mode);
            assert_eq!(
                to_json(&analysis),
                reference.0,
                "fig3 {mode:?} diverged at threads={threads:?} cache={cache}"
            );
            assert_eq!(
                to_json(&matrix),
                reference.1,
                "similarity {mode:?} diverged at threads={threads:?} cache={cache}"
            );
            // Re-running on the same (now warm) cache must also agree.
            let (again, _) = e.fig3(mode);
            assert_eq!(to_json(&again), reference.0, "warm-cache rerun diverged");
        }
    }
}

#[test]
fn fig4_identical_across_threads_and_cache() {
    let models = [ModelKind::CmR, ModelKind::Null];
    let config = EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 4, seed: 7, threads: None },
        ..Default::default()
    };
    let reference = to_json(&small_experiment(Some(1), false).fig4_models(&models, &config));
    for (threads, cache) in configs() {
        let e = small_experiment(threads, cache);
        assert_eq!(
            to_json(&e.fig4_models(&models, &config)),
            reference,
            "fig4 diverged at threads={threads:?} cache={cache}"
        );
    }
}

#[test]
fn kernel_options_do_not_change_fig3_or_fig4() {
    // The kernel-internal DFS parallelism is a leg of the byte-identity
    // contract too: fig3 (both granularities, plus the similarity matrix)
    // and fig4 must serialize to the same bytes across DFS threads
    // {1, 2, 8}.
    let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
    let small_synth = SynthConfig { seed: 11, scale: 0.005, ..Default::default() };
    let build = |synth: &SynthConfig, mining| {
        let config = PipelineConfig { threads: Some(1), cache: true, mining, ..Default::default() };
        Experiment::synthetic_with(synth, config)
    };
    let fig4_config = EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
        ..Default::default()
    };
    let models = [ModelKind::Null];
    let reference = {
        let sequential = MineOpts { threads: Some(1) };
        let e = build(&synth, sequential);
        let (ing, matrix) = e.fig3(ItemMode::Ingredients);
        let (cat, _) = e.fig3(ItemMode::Categories);
        let small = build(&small_synth, sequential);
        (
            to_json(&ing),
            to_json(&matrix),
            to_json(&cat),
            to_json(&small.fig4_models(&models, &fig4_config)),
        )
    };
    for dfs_threads in [2usize, 8] {
        let mining = MineOpts { threads: Some(dfs_threads) };
        let e = build(&synth, mining);
        let (ing, matrix) = e.fig3(ItemMode::Ingredients);
        let (cat, _) = e.fig3(ItemMode::Categories);
        assert_eq!(to_json(&ing), reference.0, "fig3 ingredients diverged at {mining:?}");
        assert_eq!(to_json(&matrix), reference.1, "similarity diverged at {mining:?}");
        assert_eq!(to_json(&cat), reference.2, "fig3 categories diverged at {mining:?}");
        let small = build(&small_synth, mining);
        assert_eq!(
            to_json(&small.fig4_models(&models, &fig4_config)),
            reference.3,
            "fig4 diverged at {mining:?}"
        );
    }
}

#[test]
fn ensemble_thread_knob_does_not_change_fig4() {
    // The *inner* ensemble thread knob must be value-neutral too, both on
    // its own and combined with outer fan-out.
    let models = [ModelKind::CmM];
    let mk = |ensemble_threads| EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 6, seed: 13, threads: ensemble_threads },
        ..Default::default()
    };
    let reference =
        to_json(&small_experiment(Some(1), true).fig4_models(&models, &mk(Some(1))));
    for ensemble_threads in [None, Some(2), Some(64)] {
        for outer in [Some(1), Some(4)] {
            let e = small_experiment(outer, true);
            assert_eq!(
                to_json(&e.fig4_models(&models, &mk(ensemble_threads))),
                reference,
                "fig4 diverged at ensemble={ensemble_threads:?} outer={outer:?}"
            );
        }
    }
}
