//! Shared unit-test fixture: one experiment + snapshot store, built once.
//!
//! Debug-mode pipeline runs are expensive, so every test that needs served
//! artifacts shares a single build behind a `OnceLock`. The configuration
//! matches `tests/determinism.rs` (seed 11, scale 0.02) — a corpus known
//! to keep combination mining well-conditioned; *smaller* scales can push
//! a cuisine's absolute support floor to 1, where subset enumeration
//! blows up.

use std::sync::{Arc, OnceLock};

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_synth::SynthConfig;

use crate::registry::{CorpusSpec, RegistryConfig};
use crate::router::AppState;
use crate::snapshot::SnapshotStore;

/// The snapshot version tag the fixture store is built with.
pub const FIXTURE_VERSION: &str = "test-fixture-v1";

static FIXTURE: OnceLock<(Arc<Experiment>, Arc<SnapshotStore>)> = OnceLock::new();

/// The Fig. 4 configuration the fixture store is built with.
pub fn fixture_fig4() -> EvaluationConfig {
    EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
        ..Default::default()
    }
}

/// The shared experiment + snapshot store (built on first use).
pub fn fixture() -> &'static (Arc<Experiment>, Arc<SnapshotStore>) {
    FIXTURE.get_or_init(|| {
        let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
        let experiment = Experiment::synthetic_with(&synth, PipelineConfig::default());
        let store = SnapshotStore::build(
            &experiment,
            FIXTURE_VERSION.into(),
            &[ModelKind::Null],
            &fixture_fig4(),
        );
        (Arc::new(experiment), Arc::new(store))
    })
}

/// The registry spec matching the fixture build — the default corpus is
/// rebuildable and registrations can inherit its fields.
pub fn fixture_spec() -> CorpusSpec {
    CorpusSpec { seed: 11, scale: 0.02, cuisines: None }
}

/// A fresh [`AppState`] (own LRU, registry, and metrics) over the shared
/// fixture, with the default corpus registered under the fixture spec's
/// canonical key (`seed11-scale0.02`).
pub fn fresh_state() -> AppState {
    let (experiment, store) = fixture();
    AppState::with_registry(
        Arc::clone(experiment),
        Arc::clone(store),
        32,
        RegistryConfig { default_spec: Some(fixture_spec()), ..Default::default() },
    )
}

/// [`fresh_state`] pre-wrapped in the `Arc` the
/// [`EvolveEngine`](crate::evolve::EvolveEngine) and server layer take.
pub fn fresh_shared_state() -> Arc<AppState> {
    Arc::new(fresh_state())
}
