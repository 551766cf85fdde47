//! Precomputed, versioned response bodies for every paper artifact.
//!
//! The serving layer's core trade: pay the whole analysis pipeline once at
//! startup, then answer hot endpoints with pure lookups. [`SnapshotStore`]
//! runs the same `_with` pipeline variants the batch `exp_*` binaries use
//! — through one [`Experiment`], so every stage shares its
//! `TransactionCache` — and keeps each artifact's canonical JSON encoding
//! as an `Arc<Vec<u8>>`. Bodies are byte-identical to what the offline
//! pipeline serializes for the same configuration (the contract
//! `tests/determinism.rs` established per thread count/cache flag, now
//! extended over HTTP by `crates/serve/tests/server_integration.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use cuisine_core::Experiment;
use cuisine_data::CUISINES;
use cuisine_evolution::{EvaluationConfig, ModelKind};
use cuisine_mining::ItemMode;
use serde::{Map, Serialize, Value};

use crate::metrics::SnapshotInfo;

/// Precomputed artifact bodies, keyed by canonical decoded path.
#[derive(Debug)]
pub struct SnapshotStore {
    version: String,
    /// Wall-clock of the build in milliseconds. Zero until the embedding
    /// records it via [`SnapshotStore::set_build_wall_ms`] — the store
    /// does not read clocks itself (the serving library is on the
    /// deterministic-path lint budget; binaries already own the timers).
    build_wall_ms: u64,
    /// Wall-clock of the mining stage (the two `fig3` passes) in
    /// milliseconds. Zero
    /// unless the build ran through [`SnapshotStore::build_timed`] with a
    /// real clock; measured via the *injected* clock for the same lint
    /// reason as `build_wall_ms`.
    mining_wall_ms: u64,
    entries: BTreeMap<String, Arc<Vec<u8>>>,
}

fn encode<T: Serialize>(value: &T) -> Arc<Vec<u8>> {
    Arc::new(
        serde_json::to_string(value)
            .expect("pipeline artifacts serialize")
            .into_bytes(),
    )
}

impl SnapshotStore {
    /// Run the full pipeline and capture every artifact.
    ///
    /// `version` tags the snapshot set (exported by `/healthz`,
    /// `/metrics`, and the index document); `fig4_models` and `fig4`
    /// control the Fig. 4 evaluation, which dominates startup cost
    /// (per-cuisine × per-model replicate ensembles).
    pub fn build(
        experiment: &Experiment,
        version: String,
        fig4_models: &[ModelKind],
        fig4: &EvaluationConfig,
    ) -> Self {
        Self::build_timed(experiment, version, fig4_models, fig4, &|| 0)
    }

    /// [`SnapshotStore::build`] with an injected millisecond clock, used
    /// to time the mining stage (`mining_wall_ms`). A constant clock —
    /// what [`SnapshotStore::build`] passes — records zero.
    pub fn build_timed(
        experiment: &Experiment,
        version: String,
        fig4_models: &[ModelKind],
        fig4: &EvaluationConfig,
        clock: &(dyn Fn() -> u64 + Sync),
    ) -> Self {
        let mut entries = BTreeMap::new();
        let mut put = |path: &str, body: Arc<Vec<u8>>| {
            entries.insert(path.to_string(), body);
        };

        put("/table1", encode(&experiment.table1()));
        put("/fig1", encode(&experiment.fig1()));
        put("/fig2", encode(&experiment.fig2()));

        let mining_started = clock();
        for (mode, label) in [(ItemMode::Ingredients, "ingredient"), (ItemMode::Categories, "category")]
        {
            let (analysis, matrix) = experiment.fig3(mode);
            put(&format!("/fig3/{label}"), encode(&analysis));
            put(&format!("/similarity/{label}"), encode(&matrix));
        }
        let mining_wall_ms = clock().saturating_sub(mining_started);

        let evaluation = experiment.fig4_models(fig4_models, fig4);
        for cuisine in &evaluation.cuisines {
            put(&format!("/fig4/{}", cuisine.code), encode(cuisine));
        }
        put("/fig4", encode(&evaluation));

        put("/cuisines", Arc::new(cuisines_document(experiment).into_bytes()));

        SnapshotStore {
            version,
            build_wall_ms: 0,
            mining_wall_ms,
            entries,
        }
    }

    /// Body for a canonical path, if snapshotted.
    pub fn get(&self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.entries.get(path).map(Arc::clone)
    }

    /// Snapshot set version tag.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// Record the measured build wall-clock (milliseconds), reported by
    /// `/metrics`. Called by the embedding that timed the build.
    pub fn set_build_wall_ms(&mut self, ms: u64) {
        self.build_wall_ms = ms;
    }

    /// Wall-clock of the mining stage in milliseconds (zero when the
    /// build ran without a real clock).
    pub fn mining_wall_ms(&self) -> u64 {
        self.mining_wall_ms
    }

    /// Provenance summary for `/metrics`.
    pub fn info(&self) -> SnapshotInfo<'_> {
        SnapshotInfo {
            version: &self.version,
            build_wall_ms: self.build_wall_ms,
            mining_wall_ms: self.mining_wall_ms,
        }
    }

    /// Number of snapshotted artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no artifacts were captured (never the case after
    /// [`SnapshotStore::build`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted canonical paths, for the index document.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Iterate `(path, body)` pairs in path order — the offline
    /// byte-comparison primitive the hot-swap tests diff epochs with.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Vec<u8>>)> {
        self.entries.iter().map(|(path, body)| (path.as_str(), body))
    }

    /// Total bytes held across all bodies.
    pub fn total_bytes(&self) -> usize {
        self.entries.values().map(|b| b.len()).sum()
    }
}

/// The `/cuisines` document: Table I reference rows joined with the
/// corpus actually loaded into this server.
fn cuisines_document(experiment: &Experiment) -> String {
    let corpus = experiment.corpus();
    let rows: Vec<Value> = cuisine_data::CuisineId::all()
        .filter_map(|id| {
            let info = CUISINES.get(id.index())?;
            let mut row = Map::new();
            row.insert("code", Value::String(info.code.to_string()));
            row.insert("name", Value::String(info.name.to_string()));
            row.insert("paper_recipes", Value::U64(info.recipes as u64));
            row.insert("paper_ingredients", Value::U64(info.ingredients as u64));
            row.insert("corpus_recipes", Value::U64(corpus.recipe_count(id) as u64));
            row.insert(
                "corpus_ingredients",
                Value::U64(corpus.unique_ingredient_count(id) as u64),
            );
            Some(Value::Object(row))
        })
        .collect();
    serde_json::to_string(&Value::Array(rows)).expect("cuisines document serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture, FIXTURE_VERSION};

    #[test]
    fn captures_every_artifact_family() {
        let (_, store) = fixture();
        for path in
            ["/table1", "/fig1", "/fig2", "/fig3/ingredient", "/fig3/category",
             "/similarity/ingredient", "/similarity/category", "/fig4", "/cuisines"]
        {
            assert!(store.get(path).is_some(), "missing {path}");
        }
        // One per-cuisine fig4 entry per populated cuisine.
        let per_cuisine = store.paths().filter(|p| p.starts_with("/fig4/")).count();
        assert!(per_cuisine > 0);
        assert_eq!(store.version(), FIXTURE_VERSION);
        assert!(!store.is_empty());
        assert!(store.total_bytes() > 0);
    }

    #[test]
    fn bodies_match_the_offline_pipeline_byte_for_byte() {
        let (experiment, store) = fixture();
        let offline = serde_json::to_string(&experiment.table1()).unwrap();
        assert_eq!(store.get("/table1").unwrap().as_slice(), offline.as_bytes());
        let (analysis, matrix) = experiment.fig3(ItemMode::Categories);
        assert_eq!(
            store.get("/fig3/category").unwrap().as_slice(),
            serde_json::to_string(&analysis).unwrap().as_bytes()
        );
        assert_eq!(
            store.get("/similarity/category").unwrap().as_slice(),
            serde_json::to_string(&matrix).unwrap().as_bytes()
        );
    }

    #[test]
    fn info_reports_version_and_build_time() {
        let (_, store) = fixture();
        let info = store.info();
        assert_eq!(info.version, FIXTURE_VERSION);
        assert_eq!(info.build_wall_ms, 0, "fixture build is not timed");
    }

    #[test]
    fn cuisines_document_lists_all_25() {
        let (_, store) = fixture();
        let body = store.get("/cuisines").unwrap();
        let doc: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 25);
    }
}
