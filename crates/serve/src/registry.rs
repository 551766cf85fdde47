//! Multi-corpus snapshot registry: background builds, atomic hot-swap,
//! and the zero-downtime admin API.
//!
//! The serving layer boots with one corpus — the `(seed, scale)`
//! configuration the binary was launched with — but a fleet answering
//! heterogeneous per-corpus queries needs many variants live at once
//! (ROADMAP item 3). [`CorpusRegistry`] maps a canonical corpus key
//! ([`CorpusSpec::canonical_key`]) to an epoch-versioned entry holding
//! `Arc<Experiment>` + `Arc<SnapshotStore>`, and moves entries through
//! three states:
//!
//! * **Building** — registered, snapshot build queued or running on the
//!   registry's own [`WorkerPool`]; reads answer `409` with a
//!   `retry_after_ms` hint.
//! * **Ready** — an immutable `(experiment, snapshots)` pair is installed
//!   at some epoch; reads clone the `Arc`s and never block on builds.
//! * **Retiring** — retired via the admin API; the entry stops resolving
//!   (future reads `404`) while in-flight requests finish on the `Arc`s
//!   they already cloned.
//!
//! **Swap safety.** A build never mutates a served snapshot: it
//! constructs a fresh `CorpusData` off to the side and installs it by
//! swapping the `Arc`s under the registry lock (epoch +1). Requests
//! resolve a [`CorpusHandle`] — their own `Arc` clones stamped with the
//! epoch — exactly once, so a request started on epoch *n* serves epoch
//! *n* bytes even if epoch *n+1* lands mid-request. Caches key on
//! `key@epoch` (see [`CorpusHandle::cache_scope`]), so a hot-swap can
//! never serve a stale body; and because the pipeline is deterministic in
//! the spec — and registry snapshot versions are the *key*, which is
//! stable across rebuilds — re-registering the same spec produces
//! byte-identical bodies at every epoch.
//!
//! **Coalescing.** Concurrent registrations of one key attach to the
//! pending build's [`Flight`] instead of queueing duplicates; the
//! `registry_coalesced_registrations` counter proves it in `/metrics`.
//!
//! Like the rest of the serving library the registry reads no clocks
//! itself: wall-time (build durations, retry hints) comes through an
//! injected [`Clock`] that binaries wire to a monotonic timer and tests
//! leave at the zero default.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_data::{Corpus, CuisineId};
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_exec::lockorder::{self, OrderedMutex};
use cuisine_exec::{panic_message, Faults, Flight, PoolFull, WorkerPool};
use cuisine_lexicon::Lexicon;
use cuisine_synth::{generate_corpus, SynthConfig};
use serde::{Map, Value};

use crate::http::{HttpError, Response};
use crate::metrics::RegistryStats;
use crate::snapshot::SnapshotStore;

/// Milliseconds-since-origin clock injected by the embedding. The
/// library default always reads 0 (deterministic tests, no `Instant` on
/// the lint budget); binaries install a monotonic timer.
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

fn null_clock() -> Clock {
    Arc::new(|| 0)
}

/// Queued registrations a registry accepts before shedding with `503`.
/// Builds are rare, heavyweight admin operations; a deep queue would only
/// hide a misbehaving client.
pub const BUILD_QUEUE: usize = 8;

/// Floor for the `retry_after_ms` hint on `409` responses.
const MIN_RETRY_MS: u64 = 100;

/// Fallback build estimate when no build has ever been timed.
const DEFAULT_BUILD_ESTIMATE_MS: u64 = 1_000;

/// Everything that identifies a corpus variant: the synthesis seed and
/// scale, the mining kernel, and an optional cuisine subset.
///
/// The pipeline is deterministic in this spec, so the spec *is* the
/// corpus identity — two registrations with equal canonical keys are
/// guaranteed byte-identical artifacts, which is what licenses
/// coalescing them onto one build.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Synthetic-corpus master seed.
    pub seed: u64,
    /// Fraction of the paper's recipe counts to generate.
    pub scale: f64,
    /// Restrict the corpus to these cuisines (`None` = all 25). Sorted
    /// and deduplicated by [`CorpusSpec::from_json`].
    pub cuisines: Option<Vec<CuisineId>>,
}

impl CorpusSpec {
    /// Canonical registry key, e.g. `seed11-scale0.02` or
    /// `seed11-scale0.02-FRA_ITA`. The charset (`[A-Za-z0-9._-]`)
    /// survives URL query encoding and shell quoting unchanged, so the
    /// key doubles as the `?corpus=` parameter and the admin path
    /// segment.
    pub fn canonical_key(&self) -> String {
        let mut key = format!("seed{}-scale{}", self.seed, self.scale);
        if let Some(subset) = &self.cuisines {
            let codes: Vec<&str> = subset.iter().map(|id| id.code()).collect();
            key.push('-');
            key.push_str(&codes.join("_"));
        }
        key
    }

    /// Parse an admin registration body.
    ///
    /// Shape: `{"seed": 11, "scale": 0.02, "cuisines": ["ITA", "FRA"]}`.
    /// Omitted fields inherit from `defaults` (the default corpus's spec)
    /// when provided; without defaults, `seed` and `scale` are required.
    /// Unknown fields are `422` so typos cannot silently register the
    /// wrong corpus; malformed JSON is `400`.
    pub fn from_json(body: &[u8], defaults: Option<&CorpusSpec>) -> Result<Self, HttpError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| HttpError::bad_request("body is not UTF-8"))?;
        let value: Value = serde_json::from_str(text)
            .map_err(|e| HttpError::bad_request(format!("invalid JSON body: {e}")))?;
        let object = value
            .as_object()
            .ok_or_else(|| HttpError::bad_request("body must be a JSON object"))?;

        for (key, _) in object.iter() {
            if !matches!(key, "seed" | "scale" | "cuisines") {
                return Err(HttpError::new(422, format!("unknown field {key:?}")));
            }
        }

        let seed = match object.get("seed") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| HttpError::new(422, "field \"seed\" must be a non-negative integer"))?,
            None => match defaults {
                Some(spec) => spec.seed,
                None => return Err(HttpError::new(422, "field \"seed\" (integer) is required")),
            },
        };

        let scale = match object.get("scale") {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| HttpError::new(422, "field \"scale\" must be a number"))?,
            None => match defaults {
                Some(spec) => spec.scale,
                None => return Err(HttpError::new(422, "field \"scale\" (number) is required")),
            },
        };
        if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
            return Err(HttpError::new(422, format!("\"scale\" must be in (0, 1], got {scale}")));
        }

        let cuisines = match object.get("cuisines") {
            None => defaults.and_then(|spec| spec.cuisines.clone()),
            Some(Value::Null) => None,
            Some(v) => {
                let items = v.as_array().ok_or_else(|| {
                    HttpError::new(422, "field \"cuisines\" must be an array of cuisine codes")
                })?;
                let mut ids = Vec::with_capacity(items.len());
                for item in items {
                    let label = item.as_str().ok_or_else(|| {
                        HttpError::new(422, "\"cuisines\" entries must be strings")
                    })?;
                    let id: CuisineId = label.parse().map_err(|_| {
                        HttpError::new(422, format!("unknown cuisine {label:?}"))
                    })?;
                    ids.push(id);
                }
                ids.sort_by_key(|id| id.code());
                ids.dedup();
                if ids.is_empty() {
                    return Err(HttpError::new(422, "\"cuisines\" must not be empty"));
                }
                Some(ids)
            }
        };

        Ok(CorpusSpec { seed, scale, cuisines })
    }
}

/// What a registry build snapshots: the Fig. 4 model set and evaluation
/// configuration (the dominant build cost).
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Evolution models evaluated into `/fig4`.
    pub models: Vec<ModelKind>,
    /// Fig. 4 evaluation configuration (replicates, ensemble seed).
    pub fig4: EvaluationConfig,
}

impl BuildOptions {
    /// The cheapest useful build: the null model with 2 replicates —
    /// what tests and self-checks use so registrations finish in
    /// seconds, not minutes.
    pub fn minimal() -> Self {
        BuildOptions {
            models: vec![ModelKind::Null],
            fig4: EvaluationConfig {
                ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
                ..Default::default()
            },
        }
    }
}

/// Registry construction knobs.
pub struct RegistryConfig {
    /// Spec of the corpus the server booted with. `None` registers the
    /// startup snapshots under the literal key `"default"` (they cannot
    /// be rebuilt without a spec); `Some` keys them canonically and lets
    /// omitted registration fields inherit from it.
    pub default_spec: Option<CorpusSpec>,
    /// What registered builds snapshot.
    pub build: BuildOptions,
    /// Wall-time source for build durations and retry hints.
    pub clock: Clock,
    /// Builder pool size (`None` = one per core). Builds saturate the
    /// pipeline internally, so the default single builder is usually
    /// right.
    pub build_threads: Option<usize>,
    /// Fault-injection handle consulted at `registry.build`,
    /// `snapshot.serialize`, and the builder pool's `pool.dispatch`
    /// points. [`AppState`](crate::router::AppState) adopts this same
    /// handle so one plan governs the whole stack; the default handle has
    /// no plan installed and costs one relaxed load per hook.
    pub faults: Arc<Faults>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            default_spec: None,
            build: BuildOptions::minimal(),
            clock: null_clock(),
            build_threads: Some(1),
            faults: Arc::new(Faults::new()),
        }
    }
}

/// The immutable payload of a Ready corpus: everything a request needs,
/// shared by `Arc` so installs are pointer swaps.
#[derive(Clone)]
pub struct CorpusData {
    /// Corpus, lexicon, pipeline config, and shared transaction cache.
    pub experiment: Arc<Experiment>,
    /// Precomputed artifact bodies (version = the corpus key).
    pub snapshots: Arc<SnapshotStore>,
}

/// One registry slot. `generation` counts registrations and gates
/// installs: a build finishing after its key was retired or re-registered
/// (different generation) discards its result instead of resurrecting a
/// dead corpus. `epoch` counts successful installs and scopes caches.
struct CorpusEntry {
    spec: Option<CorpusSpec>,
    generation: u64,
    epoch: u64,
    data: Option<CorpusData>,
    retired: bool,
    build_ms: u64,
    build_started_ms: u64,
    hits: Arc<AtomicU64>,
    pending: Option<Arc<Flight<()>>>,
    /// Reason the most recent build failed. With `data` installed this
    /// marks the entry *degraded* (stale-while-revalidate: the last-good
    /// epoch keeps serving); with no data it marks the entry *failed*
    /// (reads answer a named `500`). Cleared by the next successful build.
    last_error: Option<String>,
}

impl CorpusEntry {
    fn empty() -> Self {
        CorpusEntry {
            spec: None,
            generation: 0,
            epoch: 0,
            data: None,
            retired: false,
            build_ms: 0,
            build_started_ms: 0,
            hits: Arc::new(AtomicU64::new(0)),
            pending: None,
            last_error: None,
        }
    }

    fn state(&self) -> &'static str {
        if self.retired {
            "retiring"
        } else if self.data.is_some() {
            "ready"
        } else if self.pending.is_some() {
            "building"
        } else if self.last_error.is_some() {
            "failed"
        } else {
            "building"
        }
    }

    fn admin_row(&self, key: &str) -> Value {
        let mut row = Map::new();
        // "key" and "state" lead the row (the map is insertion-ordered)
        // so shell smoke tests can grep adjacent fields.
        row.insert("key", Value::String(key.to_string()));
        row.insert("state", Value::String(self.state().into()));
        row.insert("epoch", Value::U64(self.epoch));
        row.insert("build_ms", Value::U64(self.build_ms));
        row.insert(
            "mining_ms",
            Value::U64(self.data.as_ref().map_or(0, |data| data.snapshots.mining_wall_ms())),
        );
        row.insert("hits", Value::U64(self.hits.load(Ordering::Relaxed)));
        row.insert("rebuilding", Value::Bool(self.pending.is_some() && self.data.is_some()));
        row.insert("degraded", Value::Bool(self.data.is_some() && self.last_error.is_some()));
        row.insert(
            "error",
            match &self.last_error {
                Some(reason) => Value::String(reason.clone()),
                None => Value::Null,
            },
        );
        Value::Object(row)
    }
}

/// Why a corpus could not be resolved for a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The key was never registered (or has been retired).
    NotFound(String),
    /// The key is registered but its first build has not finished.
    Building {
        /// The canonical key that is building.
        key: String,
        /// Suggested client back-off, estimated from measured build
        /// times minus elapsed build time.
        retry_after_ms: u64,
    },
    /// The key's first build failed and nothing has ever been installed;
    /// there is no last-good epoch to degrade to.
    BuildFailed {
        /// The canonical key whose build failed.
        key: String,
        /// The captured build-failure reason (panic message or injected
        /// fault description).
        reason: String,
    },
}

impl CorpusError {
    /// The error-contract response: `404` JSON for unknown keys, `409`
    /// JSON with a `retry_after_ms` hint while building, `500` JSON
    /// naming the key and failure reason when a first build failed.
    pub fn to_response(&self) -> Response {
        match self {
            CorpusError::NotFound(key) => {
                Response::error(404, &format!("no corpus {key:?} is registered"))
            }
            CorpusError::Building { key, retry_after_ms } => {
                let mut doc = Map::new();
                doc.insert("error", Value::String(format!("corpus {key:?} is still building")));
                doc.insert("status", Value::U64(409));
                doc.insert("retry_after_ms", Value::U64(*retry_after_ms));
                Response::json(
                    409,
                    serde_json::to_string(&Value::Object(doc)).unwrap_or_default(),
                )
            }
            CorpusError::BuildFailed { key, reason } => {
                Response::error(500, &format!("corpus {key:?} build failed: {reason}"))
            }
        }
    }
}

/// A resolved read lease on one corpus at one epoch: `Arc` clones of the
/// served data plus the epoch stamp caches key on. Requests resolve one
/// handle up front and use it throughout, so a concurrent hot-swap can
/// never change the bytes mid-request.
#[derive(Clone)]
pub struct CorpusHandle {
    key: String,
    epoch: u64,
    /// The corpus's experiment (for `/evolve` computations).
    pub experiment: Arc<Experiment>,
    /// The corpus's snapshot bodies.
    pub snapshots: Arc<SnapshotStore>,
    hits: Arc<AtomicU64>,
}

impl std::fmt::Debug for CorpusHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusHandle")
            .field("key", &self.key)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl CorpusHandle {
    /// The canonical corpus key this handle resolved.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The install epoch this handle is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cache-key prefix: `key@epoch`. A hot-swap bumps the epoch, so
    /// entries cached under the old scope can never answer for the new
    /// snapshots (and vice versa).
    pub fn cache_scope(&self) -> String {
        format!("{}@{}", self.key, self.epoch)
    }

    /// Count one request served through this corpus.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

struct RegistryShared {
    entries: OrderedMutex<BTreeMap<String, CorpusEntry>>,
    default_key: String,
    default_spec: Option<CorpusSpec>,
    base_pipeline: PipelineConfig,
    build: BuildOptions,
    clock: Clock,
    faults: Arc<Faults>,
    builds: AtomicU64,
    swaps: AtomicU64,
    coalesced: AtomicU64,
    build_failures: AtomicU64,
}

/// One queued snapshot build: the spec, the generation that must still be
/// current at install time, and the flight waiters poll.
struct BuildJob {
    key: String,
    spec: CorpusSpec,
    generation: u64,
    flight: Arc<Flight<()>>,
}

/// The registry: a keyed map of corpus entries plus the worker pool that
/// builds them. See the module docs for states and swap safety.
pub struct CorpusRegistry {
    shared: Arc<RegistryShared>,
    pool: WorkerPool<BuildJob>,
}

impl CorpusRegistry {
    /// Build a registry whose default corpus adopts the already-built
    /// startup experiment + snapshots (at epoch 1, `build_ms` taken from
    /// the store's recorded build wall-clock).
    pub fn new(
        experiment: Arc<Experiment>,
        snapshots: Arc<SnapshotStore>,
        config: RegistryConfig,
    ) -> Self {
        let default_key = config
            .default_spec
            .as_ref()
            .map(CorpusSpec::canonical_key)
            .unwrap_or_else(|| "default".to_string());
        let base_pipeline = *experiment.config();
        let build_ms = snapshots.info().build_wall_ms;
        let mut entries = BTreeMap::new();
        entries.insert(
            default_key.clone(),
            CorpusEntry {
                spec: config.default_spec.clone(),
                generation: 1,
                epoch: 1,
                data: Some(CorpusData { experiment, snapshots }),
                retired: false,
                build_ms,
                build_started_ms: 0,
                hits: Arc::new(AtomicU64::new(0)),
                pending: None,
                last_error: None,
            },
        );
        let shared = Arc::new(RegistryShared {
            entries: OrderedMutex::new(lockorder::REGISTRY_ENTRIES, entries),
            default_key,
            default_spec: config.default_spec,
            base_pipeline,
            build: config.build,
            clock: config.clock,
            faults: Arc::clone(&config.faults),
            builds: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            build_failures: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let pool = WorkerPool::with_faults(
            config.build_threads,
            BUILD_QUEUE,
            Some(config.faults),
            move |job: BuildJob| {
                run_build(&worker_shared, job);
            },
        );
        CorpusRegistry { shared, pool }
    }

    /// The fault-injection handle this registry consults (shared with the
    /// rest of the serve stack via [`AppState`](crate::router::AppState)).
    pub fn faults(&self) -> Arc<Faults> {
        Arc::clone(&self.shared.faults)
    }

    /// Builder-pool panics contained by the per-job `catch_unwind`
    /// (injected `pool.dispatch` faults; real build panics are caught one
    /// level deeper and recorded as build failures).
    pub fn worker_panics(&self) -> u64 {
        self.pool.worker_panics()
    }

    /// The default corpus's canonical key (aliased by `?corpus=default`
    /// and corpus-less requests).
    pub fn default_key(&self) -> &str {
        &self.shared.default_key
    }

    /// The default corpus's spec, if the embedding provided one —
    /// registration bodies inherit omitted fields from it.
    pub fn default_spec(&self) -> Option<CorpusSpec> {
        self.shared.default_spec.clone()
    }

    /// Number of registered (non-retired) corpora.
    pub fn len(&self) -> usize {
        self.shared.entries.lock().values().filter(|e| !e.retired).count()
    }

    /// True when no corpus is live (never the case: the default corpus
    /// cannot be retired).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve a `?corpus=` parameter (or its absence) to a read lease.
    ///
    /// `None` and `"default"` alias the default corpus. Serving
    /// continues on the installed epoch while a rebuild is pending —
    /// `Building` is only surfaced before the *first* install.
    pub fn resolve(&self, key: Option<&str>) -> Result<CorpusHandle, CorpusError> {
        let shared = &self.shared;
        let entries = shared.entries.lock();
        let key = match key {
            None | Some("default") => shared.default_key.as_str(),
            Some(explicit) => explicit,
        };
        let entry = match entries.get(key) {
            Some(entry) => entry,
            None => return Err(CorpusError::NotFound(key.to_string())),
        };
        match &entry.data {
            Some(data) if !entry.retired => Ok(CorpusHandle {
                key: key.to_string(),
                epoch: entry.epoch,
                experiment: Arc::clone(&data.experiment),
                snapshots: Arc::clone(&data.snapshots),
                hits: Arc::clone(&entry.hits),
            }),
            _ if entry.pending.is_some() && !entry.retired => Err(CorpusError::Building {
                key: key.to_string(),
                retry_after_ms: retry_hint(shared, &entries, entry),
            }),
            _ if entry.last_error.is_some() && !entry.retired => Err(CorpusError::BuildFailed {
                key: key.to_string(),
                reason: entry.last_error.clone().unwrap_or_default(),
            }),
            _ => Err(CorpusError::NotFound(key.to_string())),
        }
    }

    /// Register (or hot-swap) a corpus: `202` with the entry's state
    /// when a build was queued or coalesced onto a pending one, `503`
    /// when the build queue is full.
    ///
    /// Re-registering a Ready key queues a fresh build whose install
    /// bumps the epoch — that *is* the zero-downtime swap: reads keep
    /// resolving the old epoch until the new one lands atomically.
    pub fn register(&self, spec: CorpusSpec) -> Response {
        let key = spec.canonical_key();
        let shared = &self.shared;
        let (flight, generation) = {
            let mut entries = shared.entries.lock();
            let entry = entries.entry(key.clone()).or_insert_with(CorpusEntry::empty);
            if entry.pending.is_some() {
                shared.coalesced.fetch_add(1, Ordering::Relaxed);
                return accepted(&key, entry, true);
            }
            entry.retired = false;
            entry.spec = Some(spec.clone());
            entry.generation += 1;
            entry.build_started_ms = (shared.clock)();
            let flight = Arc::new(Flight::new());
            entry.pending = Some(Arc::clone(&flight));
            (flight, entry.generation)
        };
        let job = BuildJob { key: key.clone(), spec, generation, flight };
        match self.pool.try_execute(job) {
            Ok(()) => {
                shared.builds.fetch_add(1, Ordering::Relaxed);
                let entries = shared.entries.lock();
                match entries.get(&key) {
                    Some(entry) if entry.data.is_none() && entry.pending.is_none() => {
                        // The build already ran and failed before we
                        // re-locked; name the key and the captured reason.
                        let reason = entry.last_error.clone().unwrap_or_default();
                        CorpusError::BuildFailed { key: key.clone(), reason }.to_response()
                    }
                    Some(entry) => accepted(&key, entry, false),
                    // Retired concurrently: the entry is gone.
                    None => Response::error(
                        500,
                        &format!("corpus {key:?} build failed: entry vanished before install"),
                    ),
                }
            }
            Err(PoolFull(job)) => {
                let mut entries = shared.entries.lock();
                let mut drop_key = false;
                if let Some(entry) = entries.get_mut(&job.key) {
                    if entry.generation == job.generation {
                        entry.pending = None;
                        drop_key = entry.data.is_none() && entry.last_error.is_none();
                    }
                }
                if drop_key {
                    entries.remove(&job.key);
                }
                drop(entries);
                job.flight.complete(());
                Response::error(
                    503,
                    &format!(
                        "registry build queue is full ({BUILD_QUEUE} pending); \
                         retry registration of corpus {key:?} later"
                    ),
                )
            }
        }
    }

    /// Retire a corpus: future resolves `404`, in-flight requests finish
    /// on their leased `Arc`s, a pending build's result is discarded.
    /// `409` on the default corpus, `404` on unknown keys, idempotent
    /// otherwise.
    pub fn retire(&self, key: &str) -> Response {
        let shared = &self.shared;
        if key == shared.default_key || key == "default" {
            return Response::error(409, "cannot retire the default corpus");
        }
        let mut entries = shared.entries.lock();
        match entries.get_mut(key) {
            None => Response::error(404, &format!("no corpus {key:?} is registered")),
            Some(entry) => {
                entry.retired = true;
                entry.data = None;
                entry.pending = None;
                entry.generation += 1;
                let mut doc = Map::new();
                doc.insert("key", Value::String(key.to_string()));
                doc.insert("state", Value::String("retiring".into()));
                doc.insert("epoch", Value::U64(entry.epoch));
                Response::json(
                    200,
                    serde_json::to_string(&Value::Object(doc)).unwrap_or_default(),
                )
            }
        }
    }

    /// The `GET /admin/corpora` document: the default key plus one row
    /// per entry (key, state, epoch, build_ms, mining_ms, hits,
    /// rebuilding).
    pub fn admin_list(&self) -> Response {
        let shared = &self.shared;
        let entries = shared.entries.lock();
        let mut doc = Map::new();
        doc.insert("default", Value::String(shared.default_key.clone()));
        doc.insert("corpora", corpus_rows(&entries));
        Response::json(200, serde_json::to_string(&Value::Object(doc)).unwrap_or_default())
    }

    /// Registry counters and per-corpus rows for `/metrics`.
    pub fn stats(&self) -> RegistryStats {
        let shared = &self.shared;
        let entries = shared.entries.lock();
        RegistryStats {
            builds: shared.builds.load(Ordering::Relaxed),
            swaps: shared.swaps.load(Ordering::Relaxed),
            coalesced_registrations: shared.coalesced.load(Ordering::Relaxed),
            build_failures: shared.build_failures.load(Ordering::Relaxed),
            corpora: corpus_rows(&entries),
        }
    }

    /// Block until `key` is Ready with no build pending (true), or it is
    /// unknown/retired/failed (false). Each pending build generation is
    /// waited on for up to `timeout`; the loop is iteration-bounded, not
    /// clock-bounded, to stay off the deterministic-path lint budget.
    pub fn wait_ready(&self, key: &str, timeout: Duration) -> bool {
        for _ in 0..64 {
            let pending = {
                let entries = self.shared.entries.lock();
                match entries.get(key) {
                    None => return false,
                    Some(entry) if entry.retired => return false,
                    Some(entry) => match (&entry.data, &entry.pending) {
                        (Some(_), None) => return true,
                        (_, Some(flight)) => Arc::clone(flight),
                        (None, None) => return false,
                    },
                }
            };
            if pending.wait_timeout(timeout).is_none() {
                return false;
            }
        }
        let entries = self.shared.entries.lock();
        entries
            .get(key)
            .is_some_and(|entry| entry.data.is_some() && entry.pending.is_none())
    }
}

/// The `202 Accepted` registration body.
fn accepted(key: &str, entry: &CorpusEntry, coalesced: bool) -> Response {
    let mut doc = Map::new();
    doc.insert("key", Value::String(key.to_string()));
    doc.insert("state", Value::String(entry.state().into()));
    doc.insert("epoch", Value::U64(entry.epoch));
    doc.insert("coalesced", Value::Bool(coalesced));
    Response::json(202, serde_json::to_string(&Value::Object(doc)).unwrap_or_default())
}

fn corpus_rows(entries: &BTreeMap<String, CorpusEntry>) -> Value {
    Value::Array(entries.iter().map(|(key, entry)| entry.admin_row(key)).collect())
}

/// Estimate how long a Building key still needs: its own last measured
/// build, else the default corpus's, else a fixed fallback — minus the
/// time already spent building, floored at [`MIN_RETRY_MS`].
fn retry_hint(
    shared: &RegistryShared,
    entries: &BTreeMap<String, CorpusEntry>,
    entry: &CorpusEntry,
) -> u64 {
    let estimate = if entry.build_ms > 0 {
        entry.build_ms
    } else {
        entries
            .get(&shared.default_key)
            .map(|default| default.build_ms)
            .filter(|&ms| ms > 0)
            .unwrap_or(DEFAULT_BUILD_ESTIMATE_MS)
    };
    let elapsed = (shared.clock)().saturating_sub(entry.build_started_ms);
    estimate.saturating_sub(elapsed).max(MIN_RETRY_MS)
}

/// Worker-side build: synthesize, subset, run the pipeline, snapshot —
/// then install under the lock iff the registration is still current.
fn run_build(shared: &Arc<RegistryShared>, job: BuildJob) {
    // The pool's worker loop swallows job panics to keep the builder
    // alive; catch here so the entry and flight always resolve, and so
    // the panic payload becomes the recorded failure reason.
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(action) = shared.faults.fire("registry.build") {
            action.apply("registry.build")?;
        }
        let started = (shared.clock)();
        let mut data =
            build_corpus_data(&job.spec, &job.key, shared.base_pipeline, &shared.build, shared);
        data.0.set_build_wall_ms((shared.clock)().saturating_sub(started));
        Ok(data)
    }))
    .map_err(|payload| format!("build panicked: {}", panic_message(payload.as_ref())))
    .and_then(|result: Result<_, String>| result);
    let mut entries = shared.entries.lock();
    if let Some(entry) = entries.get_mut(&job.key) {
        if entry.generation == job.generation {
            entry.pending = None;
            match built {
                Ok((snapshots, experiment)) => {
                    let swapping = entry.data.is_some();
                    entry.build_ms = snapshots.info().build_wall_ms;
                    entry.epoch += 1;
                    entry.data = Some(CorpusData {
                        experiment: Arc::new(experiment),
                        snapshots: Arc::new(snapshots),
                    });
                    entry.last_error = None;
                    if swapping {
                        shared.swaps.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Last-good degradation: a failed *rebuild* keeps serving
                // the installed epoch (the entry is merely degraded); a
                // failed *first* build keeps the entry in a Failed state
                // so reads answer a named 500 instead of Building forever.
                Err(reason) => {
                    shared.build_failures.fetch_add(1, Ordering::Relaxed);
                    entry.last_error = Some(reason);
                }
            }
        }
    }
    drop(entries);
    job.flight.complete(());
}

/// Construct the spec's corpus and run the full pipeline. The snapshot
/// version is the *key* — stable across rebuilds — so every body,
/// including the version-bearing index document, is byte-identical
/// across epochs of one spec.
fn build_corpus_data(
    spec: &CorpusSpec,
    key: &str,
    base: PipelineConfig,
    options: &BuildOptions,
    shared: &RegistryShared,
) -> (SnapshotStore, Experiment) {
    let synth = SynthConfig { seed: spec.seed, scale: spec.scale, ..Default::default() };
    let full = generate_corpus(&synth, Lexicon::standard());
    let corpus = match &spec.cuisines {
        None => full,
        Some(subset) => Corpus::new(
            full.recipes()
                .iter()
                .filter(|recipe| subset.contains(&recipe.cuisine))
                .cloned()
                .collect(),
        ),
    };
    let experiment = Experiment::with_config(corpus, base);
    if let Some(action) = shared.faults.fire("snapshot.serialize") {
        // Propagated as a build failure by `run_build`'s catch/apply; the
        // delay variant just stretches the serialize phase.
        if let Err(reason) = action.apply("snapshot.serialize") {
            // `apply` panics for Panic and errs for Fail/ShortWrite; turn
            // the error into the panic `run_build` already contains.
            std::panic::panic_any(reason);
        }
    }
    let snapshots = SnapshotStore::build_timed(
        &experiment,
        key.to_string(),
        &options.models,
        &options.fig4,
        &|| (shared.clock)(),
    );
    (snapshots, experiment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture, fixture_spec};

    fn registry() -> CorpusRegistry {
        let (experiment, store) = fixture();
        CorpusRegistry::new(
            Arc::clone(experiment),
            Arc::clone(store),
            RegistryConfig { default_spec: Some(fixture_spec()), ..Default::default() },
        )
    }

    fn body_json(response: &Response) -> Value {
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn canonical_keys_are_stable_and_subset_sorted() {
        let spec = fixture_spec();
        assert_eq!(spec.canonical_key(), "seed11-scale0.02");
        let subset = CorpusSpec {
            cuisines: Some(vec!["ITA".parse().unwrap(), "FRA".parse().unwrap()]),
            ..fixture_spec()
        };
        // from_json sorts; constructing by hand must match the parsed key.
        let parsed = CorpusSpec::from_json(
            br#"{"seed":11,"scale":0.02,"cuisines":["ITA","FRA"]}"#,
            None,
        )
        .unwrap();
        assert_eq!(parsed.canonical_key(), "seed11-scale0.02-FRA_ITA");
        assert_eq!(parsed.cuisines, subset.cuisines.map(|mut c| {
            c.sort_by_key(|id| id.code());
            c
        }));
    }

    #[test]
    fn from_json_inherits_defaults_and_rejects_bad_fields() {
        let defaults = fixture_spec();
        let inherited = CorpusSpec::from_json(br#"{"cuisines":["ITA"]}"#, Some(&defaults)).unwrap();
        assert_eq!(inherited.seed, 11);
        assert_eq!(inherited.scale, 0.02);
        assert_eq!(inherited.canonical_key(), "seed11-scale0.02-ITA");

        assert_eq!(CorpusSpec::from_json(b"not json", None).unwrap_err().status, 400);
        let cases: &[&[u8]] = &[
            br#"{"scale":0.02}"#,                                // missing seed, no defaults
            br#"{"seed":1}"#,                                    // missing scale, no defaults
            br#"{"seed":1,"scale":0}"#,                          // scale out of range
            br#"{"seed":1,"scale":2.0}"#,                        // scale out of range
            br#"{"seed":1,"scale":0.02,"miner":"declat"}"#,      // no kernel choice
            br#"{"seed":1,"scale":0.02,"cuisines":[]}"#,         // empty subset
            br#"{"seed":1,"scale":0.02,"cuisines":["Xx"]}"#,     // unknown cuisine
            br#"{"seed":1,"scale":0.02,"surprise":1}"#,          // unknown field
        ];
        for body in cases {
            let err = CorpusSpec::from_json(body, None).unwrap_err();
            assert_eq!(err.status, 422, "body={:?}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn default_corpus_resolves_and_cannot_be_retired() {
        let registry = registry();
        let by_none = registry.resolve(None).unwrap();
        let by_alias = registry.resolve(Some("default")).unwrap();
        let by_key = registry.resolve(Some("seed11-scale0.02")).unwrap();
        assert_eq!(by_none.key(), "seed11-scale0.02");
        assert_eq!(by_none.epoch(), 1);
        assert_eq!(by_none.cache_scope(), by_alias.cache_scope());
        assert!(Arc::ptr_eq(&by_none.snapshots, &by_key.snapshots));

        assert_eq!(registry.retire("default").status, 409);
        assert_eq!(registry.retire("seed11-scale0.02").status, 409);
        assert_eq!(registry.retire("seed99-scale0.02").status, 404);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unknown_corpora_resolve_to_not_found() {
        let registry = registry();
        match registry.resolve(Some("seed99-scale0.5")) {
            Err(CorpusError::NotFound(key)) => assert_eq!(key, "seed99-scale0.5"),
            other => panic!("expected NotFound, got {other:?}"),
        }
        let response = CorpusError::NotFound("x".into()).to_response();
        assert_eq!(response.status, 404);
        let response =
            CorpusError::Building { key: "x".into(), retry_after_ms: 250 }.to_response();
        assert_eq!(response.status, 409);
        assert_eq!(body_json(&response).as_object().unwrap().get("retry_after_ms").unwrap().as_u64(), Some(250));
    }

    #[test]
    fn register_builds_swaps_and_retires() {
        let registry = registry();
        let spec = CorpusSpec {
            cuisines: Some(vec!["ITA".parse().unwrap()]),
            ..fixture_spec()
        };
        let key = spec.canonical_key();

        let response = registry.register(spec.clone());
        assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
        assert!(registry.wait_ready(&key, Duration::from_secs(120)));
        let first = registry.resolve(Some(&key)).unwrap();
        assert_eq!(first.epoch(), 1);
        assert_eq!(first.snapshots.version(), key);
        // The subset corpus only contains the requested cuisine.
        assert!(first.snapshots.get("/fig4/ITA").is_some());
        assert!(first.snapshots.get("/fig4/FRA").is_none());

        // Hot swap: same spec, new epoch, byte-identical bodies.
        let response = registry.register(spec);
        assert_eq!(response.status, 202);
        assert!(registry.wait_ready(&key, Duration::from_secs(120)));
        let second = registry.resolve(Some(&key)).unwrap();
        assert_eq!(second.epoch(), 2);
        assert_ne!(first.cache_scope(), second.cache_scope());
        for (path, body) in first.snapshots.iter() {
            assert_eq!(
                second.snapshots.get(path).as_deref().map(|b| b.as_slice()),
                Some(body.as_slice()),
                "{path} changed across epochs"
            );
        }

        let stats = registry.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.swaps, 1);

        // Retire: resolve 404s, the default corpus is untouched.
        assert_eq!(registry.retire(&key).status, 200);
        assert!(matches!(registry.resolve(Some(&key)), Err(CorpusError::NotFound(_))));
        assert!(registry.resolve(None).is_ok());
        assert_eq!(registry.retire(&key).status, 200, "retire is idempotent");
    }
}
