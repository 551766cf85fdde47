//! Registry integration tests over a live server on an ephemeral port.
//!
//! The headline contract is the zero-downtime hot swap: re-registering a
//! corpus while keep-alive clients hammer scoped artifact GETs and
//! `POST /evolve` must produce zero transport errors and zero non-2xx
//! statuses (409 `Building` is the only other status the contract
//! permits, and with atomic swap-in-place it never actually fires), with
//! every body byte-identical to an offline `SnapshotStore` build of the
//! registered spec — whichever epoch served it. Registering and retiring
//! a second corpus must never perturb default-corpus bytes, and N
//! concurrent identical registrations must coalesce onto one build.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cuisine_core::{Experiment, PipelineConfig};
use cuisine_data::{Corpus, CuisineId};
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_lexicon::Lexicon;
use cuisine_serve::client;
use cuisine_serve::{
    AppState, CorpusSpec, RegistryConfig, Server, ServerConfig, SnapshotStore,
};
use cuisine_synth::{generate_corpus, SynthConfig};

const TIMEOUT: Duration = Duration::from_secs(30);
const BUILD_TIMEOUT: Duration = Duration::from_secs(600);
const EVOLVE_BODY: &str = r#"{"cuisine":"ITA","model":"NM","seed":5,"replicates":2}"#;

static FIXTURE: OnceLock<(Arc<Experiment>, Arc<SnapshotStore>)> = OnceLock::new();

fn fig4_config() -> EvaluationConfig {
    // Must match `BuildOptions::minimal()` — registered corpora build
    // with the registry's options, and the offline comparison builds
    // here must be configured identically.
    EvaluationConfig {
        ensemble: EnsembleConfig { replicates: 2, seed: 7, threads: None },
        ..Default::default()
    }
}

fn default_spec() -> CorpusSpec {
    CorpusSpec { seed: 11, scale: 0.02, cuisines: None }
}

fn fixture() -> &'static (Arc<Experiment>, Arc<SnapshotStore>) {
    FIXTURE.get_or_init(|| {
        let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
        let experiment = Experiment::synthetic_with(&synth, PipelineConfig::default());
        let store = SnapshotStore::build(
            &experiment,
            "registry-int-v1".into(),
            &[ModelKind::Null],
            &fig4_config(),
        );
        (Arc::new(experiment), Arc::new(store))
    })
}

fn start_server(config: ServerConfig) -> Server {
    let (experiment, store) = fixture();
    let state = AppState::with_registry(
        Arc::clone(experiment),
        Arc::clone(store),
        32,
        RegistryConfig { default_spec: Some(default_spec()), ..Default::default() },
    );
    Server::start(state, ServerConfig { port: 0, ..config }).expect("bind ephemeral port")
}

/// Offline build of the registered subset spec — exactly what the
/// registry's background build produces (snapshot version = corpus key,
/// so bodies are stable across epochs).
fn offline_subset_store(codes: &[&str], key: &str) -> SnapshotStore {
    let synth = SynthConfig { seed: 11, scale: 0.02, ..Default::default() };
    let subset: Vec<CuisineId> =
        codes.iter().map(|c| c.parse().expect("cuisine code")).collect();
    let full = generate_corpus(&synth, Lexicon::standard());
    let corpus = Corpus::new(
        full.recipes()
            .iter()
            .filter(|recipe| subset.contains(&recipe.cuisine))
            .cloned()
            .collect(),
    );
    let experiment = Experiment::with_config(corpus, PipelineConfig::default());
    SnapshotStore::build(&experiment, key.to_string(), &[ModelKind::Null], &fig4_config())
}

fn register(addr: std::net::SocketAddr, body: &str) -> client::ClientResponse {
    client::post_json(addr, "/admin/corpora", body, TIMEOUT).expect("register request")
}

#[test]
fn hot_swap_under_load_serves_byte_identical_bodies() {
    let server = start_server(ServerConfig { threads: Some(4), ..Default::default() });
    let addr = server.addr();
    let (_, default_store) = fixture();

    // Register the ITA-subset corpus and wait for its first epoch.
    let key = "seed11-scale0.02-ITA";
    let accepted = register(addr, r#"{"cuisines":["ITA"]}"#);
    assert_eq!(accepted.status, 202, "{}", String::from_utf8_lossy(&accepted.body));
    assert!(String::from_utf8_lossy(&accepted.body).contains(key));
    assert!(
        server.state().registry.wait_ready(key, BUILD_TIMEOUT),
        "registered corpus never became ready"
    );

    let offline = offline_subset_store(&["ITA"], key);

    // The GET mix: scoped reads against the registered corpus interleaved
    // with default-corpus reads (whose bytes must never move).
    let expectations: Vec<(String, Vec<u8>)> = vec![
        (
            format!("/table1?corpus={key}"),
            offline.get("/table1").expect("offline table1").to_vec(),
        ),
        (
            format!("/fig4/ITA?corpus={key}"),
            offline.get("/fig4/ITA").expect("offline fig4").to_vec(),
        ),
        (
            format!("/cuisines?corpus={key}"),
            offline.get("/cuisines").expect("offline cuisines").to_vec(),
        ),
        ("/table1".to_string(), default_store.get("/table1").expect("table1").to_vec()),
        ("/fig1".to_string(), default_store.get("/fig1").expect("fig1").to_vec()),
    ];
    // Evolve bodies are deterministic per corpus across epochs: capture
    // the expected bytes once, before the swaps start.
    let evolve_targets: Vec<(String, Vec<u8>)> = ["/evolve".to_string(), format!("/evolve?corpus={key}")]
        .into_iter()
        .map(|path| {
            let response =
                client::post_json(addr, &path, EVOLVE_BODY, TIMEOUT).expect("evolve warmup");
            assert_eq!(response.status, 200, "{path}");
            (path, response.body)
        })
        .collect();

    let stop = AtomicBool::new(false);
    let bad_status = AtomicUsize::new(0);
    let transport_errors = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for client_index in 0..8usize {
            let (expectations, evolve_targets) = (&expectations, &evolve_targets);
            let (stop, bad_status, transport_errors, served) =
                (&stop, &bad_status, &transport_errors, &served);
            scope.spawn(move || {
                let mut conn = client::Connection::open(addr, TIMEOUT).ok();
                let mut step = client_index;
                while !stop.load(Ordering::Relaxed) {
                    let live = match conn.as_mut() {
                        Some(live) => live,
                        None => match client::Connection::open(addr, TIMEOUT) {
                            Ok(fresh) => conn.insert(fresh),
                            Err(_) => {
                                transport_errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        },
                    };
                    // Every 6th slot POSTs /evolve; the rest walk the GETs.
                    let outcome = if step % 6 == 5 {
                        let (path, expected) = &evolve_targets[step % evolve_targets.len()];
                        live.post_json(path, EVOLVE_BODY).map(|r| (r, expected))
                    } else {
                        let (path, expected) = &expectations[step % expectations.len()];
                        live.get(path).map(|r| (r, expected))
                    };
                    match outcome {
                        Err(_) => {
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                        Ok((response, expected)) => {
                            served.fetch_add(1, Ordering::Relaxed);
                            // The contract: nothing but 2xx (409 Building is
                            // tolerated by the ISSUE but atomic swap-in-place
                            // never exposes it) and byte-exact bodies.
                            if response.status != 200 || response.body != *expected {
                                bad_status.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    step += 1;
                }
            });
        }

        // Under sustained load: re-register the same spec twice. Each
        // round rebuilds in the background and atomically swaps the new
        // epoch in; readers never see a gap.
        for round in 0..2 {
            let accepted = register(addr, r#"{"cuisines":["ITA"]}"#);
            assert_eq!(accepted.status, 202, "round {round}");
            assert!(
                server.state().registry.wait_ready(key, BUILD_TIMEOUT),
                "rebuild round {round} never became ready"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(transport_errors.load(Ordering::Relaxed), 0, "connection resets under swap");
    assert_eq!(bad_status.load(Ordering::Relaxed), 0, "non-200 or diverging body under swap");
    assert!(served.load(Ordering::Relaxed) > 100, "load loop barely ran");

    // The swaps really happened (initial register + 2 rebuilds).
    let stats = server.state().registry.stats();
    assert_eq!(stats.builds, 3);
    assert_eq!(stats.swaps, 2);

    server.shutdown();
}

#[test]
fn concurrent_registrations_coalesce_and_retire_leaves_default_untouched() {
    let server = start_server(ServerConfig::default());
    let addr = server.addr();
    let (_, default_store) = fixture();
    let baseline = client::get(addr, "/table1", TIMEOUT).expect("default read");
    assert_eq!(baseline.status, 200);
    assert_eq!(baseline.body, **default_store.get("/table1").expect("table1"));

    // Occupy the single build worker so the next key's build stays queued
    // while the concurrent registrations land.
    let occupied = register(addr, r#"{"cuisines":["FRA"]}"#);
    assert_eq!(occupied.status, 202);

    // 8 concurrent identical registrations: exactly one build, 7 coalesce.
    let key = "seed11-scale0.02-FRA_ITA";
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || register(addr, r#"{"cuisines":["ITA","FRA"]}"#)))
            .collect();
        for handle in handles {
            let response = handle.join().expect("registration thread");
            assert_eq!(response.status, 202, "{}", String::from_utf8_lossy(&response.body));
            assert!(String::from_utf8_lossy(&response.body).contains(key));
        }
    });

    // While still building, scoped reads answer 409 with a retry hint.
    let building = client::get(addr, &format!("/table1?corpus={key}"), TIMEOUT)
        .expect("busy read");
    assert_eq!(building.status, 409, "{}", String::from_utf8_lossy(&building.body));
    let busy: serde::Value =
        serde_json::from_str(std::str::from_utf8(&building.body).expect("utf8"))
            .expect("busy body is JSON");
    let retry = busy
        .as_object()
        .and_then(|o| o.get("retry_after_ms"))
        .and_then(serde::Value::as_u64)
        .expect("retry_after_ms hint");
    assert!(retry >= 100);

    assert!(server.state().registry.wait_ready(key, BUILD_TIMEOUT));
    let ready = client::get(addr, &format!("/table1?corpus={key}"), TIMEOUT).expect("ready read");
    assert_eq!(ready.status, 200);

    // The /metrics counters pin the coalescing: FRA + FRA_ITA = 2 builds
    // for 9 registrations.
    let metrics = client::get(addr, "/metrics", TIMEOUT).expect("metrics");
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(&metrics.body).expect("utf8")).expect("json");
    let object = doc.as_object().expect("metrics object");
    let counter = |name: &str| object.get(name).and_then(serde::Value::as_u64);
    assert_eq!(counter("registry_builds"), Some(2));
    assert_eq!(counter("registry_coalesced_registrations"), Some(7));

    // Retire the coalesced corpus; the default corpus's bytes never move.
    let retired =
        client::delete(addr, &format!("/admin/corpora/{key}"), TIMEOUT).expect("retire");
    assert_eq!(retired.status, 200);
    let gone = client::get(addr, &format!("/table1?corpus={key}"), TIMEOUT).expect("gone read");
    assert_eq!(gone.status, 404);
    let after = client::get(addr, "/table1", TIMEOUT).expect("default read after retire");
    assert_eq!(after.status, 200);
    assert_eq!(
        after.body, baseline.body,
        "retiring a second corpus perturbed default-corpus bytes"
    );

    server.shutdown();
}
