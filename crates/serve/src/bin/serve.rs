//! `serve` — boot the analytics server over a synthetic corpus.
//!
//! ```sh
//! cargo run --release -p cuisine-serve --bin serve -- \
//!     [--scale 0.1] [--seed 42] [--threads N] [--no-cache] \
//!     [--replicates 100] [--port 7878] [--queue 64] [--lru 128] \
//!     [--shards N] [--no-keepalive] [--self-check]
//! ```
//!
//! `--replicates` sets the Fig. 4 snapshot ensembles (the startup-cost
//! knob). `--threads` sizes the `/evolve` worker pool; `--shards` sets the
//! connection event-loop count (`0` = one per core); `--no-keepalive`
//! restores the one-request-per-connection model for A/B runs.
//! `--self-check` boots on an ephemeral port, drives the in-process client
//! through `/healthz`, an artifact endpoint, `POST /evolve` (twice —
//! asserting via `/metrics` that the repeat was a cache hit, not a second
//! computation), a pipelined keep-alive exchange, and one full admin
//! register → Ready → query → retire cycle (asserting the default corpus
//! bytes never change), verifies the served bytes against the snapshot
//! store, shuts down gracefully, and exits — the CI smoke test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cuisine_bench::ExpOptions;
use cuisine_core::Experiment;
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_exec::FaultPlan;
use cuisine_serve::{
    client, AppState, BuildOptions, CorpusSpec, DeadlineConfig, RegistryConfig, Server,
    ServerConfig, SnapshotStore,
};

const USAGE: &str = "serve [--scale F] [--seed N] [--threads N] [--no-cache] \
[--mine-threads N] [--replicates N] [--port N] \
[--queue N] [--lru N] [--shards N] [--deadline-ms N] [--faults SPEC] \
[--no-keepalive] [--self-check]";

fn extra_value<T: std::str::FromStr>(
    extra: &[(String, String)],
    name: &str,
    default: T,
) -> T {
    match extra.iter().rev().find(|(k, _)| k == name) {
        None => default,
        Some((_, raw)) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} has an invalid value {raw:?}");
            eprintln!("usage: {USAGE}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let (opts, extra) = ExpOptions::parse_with_or_exit(
        std::env::args(),
        &["--port", "--queue", "--lru", "--shards", "--deadline-ms", "--faults"],
        USAGE,
    );
    let self_check = opts.has_flag("--self-check");
    let no_keepalive = opts.has_flag("--no-keepalive");
    if let Some(unknown) = opts
        .flags
        .iter()
        .find(|f| !matches!(f.as_str(), "--self-check" | "--no-keepalive"))
    {
        eprintln!("error: unrecognized flag {unknown:?}");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }

    // `--shards 0` (the default) = one event loop per core.
    let shards = match extra_value(&extra, "--shards", 0usize) {
        0 => None,
        n => Some(n),
    };
    let deadline = DeadlineConfig {
        default_ms: extra_value(&extra, "--deadline-ms", DeadlineConfig::default().default_ms),
        ..Default::default()
    };
    let config = ServerConfig {
        port: if self_check { 0 } else { extra_value(&extra, "--port", 7878) },
        threads: opts.threads,
        queue_capacity: extra_value(&extra, "--queue", 64),
        lru_capacity: extra_value(&extra, "--lru", 128),
        shards,
        keep_alive: !no_keepalive,
        deadline,
        ..Default::default()
    };

    // Parse the startup fault plan before the expensive corpus build, so a
    // typo'd spec fails in milliseconds, not minutes.
    let fault_spec: String = extra_value(&extra, "--faults", String::new());
    let fault_plan = match fault_spec.trim() {
        "" => None,
        spec => match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(reason) => {
                eprintln!("error: --faults: {reason}");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            }
        },
    };

    eprintln!(
        "cuisine-serve: generating corpus (scale {}, seed {}) ...",
        opts.scale, opts.seed
    );
    let started = Instant::now();
    let experiment = Experiment::synthetic_with(&opts.synth_config(), opts.pipeline_config());
    eprintln!(
        "corpus ready: {} recipes in {:.2?}",
        experiment.corpus().len(),
        started.elapsed()
    );

    let fig4 = EvaluationConfig {
        ensemble: EnsembleConfig {
            replicates: opts.replicates.max(1),
            ..Default::default()
        },
        ..Default::default()
    };
    let version = format!(
        "synth-seed{}-scale{}-r{}",
        opts.seed, opts.scale, fig4.ensemble.replicates
    );
    eprintln!(
        "building snapshots ({} fig4 replicates/model/cuisine) ...",
        fig4.ensemble.replicates
    );
    let snap_started = Instant::now();
    let mut snapshots = SnapshotStore::build_timed(&experiment, version, &ModelKind::ALL, &fig4, &|| {
        snap_started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    });
    let snap_elapsed = snap_started.elapsed();
    snapshots.set_build_wall_ms(snap_elapsed.as_millis().min(u128::from(u64::MAX)) as u64);
    eprintln!(
        "{} snapshots ({} KiB) in {:.2?} (mining stage {} ms)",
        snapshots.len(),
        snapshots.total_bytes() / 1024,
        snap_elapsed,
        snapshots.mining_wall_ms()
    );

    // Registry: the booted corpus is the default entry; registrations
    // inherit its spec fields and build with the same Fig. 4 options.
    // The injected clock reuses the startup `Instant` (the registry
    // itself reads no clocks — the deterministic-path lint budget).
    let default_spec = CorpusSpec { seed: opts.seed, scale: opts.scale, cuisines: None };
    let registry_config = RegistryConfig {
        default_spec: Some(default_spec),
        build: BuildOptions { models: ModelKind::ALL.to_vec(), fig4: fig4.clone() },
        clock: Arc::new(move || {
            started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
        }),
        build_threads: Some(1),
        ..Default::default()
    };
    let state = AppState::with_registry(
        Arc::new(experiment),
        Arc::new(snapshots),
        config.lru_capacity,
        registry_config,
    );
    if let Some(plan) = fault_plan {
        eprintln!("fault plan installed: {}", plan.spec());
        state.faults.install(plan);
    }
    let server = Server::start(state, config).unwrap_or_else(|e| {
        eprintln!("error: failed to bind server: {e}");
        std::process::exit(1);
    });
    println!("listening on http://{}", server.addr());

    if self_check {
        self_check_and_exit(server, !no_keepalive);
    }

    eprintln!("press Enter for graceful shutdown (or send SIGKILL)");
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        Ok(0) | Err(_) => {
            // No interactive stdin (detached run): serve until killed.
            loop {
                std::thread::park();
            }
        }
        Ok(_) => {
            eprintln!("draining ...");
            server.shutdown();
            eprintln!("bye");
        }
    }
}

/// The CI smoke path: exercise the live server through the real client.
/// The pipelining/reuse assertions only make sense when keep-alive is on.
fn self_check_and_exit(server: Server, keep_alive: bool) -> ! {
    let addr = server.addr();
    let timeout = Duration::from_secs(10);
    let mut failures = 0u32;

    let mut check = |label: &str, ok: bool| {
        if ok {
            eprintln!("self-check: {label} ... ok");
        } else {
            eprintln!("self-check: {label} ... FAILED");
            failures += 1;
        }
    };

    let health = client::get(addr, "/healthz", timeout);
    check("/healthz is 200", health.as_ref().is_ok_and(|r| r.status == 200));

    let table1 = client::get(addr, "/table1", timeout);
    let expected = server.state().snapshots.get("/table1");
    check(
        "/table1 matches the snapshot bytes",
        matches!((&table1, &expected), (Ok(r), Some(snap)) if r.status == 200
            && r.body == **snap),
    );

    let body = r#"{"cuisine":"ITA","model":"NM","seed":1,"replicates":2}"#;
    let evolve_a = client::post_json(addr, "/evolve", body, timeout);
    let evolve_b = client::post_json(addr, "/evolve", body, timeout);
    check(
        "POST /evolve is deterministic",
        matches!((&evolve_a, &evolve_b), (Ok(a), Ok(b)) if a.status == 200 && a.body == b.body),
    );

    if keep_alive {
        // Pipelined keep-alive exchange on one persistent connection: both
        // responses must arrive in order with the exact snapshot bytes.
        let pipelined = client::Connection::open(addr, timeout).and_then(|mut conn| {
            conn.send("/healthz", None)?;
            conn.send("/table1", None)?;
            let first = conn.recv()?;
            let second = conn.recv()?;
            Ok((first, second))
        });
        check(
            "pipelined keep-alive requests answer in order",
            matches!((&pipelined, &expected), (Ok((h, t)), Some(snap)) if h.status == 200
                && t.status == 200 && t.body == **snap),
        );

        // The repeat /evolve above must have been a cache hit sharing the
        // first computation, and the pipelined pair a connection reuse.
        let counters = client::get(addr, "/metrics", timeout)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| String::from_utf8(r.body).ok())
            .and_then(|text| serde_json::from_str::<serde::Value>(&text).ok())
            .and_then(|doc| {
                let object = doc.as_object()?;
                Some((
                    object.get("evolve_computations")?.as_u64()?,
                    object.get("evolve_cache_hits")?.as_u64()?,
                    object.get("keepalive_reuses")?.as_u64()?,
                ))
            });
        check(
            "metrics confirm evolve caching and keep-alive reuse",
            matches!(counters, Some((computations, hits, reuses))
                if computations == 1 && hits >= 1 && reuses >= 1),
        );
    }

    // Admin cycle: register a single-cuisine corpus, wait for Ready,
    // query it, retire it — and assert the default corpus's bytes are
    // byte-identical before and after the whole cycle.
    let registered = client::post_json(addr, "/admin/corpora", r#"{"cuisines":["ITA"]}"#, timeout);
    check(
        "admin register answers 202",
        registered.as_ref().is_ok_and(|r| r.status == 202),
    );
    let key = registered
        .ok()
        .and_then(|r| String::from_utf8(r.body).ok())
        .and_then(|text| serde_json::from_str::<serde::Value>(&text).ok())
        .and_then(|doc| Some(doc.as_object()?.get("key")?.as_str()?.to_string()));
    let ready = key
        .as_ref()
        .is_some_and(|k| server.state().registry.wait_ready(k, Duration::from_secs(600)));
    check("registered corpus reaches Ready", ready);
    if let Some(key) = &key {
        let scoped = client::get(addr, &format!("/table1?corpus={key}"), timeout);
        check(
            "corpus-scoped /table1 answers 200",
            scoped.is_ok_and(|r| r.status == 200),
        );
        let listing = client::get(addr, "/admin/corpora", timeout);
        check(
            "admin listing shows the corpus as ready",
            listing.is_ok_and(|r| {
                r.status == 200 && String::from_utf8_lossy(&r.body).contains(key.as_str())
            }),
        );
        let retired = client::delete(addr, &format!("/admin/corpora/{key}"), timeout);
        check("retire answers 200", retired.is_ok_and(|r| r.status == 200));
        let gone = client::get(addr, &format!("/table1?corpus={key}"), timeout);
        check("retired corpus answers 404", gone.is_ok_and(|r| r.status == 404));
    }
    check(
        "default corpus cannot be retired",
        client::delete(addr, "/admin/corpora/default", timeout)
            .is_ok_and(|r| r.status == 409),
    );
    let table1_after = client::get(addr, "/table1", timeout);
    check(
        "default corpus bytes unchanged after the admin cycle",
        matches!((&table1_after, &expected), (Ok(r), Some(snap)) if r.status == 200
            && r.body == **snap),
    );

    let missing = client::get(addr, "/no-such-endpoint", timeout);
    check("unknown path is 404", missing.is_ok_and(|r| r.status == 404));

    server.shutdown();
    eprintln!("self-check: graceful shutdown ... ok");
    if failures == 0 {
        println!("self-check passed");
        std::process::exit(0);
    }
    eprintln!("self-check: {failures} failure(s)");
    std::process::exit(1);
}
