//! The correctness gate, run after timing ends: every served artifact is
//! byte-compared with an offline in-process build of the same spec, a
//! sample of `/evolve` answers is recomputed, and the server's counters
//! must show the shape the workload was designed to have.

use std::sync::Arc;
use std::time::Instant;

use cuisine_bench::ExpOptions;
use cuisine_core::Experiment;
use cuisine_evolution::{EnsembleConfig, EvaluationConfig, ModelKind};
use cuisine_serve::evolve::handle_evolve;
use cuisine_serve::{EvolveRequest, SnapshotStore};

use crate::serve::ServeSpec;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::workloads::{Outcome, Workload};

/// The offline build every served byte is compared against.
pub struct Reference {
    /// The experiment, as `serve` builds it from the same arguments.
    pub experiment: Arc<Experiment>,
    /// Its snapshot store.
    pub store: Arc<SnapshotStore>,
    /// The Fig. 4 evaluation configuration `serve` derives.
    pub fig4: EvaluationConfig,
    /// Options parsed from the `serve` command line.
    pub options: ExpOptions,
    /// Wall seconds of synthesis plus `SnapshotStore::build`.
    pub build_s: f64,
    /// The `SnapshotStore::build` part alone.
    pub snapshot_s: f64,
}

/// Parse the `serve` command line exactly as `serve` parses it.
pub fn options(spec: &ServeSpec) -> Result<ExpOptions, String> {
    let args = std::iter::once("serve".to_string()).chain(spec.args());
    ExpOptions::try_parse_with(args, &["--port"])
        .map(|(opts, _)| opts)
        .map_err(|e| e.to_string())
}

/// The Fig. 4 configuration `serve` builds its snapshots with.
pub fn fig4_config(options: &ExpOptions) -> EvaluationConfig {
    EvaluationConfig {
        ensemble: EnsembleConfig {
            replicates: options.replicates.max(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

impl Reference {
    /// Synthesize the corpus and build every snapshot in-process.
    pub fn build(spec: &ServeSpec) -> Result<Reference, String> {
        let options = options(spec)?;
        let fig4 = fig4_config(&options);
        let started = Instant::now();
        let experiment =
            Experiment::synthetic_with(&options.synth_config(), options.pipeline_config());
        let snapshot_started = Instant::now();
        let store = SnapshotStore::build(&experiment, "reference".into(), &ModelKind::ALL, &fig4);
        Ok(Reference {
            experiment: Arc::new(experiment),
            store: Arc::new(store),
            fig4,
            options,
            build_s: started.elapsed().as_secs_f64(),
            snapshot_s: snapshot_started.elapsed().as_secs_f64(),
        })
    }

    /// FNV-1a over every reference body in path order.
    pub fn artifact_digest(&self) -> u64 {
        self.store.iter().fold(FNV_OFFSET, |state, (path, body)| {
            fnv1a(fnv1a(state, path.as_bytes()), body)
        })
    }
}

/// Compare served first bodies with the reference: both must cover the
/// same paths with the same bytes.
pub fn compare_bodies<'a>(
    paths: &[String],
    served: &[Option<Vec<u8>>],
    reference: impl IntoIterator<Item = (&'a str, &'a [u8])>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let reference: Vec<(&str, &[u8])> = reference.into_iter().collect();
    for (path, body) in paths.iter().zip(served) {
        match (reference.iter().find(|(p, _)| p == path), body) {
            (None, _) => problems.push(format!("{path}: served but absent from the reference")),
            (Some(_), None) => problems.push(format!("{path}: never served")),
            (Some((_, expected)), Some(body)) if body.as_slice() != *expected => {
                problems.push(format!(
                    "{path}: body differs ({} bytes served, {} expected)",
                    body.len(),
                    expected.len()
                ))
            }
            _ => {}
        }
    }
    for (path, _) in &reference {
        if !paths.iter().any(|p| p == path) {
            problems.push(format!(
                "{path}: in the reference but missing from the server index"
            ));
        }
    }
    problems
}

/// Every check for one workload run.
pub fn check(workload: Workload, outcome: &Outcome, reference: &Reference) -> Vec<String> {
    let mut problems = compare_bodies(
        &outcome.paths,
        &outcome.bodies.first,
        reference.store.iter().map(|(p, b)| (p, b.as_slice())),
    );
    if outcome.bodies.mismatches > 0 {
        problems.push(format!(
            "{} bodies differed in length from the first body of their path",
            outcome.bodies.mismatches
        ));
    }

    // Recompute the kept /evolve bodies offline.
    for record in &outcome.evolves {
        let Some(body) = &record.body else { continue };
        let Some(call) = outcome.plan.get(record.index) else {
            problems.push(format!("evolve #{}: not in the plan", record.index));
            continue;
        };
        let expected = EvolveRequest::from_json(call.body.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|request| {
                handle_evolve(&request, &reference.experiment).map_err(|e| e.to_string())
            });
        match expected {
            Ok(response) if response.body.as_slice() == body.as_slice() => {}
            Ok(_) => problems.push(format!(
                "evolve #{}: body differs from the offline recompute",
                record.index
            )),
            Err(e) => problems.push(format!(
                "evolve #{}: offline recompute failed: {e}",
                record.index
            )),
        }
    }
    // A designed repeat must return its original's exact bytes.
    for record in &outcome.evolves {
        let Some(original) = outcome.plan.get(record.index).and_then(|c| c.repeat_of) else {
            continue;
        };
        let first = outcome.evolves.iter().find(|r| r.index == original);
        if first.is_some_and(|first| first.digest != record.digest) {
            problems.push(format!(
                "evolve #{}: repeat differs from its original #{original}",
                record.index
            ));
        }
    }

    // Workload shape, from the server's own counters.
    let c = &outcome.counters;
    let answered = outcome.evolves.iter().filter(|r| r.status == 200).count() as f64;
    let repeats = outcome
        .evolves
        .iter()
        .filter(|r| {
            outcome
                .plan
                .get(r.index)
                .is_some_and(|c| c.repeat_of.is_some())
        })
        .count() as f64;
    let mut expect = |what: &str, got: f64, want: f64| {
        if got != want {
            problems.push(format!("{what}: server counted {got}, expected {want}"));
        }
    };
    expect("coalesced /evolve waiters", c.coalesced_waiters, 0.0);
    expect("/evolve cache hits", c.evolve_cache_hits, repeats);
    expect(
        "/evolve computations",
        c.evolve_computations,
        answered - repeats,
    );
    expect("shed requests", c.shed, 0.0);
    expect(
        "registry builds",
        c.registry_builds,
        outcome.registrations.len() as f64,
    );
    let lookups = c.lru_hits + c.lru_misses;
    if workload != Workload::EvolveCold && (lookups == 0.0 || c.lru_hits / lookups < 0.99) {
        problems.push(format!(
            "response-cache hit ratio {}/{lookups} is below 0.99",
            c.lru_hits
        ));
    }
    if workload == Workload::Register && outcome.registrations.is_empty() {
        problems.push("no corpus registration completed".into());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<(&'static str, &'static [u8])> {
        vec![("/fig1", b"{\"a\":1}"), ("/table1", b"[1,2,3]")]
    }

    #[test]
    fn identical_bodies_pass() {
        let paths = vec!["/fig1".to_string(), "/table1".to_string()];
        let served = vec![Some(b"{\"a\":1}".to_vec()), Some(b"[1,2,3]".to_vec())];
        assert!(compare_bodies(&paths, &served, reference()).is_empty());
    }

    #[test]
    fn a_corrupted_body_fails_the_gate() {
        let paths = vec!["/fig1".to_string(), "/table1".to_string()];
        let served = vec![Some(b"{\"a\":1}".to_vec()), Some(b"[1,2,4]".to_vec())];
        let problems = compare_bodies(&paths, &served, reference());
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("/table1: body differs"));
    }

    #[test]
    fn missing_and_extra_paths_fail_the_gate() {
        let paths = vec!["/fig1".to_string(), "/fig9".to_string()];
        let served = vec![None, Some(b"{}".to_vec())];
        let problems = compare_bodies(&paths, &served, reference());
        assert_eq!(problems.len(), 3, "{problems:?}");
    }
}
