//! The in-process per-layer trace. It calls each crate's public functions
//! from outside, in the order the server composes them, and times every
//! call. Nothing here runs while end-to-end numbers are measured.
//!
//! * [`build`] re-runs a snapshot build stage by stage (synthesis, the
//!   transaction encodings, Table I and Figs. 1–3, a recomposed Fig. 4
//!   with per-thread busy time, serialization) and checks that every body
//!   equals the untraced reference build.
//! * [`evolve`] runs planned `/evolve` requests through `handle_evolve`
//!   and again through the components it composes, and checks both give
//!   the same bytes.
//! * [`wire`] pushes planned GETs through the framer, the router and the
//!   response encoder of an in-process `AppState`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuisine_core::Experiment;
use cuisine_data::CuisineId;
use cuisine_evolution::{
    run_ensemble_map, CuisineEvaluation, CuisineSetup, EnsembleConfig, Evaluation,
    EvaluationConfig, ModelKind, ModelParams, ModelResult,
};
use cuisine_exec::{par_map_indexed, resolve_threads};
use cuisine_lexicon::Lexicon;
use cuisine_mining::{CombinationAnalysis, ItemMode, MineOpts, TransactionSet, TransactionSource};
use cuisine_serve::evolve::handle_evolve;
use cuisine_serve::router::route;
use cuisine_serve::{AppState, EvolveRequest, Frame, FrameReader};
use cuisine_stats::{curve_distance, RankFrequency};
use serde_json::Value;

use crate::gate::Reference;
use crate::plan::{stream, EvolveCall, Rng};

/// Named per-layer values, in report order.
pub type Values = Vec<(&'static str, f64)>;

/// Run `f` and return its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Busy time summed over every thread that did the work.
#[derive(Default)]
struct Busy {
    prep_ns: AtomicU64,
    simulate_ns: AtomicU64,
    encode_ns: AtomicU64,
    mine_ns: AtomicU64,
    aggregate_ns: AtomicU64,
    itemsets: AtomicU64,
    transactions: AtomicU64,
}

fn add(counter: &AtomicU64, elapsed: Duration) {
    counter.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

fn seconds(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64 / 1e9
}

/// Mine one replicate pool the way `evaluate_model_on_cuisine` does,
/// timing the encode and the mine.
fn pool_curve(
    recipes: &[cuisine_data::Recipe],
    lexicon: &Lexicon,
    config: &EvaluationConfig,
    mining: MineOpts,
    busy: &Busy,
) -> RankFrequency {
    let (transactions, encode) =
        timed(|| TransactionSet::from_recipes(recipes.iter(), config.mode, lexicon));
    let (analysis, mine) = timed(|| {
        CombinationAnalysis::mine_opts(&transactions, config.min_support, config.miner, mining)
    });
    let (curve, rank) = timed(|| analysis.rank_frequency());
    add(&busy.encode_ns, Duration::from_secs_f64(encode));
    add(&busy.mine_ns, Duration::from_secs_f64(mine + rank));
    busy.itemsets
        .fetch_add(analysis.len() as u64, Ordering::Relaxed);
    busy.transactions
        .fetch_add(transactions.len() as u64, Ordering::Relaxed);
    curve
}

/// One model on one cuisine, recomposed from `evaluate_model_on_cuisine`:
/// simulation time is the job's wall time minus what the pool closure and
/// the aggregation measured (replicates run sequentially inside a job
/// whenever the job fan-out is parallel).
fn model_on_cuisine(
    model: ModelKind,
    setup: &CuisineSetup,
    empirical: &RankFrequency,
    lexicon: &Lexicon,
    config: &EvaluationConfig,
    busy: &Busy,
) -> ModelResult {
    let started = Instant::now();
    let replicate_mining =
        if resolve_threads(config.ensemble.threads, config.ensemble.replicates) > 1 {
            MineOpts {
                threads: Some(1),
                ..config.mining
            }
        } else {
            config.mining
        };
    let params = ModelParams::paper(model);
    // This job's own pool timings: other jobs add to `busy` concurrently.
    let job = Busy::default();
    let curves = run_ensemble_map(
        model,
        &params,
        setup,
        lexicon,
        &config.ensemble,
        |recipes| pool_curve(&recipes, lexicon, config, replicate_mining, &job),
    );
    let pooled = job.encode_ns.load(Ordering::Relaxed) + job.mine_ns.load(Ordering::Relaxed);
    for (total, part) in [
        (&busy.encode_ns, &job.encode_ns),
        (&busy.mine_ns, &job.mine_ns),
        (&busy.itemsets, &job.itemsets),
        (&busy.transactions, &job.transactions),
    ] {
        total.fetch_add(part.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    let ((curve, distance), aggregate) = timed(|| {
        let curve = RankFrequency::aggregate(&curves);
        let distance = curve_distance(empirical.frequencies(), curve.frequencies(), config.metric);
        (curve, distance)
    });
    add(&busy.aggregate_ns, Duration::from_secs_f64(aggregate));
    let wall = started.elapsed().as_nanos() as u64;
    let simulate = wall.saturating_sub(pooled + (aggregate * 1e9) as u64);
    busy.simulate_ns.fetch_add(simulate, Ordering::Relaxed);
    ModelResult {
        model,
        curve,
        distance,
    }
}

/// `Experiment::fig4_models` recomposed the way `evaluate_with` composes
/// it: per-cuisine prep and empirical mining, then every (cuisine, model)
/// ensemble, on the experiment's own thread count and cache.
fn fig4(experiment: &Experiment, config: &EvaluationConfig, busy: &Busy) -> Evaluation {
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let threads = experiment.config().threads;
    let config = EvaluationConfig {
        miner: experiment.config().miner,
        mining: experiment.config().mining,
        ..config.clone()
    };
    let source = TransactionSource::from(experiment.transaction_cache());
    let all: Vec<CuisineId> = CuisineId::all().collect();
    let stage1_mining = if resolve_threads(threads, all.len()) > 1 {
        MineOpts {
            threads: Some(1),
            ..config.mining
        }
    } else {
        config.mining
    };
    let prep: Vec<(CuisineId, CuisineSetup, RankFrequency)> =
        par_map_indexed(&all, threads, |_, &cuisine| {
            let ((setup, transactions), prep) = timed(|| {
                (
                    CuisineSetup::from_corpus(corpus, cuisine),
                    source.cuisine(corpus, cuisine, config.mode, lexicon),
                )
            });
            add(&busy.prep_ns, Duration::from_secs_f64(prep));
            let setup = setup?;
            let (empirical, mine) = timed(|| {
                let analysis = CombinationAnalysis::mine_opts(
                    &transactions,
                    config.min_support,
                    config.miner,
                    stage1_mining,
                );
                busy.itemsets
                    .fetch_add(analysis.len() as u64, Ordering::Relaxed);
                analysis.rank_frequency()
            });
            add(&busy.mine_ns, Duration::from_secs_f64(mine));
            Some((cuisine, setup, empirical))
        })
        .into_iter()
        .flatten()
        .collect();

    let models = ModelKind::ALL;
    let jobs: Vec<(usize, ModelKind)> = (0..prep.len())
        .flat_map(|ci| models.iter().map(move |&m| (ci, m)))
        .collect();
    let outer = resolve_threads(threads, jobs.len());
    let inner = EvaluationConfig {
        ensemble: EnsembleConfig {
            threads: if outer > 1 {
                Some(1)
            } else {
                config.ensemble.threads
            },
            ..config.ensemble
        },
        mining: if outer > 1 {
            MineOpts {
                threads: Some(1),
                ..config.mining
            }
        } else {
            config.mining
        },
        ..config.clone()
    };
    let mut results = par_map_indexed(&jobs, threads, |_, &(ci, model)| {
        let (_, setup, empirical) = &prep[ci];
        model_on_cuisine(model, setup, empirical, lexicon, &inner, busy)
    });
    let mut results = results.drain(..);
    let cuisines = prep
        .into_iter()
        .map(|(cuisine, _, empirical)| CuisineEvaluation {
            code: cuisine.code().to_string(),
            empirical,
            models: results.by_ref().take(models.len()).collect(),
        })
        .collect();
    Evaluation {
        mode: config.mode,
        cuisines,
    }
}

fn encode<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .unwrap_or_default()
}

/// The traced snapshot build; see the module docs. Returns the values and
/// any body that differs from the reference.
pub fn build(reference: &Reference) -> (Values, Vec<String>) {
    let options = &reference.options;
    let traced = Instant::now();
    let (experiment, synth_s) =
        timed(|| Experiment::synthetic_with(&options.synth_config(), options.pipeline_config()));
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let ((), encode_s) = timed(|| {
        let source = TransactionSource::from(experiment.transaction_cache());
        for cuisine in CuisineId::all() {
            for mode in [ItemMode::Ingredients, ItemMode::Categories] {
                source.cuisine(corpus, cuisine, mode, lexicon);
            }
        }
    });
    let (table1, table1_s) = timed(|| experiment.table1());
    let (fig1, fig1_s) = timed(|| experiment.fig1());
    let (fig2, fig2_s) = timed(|| experiment.fig2());
    let (fig3, fig3_s) =
        timed(|| [ItemMode::Ingredients, ItemMode::Categories].map(|mode| experiment.fig3(mode)));
    let busy = Busy::default();
    let (evaluation, fig4_s) = timed(|| fig4(&experiment, &reference.fig4, &busy));
    let (bodies, serialize_s) = timed(|| {
        let mut bodies = vec![
            ("/table1".to_string(), encode(&table1)),
            ("/fig1".to_string(), encode(&fig1)),
            ("/fig2".to_string(), encode(&fig2)),
        ];
        for ((analysis, matrix), label) in fig3.iter().zip(["ingredient", "category"]) {
            bodies.push((format!("/fig3/{label}"), encode(analysis)));
            bodies.push((format!("/similarity/{label}"), encode(matrix)));
        }
        for cuisine in &evaluation.cuisines {
            bodies.push((format!("/fig4/{}", cuisine.code), encode(cuisine)));
        }
        bodies.push(("/fig4".to_string(), encode(&evaluation)));
        bodies
    });
    let traced_s = traced.elapsed().as_secs_f64();
    let stages_s = synth_s + encode_s + table1_s + fig1_s + fig2_s + fig3_s + fig4_s + serialize_s;

    // The untraced Fig. 4 on the same warm experiment, for the wall-time
    // reference and the recomposition check.
    let (untraced, core_fig4_s) =
        timed(|| experiment.fig4_models(&ModelKind::ALL, &reference.fig4));

    let mut problems = Vec::new();
    if encode(&untraced) != encode(&evaluation) {
        problems.push("trace: recomposed Fig. 4 differs from Experiment::fig4_models".into());
    }
    for (path, body) in &bodies {
        if reference
            .store
            .get(path)
            .is_none_or(|expected| expected.as_slice() != body.as_slice())
        {
            problems.push(format!(
                "trace: traced {path} differs from the reference build"
            ));
        }
    }
    let fig3_itemsets: usize = fig3
        .iter()
        .map(|(analysis, _)| {
            analysis
                .curves
                .iter()
                .map(RankFrequency::len)
                .sum::<usize>()
                + analysis.aggregate.len()
        })
        .sum();
    let values = vec![
        ("synth.generate_s", synth_s),
        ("mining.encode_s", encode_s),
        ("analytics.table1_s", table1_s),
        ("analytics.fig1_s", fig1_s),
        ("analytics.fig2_s", fig2_s),
        ("analytics.fig3_s", fig3_s),
        ("mining.fig3_itemsets", fig3_itemsets as f64),
        ("evolution.fig4_prep_busy_s", seconds(&busy.prep_ns)),
        ("evolution.fig4_simulate_busy_s", seconds(&busy.simulate_ns)),
        (
            "evolution.fig4_aggregate_busy_s",
            seconds(&busy.aggregate_ns),
        ),
        ("mining.fig4_encode_busy_s", seconds(&busy.encode_ns)),
        ("mining.fig4_mine_busy_s", seconds(&busy.mine_ns)),
        (
            "mining.fig4_itemsets",
            busy.itemsets.load(Ordering::Relaxed) as f64,
        ),
        (
            "mining.fig4_transactions",
            busy.transactions.load(Ordering::Relaxed) as f64,
        ),
        ("core.fig4_wall_s", core_fig4_s),
        ("snapshot.serialize_s", serialize_s),
        ("snapshot.bytes", reference.store.total_bytes() as f64),
        ("snapshot.build_s", reference.snapshot_s),
        ("trace.build_coverage", stages_s / traced_s),
        ("trace.overhead", traced_s / reference.build_s - 1.0),
    ];
    (values, problems)
}

/// Run the first `count` planned requests through `handle_evolve`, then
/// through the components it composes; report per-request means.
pub fn evolve(reference: &Reference, plan: &[EvolveCall], count: usize) -> (Values, Vec<String>) {
    let experiment = &reference.experiment;
    let corpus = experiment.corpus();
    let lexicon = experiment.lexicon();
    let mut problems = Vec::new();
    let (mut parse, mut handle, mut empirical_s, mut render) = (0.0, 0.0, 0.0, 0.0);
    let mut itemsets = 0u64;
    let busy = Busy::default();
    let calls = &plan[..count.min(plan.len())];
    for call in calls {
        let (request, parse_s) = timed(|| EvolveRequest::from_json(call.body.as_bytes()));
        parse += parse_s;
        let Ok(request) = request else {
            problems.push(format!("trace: planned body {} does not parse", call.body));
            continue;
        };
        let (response, handle_s) = timed(|| handle_evolve(&request, experiment));
        handle += handle_s;

        let config = EvaluationConfig {
            ensemble: EnsembleConfig {
                replicates: request.replicates,
                seed: request.seed,
                threads: Some(1),
            },
            mode: request.mode,
            miner: experiment.config().miner,
            mining: experiment.config().mining,
            ..Default::default()
        };
        let (prepared, prep_s) = timed(|| {
            let setup = CuisineSetup::from_corpus(corpus, request.cuisine)?;
            let source = TransactionSource::from(experiment.transaction_cache());
            let transactions = source.cuisine(corpus, request.cuisine, request.mode, lexicon);
            let analysis = CombinationAnalysis::mine_opts(
                &transactions,
                config.min_support,
                config.miner,
                config.mining,
            );
            Some((setup, analysis.len(), analysis.rank_frequency()))
        });
        empirical_s += prep_s;
        let Some((setup, empirical_itemsets, empirical)) = prepared else {
            problems.push(format!(
                "trace: cuisine {} has no recipes",
                request.cuisine.code()
            ));
            continue;
        };
        let before = busy.itemsets.load(Ordering::Relaxed);
        let result = model_on_cuisine(request.model, &setup, &empirical, lexicon, &config, &busy);
        itemsets += busy.itemsets.load(Ordering::Relaxed) - before + empirical_itemsets as u64;
        let (body, render_s) = timed(|| {
            let mut doc = serde::Map::new();
            doc.insert("cuisine", Value::String(request.cuisine.code().to_string()));
            doc.insert("model", Value::String(request.model.label().to_string()));
            doc.insert("seed", Value::U64(request.seed));
            doc.insert("replicates", Value::U64(request.replicates as u64));
            doc.insert(
                "mode",
                serde_json::to_value(&request.mode).unwrap_or(Value::Null),
            );
            doc.insert(
                "empirical",
                serde_json::to_value(&empirical).unwrap_or(Value::Null),
            );
            doc.insert(
                "result",
                serde_json::to_value(&result).unwrap_or(Value::Null),
            );
            encode(&Value::Object(doc))
        });
        render += render_s;
        match response {
            Ok(response) if response.body.as_slice() == body.as_slice() => {}
            Ok(_) => problems.push(format!(
                "trace: recomposed /evolve differs for {}",
                call.body
            )),
            Err(e) => problems.push(format!(
                "trace: handle_evolve failed for {}: {e}",
                call.body
            )),
        }
    }
    let n = calls.len().max(1) as f64;
    let components = empirical_s
        + seconds(&busy.simulate_ns)
        + seconds(&busy.encode_ns)
        + seconds(&busy.mine_ns)
        + seconds(&busy.aggregate_ns)
        + render;
    let values = vec![
        ("evolve.handle_ms", handle / n * 1e3),
        ("evolve.parse_us", parse / n * 1e6),
        ("evolve.empirical_ms", empirical_s / n * 1e3),
        ("evolve.simulate_ms", seconds(&busy.simulate_ns) / n * 1e3),
        ("evolve.encode_ms", seconds(&busy.encode_ns) / n * 1e3),
        ("evolve.mine_ms", seconds(&busy.mine_ns) / n * 1e3),
        ("evolve.aggregate_ms", seconds(&busy.aggregate_ns) / n * 1e3),
        ("evolve.render_ms", render / n * 1e3),
        ("evolve.itemsets", itemsets as f64 / n),
        (
            "evolve.coverage",
            if handle > 0.0 {
                components / handle
            } else {
                0.0
            },
        ),
    ];
    (values, problems)
}

/// Push `count` GETs of the `get-artifacts` open-loop sequence through
/// `FrameReader`, `route` and `Response::append_to`; report per-call means.
pub fn wire(reference: &Reference, seed: u64, count: usize) -> (Values, Vec<String>) {
    let state = AppState::with_shared(
        Arc::clone(&reference.experiment),
        Arc::clone(&reference.store),
        128,
    );
    let paths: Vec<&str> = reference.store.paths().collect();
    let mut problems = Vec::new();
    // Warm the response cache, as the live run does before timing.
    let mut framer = FrameReader::new();
    let mut rng = Rng::new(seed, stream::OPEN);
    let (mut frame_s, mut route_s, mut encode_s, mut bytes) = (0.0, 0.0, 0.0, 0usize);
    let mut out = Vec::new();
    for i in 0..paths.len() + count {
        let path = if i < paths.len() {
            paths[i]
        } else {
            paths[rng.below(paths.len())]
        };
        let raw = format!("GET {path} HTTP/1.1\r\nhost: benchmark\r\n\r\n");
        let (frame, f) = timed(|| {
            framer.feed(raw.as_bytes());
            framer.next_frame()
        });
        let Frame::Request(framed) = frame else {
            problems.push(format!("trace: {path} did not frame"));
            break;
        };
        let (response, r) = timed(|| route(&state, &framed.request));
        out.clear();
        let ((), e) = timed(|| response.append_to(&mut out, true));
        let expected = reference.store.get(path);
        if response.status != 200 || expected.is_none_or(|body| *body != *response.body) {
            problems.push(format!("trace: routed {path} differs from the reference"));
        }
        if i >= paths.len() {
            frame_s += f;
            route_s += r;
            encode_s += e;
            bytes += out.len();
        }
    }
    let n = count.max(1) as f64;
    let values = vec![
        ("http.frame_us", frame_s / n * 1e6),
        ("router.route_hit_us", route_s / n * 1e6),
        ("http.encode_us", encode_s / n * 1e6),
        ("http.response_bytes", bytes as f64 / n),
    ];
    (values, problems)
}
