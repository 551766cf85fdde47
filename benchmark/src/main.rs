//! `cuisine-benchmark` — the repository benchmark of the `serve` stack.
//!
//! ```sh
//! bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! For each workload (all four when none is named) it boots the shipped
//! `serve` binary at full scale, drives it from this process with its own
//! HTTP/1.1 load generator, checks every output against an offline
//! in-process build, and prints one `WORKLOAD METRIC VALUE UNIT` line per
//! metric followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics (median setup time of three boots, peak memory,
//! latency and throughput); `--trace 1` reports the per-layer metrics from
//! the server's counters and an in-process trace of the crates. See
//! `benchmark/README.md`.

mod gate;
mod http;
mod load;
mod plan;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

use gate::Reference;
use serve::{ServeProcess, ServeSpec};
use trace::Values;
use workloads::{Outcome, Workload, LOAD_THREADS};

const USAGE: &str = "cuisine-benchmark --serve-bin PATH [--rev REV] [--workload NAME] [--seed N] \
[--seconds N] [--trace 0|1] [--smoke]";

/// The corpus every run serves. The workload seed drives the request
/// sequences; holding the corpus fixed keeps the per-request cost mix the
/// same from seed to seed, so runs at different seeds are comparable.
const CORPUS_SEED: u64 = 11;

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
];

/// Per-layer metrics: `(name, unit, better, end-to-end metric it should
/// move, workload on which it moves it)`.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str, &str); 45] = [
    ("loadgen.lag_p99_ms", "ms", "lower", "tail_ms", "get-artifacts"),
    ("serve.handler_mean_us", "us", "lower", "p50_ms", "get-artifacts"),
    ("server.unaccounted_ms", "ms", "lower", "p50_ms", "get-artifacts"),
    ("lru.hit_ratio", "ratio", "higher", "p50_ms", "get-artifacts"),
    ("keepalive.reuse_ratio", "ratio", "higher", "tail_ms", "get-artifacts"),
    ("evolve.computations", "count", "lower", "throughput_rps", "evolve-cold"),
    ("evolve.coalesced_waiters", "count", "lower", "throughput_rps", "evolve-cold"),
    ("evolve_cache.hit_ratio", "ratio", "higher", "throughput_rps", "mixed"),
    ("registry.build_ms", "ms", "lower", "throughput_rps", "register"),
    ("registry.mining_ms", "ms", "lower", "throughput_rps", "register"),
    ("requests.shed", "count", "lower", "tail_ms", "mixed"),
    ("synth.generate_s", "s", "lower", "setup_s", "get-artifacts"),
    ("mining.encode_s", "s", "lower", "setup_s", "get-artifacts"),
    ("analytics.table1_s", "s", "lower", "setup_s", "get-artifacts"),
    ("analytics.fig1_s", "s", "lower", "setup_s", "get-artifacts"),
    ("analytics.fig2_s", "s", "lower", "setup_s", "get-artifacts"),
    ("analytics.fig3_s", "s", "lower", "setup_s", "get-artifacts"),
    ("mining.fig3_itemsets", "count", "lower", "setup_s", "get-artifacts"),
    ("evolution.fig4_prep_busy_s", "s", "lower", "setup_s", "get-artifacts"),
    ("evolution.fig4_simulate_busy_s", "s", "lower", "setup_s", "get-artifacts"),
    ("evolution.fig4_aggregate_busy_s", "s", "lower", "setup_s", "get-artifacts"),
    ("mining.fig4_encode_busy_s", "s", "lower", "setup_s", "get-artifacts"),
    ("mining.fig4_mine_busy_s", "s", "lower", "setup_s", "get-artifacts"),
    ("mining.fig4_itemsets", "count", "lower", "setup_s", "get-artifacts"),
    ("mining.fig4_transactions", "count", "lower", "setup_s", "get-artifacts"),
    ("core.fig4_wall_s", "s", "lower", "setup_s", "get-artifacts"),
    ("snapshot.serialize_s", "s", "lower", "setup_s", "get-artifacts"),
    ("snapshot.bytes", "bytes", "lower", "setup_s", "get-artifacts"),
    ("snapshot.build_s", "s", "lower", "setup_s", "get-artifacts"),
    ("trace.build_coverage", "ratio", "higher", "setup_s", "get-artifacts"),
    ("trace.overhead", "ratio", "lower", "setup_s", "get-artifacts"),
    ("evolve.handle_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.parse_us", "us", "lower", "p50_ms", "evolve-cold"),
    ("evolve.empirical_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.simulate_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.encode_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.mine_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.aggregate_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.render_ms", "ms", "lower", "p50_ms", "evolve-cold"),
    ("evolve.itemsets", "count", "lower", "p50_ms", "evolve-cold"),
    ("evolve.coverage", "ratio", "higher", "p50_ms", "evolve-cold"),
    ("http.frame_us", "us", "lower", "throughput_rps", "get-artifacts"),
    ("router.route_hit_us", "us", "lower", "throughput_rps", "get-artifacts"),
    ("http.encode_us", "us", "lower", "throughput_rps", "get-artifacts"),
    ("http.response_bytes", "bytes", "lower", "throughput_rps", "get-artifacts"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    serve_bin: PathBuf,
    rev: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        serve_bin: PathBuf::new(),
        rev: "unknown".into(),
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut raw = raw.into_iter();
    while let Some(flag) = raw.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = raw
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes {what}, got {value:?}"))
        };
        match flag.as_str() {
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--rev" => args.rev = value.clone(),
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = number("an integer")?,
            "--seconds" => args.seconds = number("a whole number of seconds")?.max(1) as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if args.serve_bin.as_os_str().is_empty() {
        return Err("--serve-bin is required".into());
    }
    Ok(args)
}

/// Run sizes: the full benchmark, or the fast smoke configuration.
#[derive(Debug, Clone)]
struct Sizes {
    scale: f64,
    replicates: usize,
    seconds: f64,
    /// `serve` boots per timed run (their median is `setup_s`).
    boots: usize,
    /// Requests in the `/evolve` trace.
    evolve_trace: usize,
    /// Requests in the wire trace.
    wire_trace: usize,
}

impl Sizes {
    fn of(args: &Args) -> Sizes {
        if args.smoke {
            Sizes {
                scale: 0.02,
                replicates: 2,
                seconds: 1.0,
                boots: 1,
                evolve_trace: 8,
                wire_trace: 2_000,
            }
        } else {
            Sizes {
                scale: 1.0,
                replicates: 4,
                seconds: args.seconds,
                boots: 3,
                evolve_trace: 96,
                wire_trace: 20_000,
            }
        }
    }
}

/// Per-layer values read from the live run.
fn live_values(outcome: &Outcome) -> Values {
    let c = &outcome.counters;
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let (build_ms, mining_ms) = if outcome.registrations.is_empty() {
        outcome.boot_build_ms
    } else {
        let n = outcome.registrations.len() as f64;
        (
            outcome
                .registrations
                .iter()
                .map(|r| r.build_ms)
                .sum::<f64>()
                / n,
            outcome
                .registrations
                .iter()
                .map(|r| r.mining_ms)
                .sum::<f64>()
                / n,
        )
    };
    vec![
        (
            "loadgen.lag_p99_ms",
            outcome
                .phases
                .iter()
                .map(|p| p.lag_p99_ms)
                .fold(0.0, f64::max),
        ),
        ("serve.handler_mean_us", ratio(c.handler_us, c.requests)),
        ("server.unaccounted_ms", outcome.unaccounted_ms),
        (
            "lru.hit_ratio",
            ratio(c.lru_hits, c.lru_hits + c.lru_misses),
        ),
        (
            "keepalive.reuse_ratio",
            ratio(c.keepalive_reuses, c.requests),
        ),
        ("evolve.computations", c.evolve_computations),
        ("evolve.coalesced_waiters", c.coalesced_waiters),
        (
            "evolve_cache.hit_ratio",
            ratio(
                c.evolve_cache_hits,
                c.evolve_cache_hits + c.evolve_cache_misses,
            ),
        ),
        ("registry.build_ms", build_ms),
        ("registry.mining_ms", mining_ms),
        ("requests.shed", c.shed),
    ]
}

/// Order `values` as `table` lists them; every listed metric must be there.
fn ordered<'a>(
    values: &Values,
    table: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    let by_name: BTreeMap<&str, f64> = values.iter().copied().collect();
    table
        .into_iter()
        .map(|(name, unit)| match by_name.get(name) {
            Some(value) if value.is_finite() => Ok((name, *value, unit)),
            Some(value) => Err(format!("metric {name} is not finite ({value})")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// One workload run: boots, load, gate, report. Returns whether it passed.
fn run_one(
    workload: Workload,
    trace: bool,
    args: &Args,
    sizes: &Sizes,
    nproc: usize,
) -> Result<bool, String> {
    let spec = ServeSpec {
        scale: sizes.scale,
        seed: CORPUS_SEED,
        replicates: sizes.replicates,
    };
    let boots = if trace { 1 } else { sizes.boots };
    println!(
        "# cuisine-benchmark workload={} seed={} seconds={} trace={} rev={} profile={} nproc={nproc} \
         load_threads={LOAD_THREADS} corpus_seed={CORPUS_SEED} scale={} replicates={} boots={boots}",
        workload.name(),
        args.seed,
        sizes.seconds,
        u8::from(trace),
        args.rev,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        sizes.scale,
        sizes.replicates,
    );

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..boots {
        drop(server.take());
        let booted = ServeProcess::boot(&args.serve_bin, &spec)?;
        setups.push(booted.setup_s);
        server = Some(booted);
    }
    let server = server.ok_or("no server booted")?;
    let outcome = workloads::run(workload, server.addr, args.seed, CORPUS_SEED, sizes.seconds)?;
    let peak_rss_mb = server.peak_rss_mib()?;
    drop(server);

    let reference = Reference::build(&spec)?;
    let mut problems = gate::check(workload, &outcome, &reference);
    let metrics = if trace {
        let mut values = live_values(&outcome);
        let evolve_plan = plan::evolve_plan(
            args.seed,
            plan::stream::EVOLVE_COLD,
            sizes.evolve_trace,
            None,
        );
        for (more, more_problems) in [
            trace::build(&reference),
            trace::evolve(&reference, &evolve_plan, sizes.evolve_trace),
            trace::wire(&reference, args.seed, sizes.wire_trace),
        ] {
            values.extend(more);
            problems.extend(more_problems);
        }
        ordered(&values, PER_LAYER.iter().map(|m| (m.0, m.1)))?
    } else {
        let values = vec![
            ("setup_s", stats::median(&setups)),
            ("peak_rss_mb", peak_rss_mb),
            ("p50_ms", outcome.p50_ms),
            ("tail_ms", outcome.tail_ms),
            ("throughput_rps", outcome.throughput_rps),
        ];
        ordered(&values, END_TO_END.iter().map(|m| (m.0, m.1)))?
    };

    println!("# setup_s samples: {setups:?}");
    for phase in &outcome.phases {
        println!(
            "# phase {}: {} completed, generator lag p99 {:.3} ms{}",
            phase.name,
            phase.samples,
            phase.lag_p99_ms,
            if phase.valid() {
                ""
            } else {
                " INVALID (generator lag p99 above 1 ms)"
            }
        );
    }
    println!("# tail_ms is p{:.0}", workload.tail_percentile() * 100.0);
    let percentiles: Vec<String> = outcome
        .percentiles
        .iter()
        .map(|(p, ms)| format!("p{}={ms:.3}", (p * 1000.0).round() / 10.0))
        .collect();
    println!(
        "# headline latency, ms, taken as tail_ms is: {}",
        percentiles.join(" ")
    );
    println!("# artifact_digest={:016x}", reference.artifact_digest());
    for problem in &problems {
        eprintln!("gate: {}: {problem}", workload.name());
    }
    let correct = problems.is_empty() && outcome.failed == 0;
    let mut json = Vec::new();
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", workload.name());
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    Ok(correct)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if LOAD_THREADS > nproc {
        eprintln!("error: the workloads drive {LOAD_THREADS} threads and connections; this host has {nproc} core(s)");
        std::process::exit(1);
    }
    let sizes = Sizes::of(&args);
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let traces = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut passed = true;
    for workload in workloads {
        for &trace in &traces {
            match run_one(workload, trace, &args, &sizes, nproc) {
                Ok(ok) => passed &= ok,
                Err(e) => {
                    eprintln!("error: {}: {e}", workload.name());
                    std::process::exit(1);
                }
            }
        }
    }
    std::process::exit(if passed { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    fn rows<'a>(doc: &'a serde::Map, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
    }

    fn field<'a>(row: &'a Value, key: &str) -> &'a str {
        row.as_object()
            .and_then(|o| o.get(key))
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("row {row:?} lacks {key}"))
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_object().expect("BENCHMARK.json is an object");
        let keys: Vec<&str> = doc.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ],
            "exactly the contract keys"
        );

        let workloads: Vec<&str> = rows(doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let end_to_end = rows(doc, "end_to_end");
        assert!(!end_to_end.is_empty() && end_to_end.len() <= 16);
        for (row, (name, unit, better)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(
                (field(row, "name"), field(row, "unit"), field(row, "better")),
                (name, unit, better)
            );
            let bound = row
                .as_object()
                .and_then(|o| o.get("bound"))
                .and_then(Value::as_f64)
                .unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
        }
        assert_eq!(end_to_end.len(), END_TO_END.len());

        let per_layer = rows(doc, "per_layer");
        assert!(!per_layer.is_empty() && per_layer.len() <= 128);
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, (name, unit, better, moves, on)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(row, "name"), field(row, "unit"), field(row, "better")),
                (name, unit, better)
            );
            assert!(
                END_TO_END.iter().any(|m| m.0 == moves),
                "{name} moves unknown metric {moves}"
            );
            assert!(
                Workload::parse(on).is_some(),
                "{name} names unknown workload {on}"
            );
        }

        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(ours.iter().copied());
        for name in &names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string()));
        let args = parse(&[
            "--serve-bin",
            "x",
            "--workload",
            "mixed",
            "--seed",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (args.workload, args.seed, args.trace),
            (Some(Workload::Mixed), 3, true)
        );
        assert_eq!(args.seconds, 10.0);
        assert!(parse(&["--serve-bin", "x", "--workload", "nope"]).is_err());
        assert!(parse(&["--serve-bin", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "--serve-bin is required");
    }
}
