//! The four workloads: which streams run side by side against one fresh
//! server, for how long, and what each reports.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::load::{
    admin_client, evolve_client, json, listing_row, open_loop, pipelined, Bodies, EvolveRecord,
    OpenLoop, Registration, Tally, Until,
};
use crate::plan::{evolve_plan, stream, EvolveCall, Rng};
use crate::stats::{nearest_rank, sorted, windowed_percentile, windowed_rate};

/// Threads (and so connections) any workload drives at once.
pub const LOAD_THREADS: usize = 2;

/// A workload name, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop and capacity GETs of the precomputed artifacts.
    GetArtifacts,
    /// Closed-loop `/evolve` requests that never hit a cache.
    EvolveCold,
    /// Open-loop GETs beside a closed-loop `/evolve` client with repeats.
    Mixed,
    /// Open-loop GETs beside sequential corpus registrations.
    Register,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::GetArtifacts,
        Workload::EvolveCold,
        Workload::Mixed,
        Workload::Register,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GetArtifacts => "get-artifacts",
            Workload::EvolveCold => "evolve-cold",
            Workload::Mixed => "mixed",
            Workload::Register => "register",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile reported as `tail_ms`. GETs: p95, with fifty samples
    /// beyond it in every window. Past p95 a GET is one whose shard thread
    /// or generator thread waited for a core, which on a shared host is the
    /// host more than the program: GET p99 moved by half between runs and
    /// doubled beside a one-core CPU hog, while p95 held within 5%. So this
    /// tail catches a change that delays one GET in twenty, not one that
    /// only now and then takes a core; p99 is still printed in the report
    /// header. `/evolve`: a run completes about 300, and its slowest dozen
    /// (the largest cuisines) sit far above the rest, so p95 lands on either
    /// side of that gap from run to run; p90 has about 30 samples beyond it
    /// and repeats.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::EvolveCold => 0.90,
            _ => 0.95,
        }
    }
}

/// Open-loop tails and lags are taken per window of this many scheduled
/// requests (so the GET p95 has fifty samples beyond it and the lag p99
/// ten), then the median window.
const WINDOW_REQUESTS: f64 = 1000.0;

/// Outstanding requests per connection in the capacity phase: deep enough
/// that the server's event loop never runs out of input and idles.
const CAPACITY_DEPTH: usize = 256;

/// One timed phase, as the generator saw it.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Completed requests.
    pub samples: usize,
    /// p99 of the generator's send lag, in ms (median over windows for an
    /// open loop).
    pub lag_p99_ms: f64,
    /// Whether the phase runs on a schedule (only those can be invalid).
    pub open: bool,
}

impl Phase {
    /// `window_s`: the open loop's window width, `None` for closed loops.
    fn of(name: &'static str, tally: &Tally, window_s: Option<f64>) -> Phase {
        let width = window_s.unwrap_or(f64::INFINITY);
        let lag = windowed_percentile(&tally.lag, width, 0.99) / 1e3;
        Phase {
            name,
            samples: tally.completed(),
            lag_p99_ms: lag,
            open: window_s.is_some(),
        }
    }

    /// An open-loop phase whose generator ran more than 1 ms late at p99
    /// measured the generator, not the server.
    pub fn valid(&self) -> bool {
        !self.open || self.lag_p99_ms <= 1.0
    }
}

/// The `/metrics` counters the benchmark reads, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// `requests_total`.
    pub requests: f64,
    /// `latency.mean_us × requests_total`: summed handler time.
    pub handler_us: f64,
    /// `response_cache.hits`.
    pub lru_hits: f64,
    /// `response_cache.misses`.
    pub lru_misses: f64,
    /// `keepalive_reuses`.
    pub keepalive_reuses: f64,
    /// `coalesced_waiters`.
    pub coalesced_waiters: f64,
    /// `evolve_cache_hits`.
    pub evolve_cache_hits: f64,
    /// `evolve_cache_misses`.
    pub evolve_cache_misses: f64,
    /// `evolve_computations`.
    pub evolve_computations: f64,
    /// `requests_shed`.
    pub shed: f64,
    /// `registry_builds`.
    pub registry_builds: f64,
}

impl Counters {
    /// Read `/metrics` over a short-lived connection.
    pub fn fetch(addr: SocketAddr) -> Result<Counters, String> {
        let doc = get_json(addr, "/metrics")?;
        let fields = doc.as_object().ok_or("/metrics is not an object")?;
        let top = |key: &str| fields.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let nested = |outer: &str, key: &str| {
            fields
                .get(outer)
                .and_then(|v| v.as_object())
                .and_then(|o| o.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let requests = top("requests_total");
        Ok(Counters {
            requests,
            handler_us: nested("latency", "mean_us") * requests,
            lru_hits: nested("response_cache", "hits"),
            lru_misses: nested("response_cache", "misses"),
            keepalive_reuses: top("keepalive_reuses"),
            coalesced_waiters: top("coalesced_waiters"),
            evolve_cache_hits: top("evolve_cache_hits"),
            evolve_cache_misses: top("evolve_cache_misses"),
            evolve_computations: top("evolve_computations"),
            shed: top("requests_shed"),
            registry_builds: top("registry_builds"),
        })
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            handler_us: self.handler_us - before.handler_us,
            lru_hits: self.lru_hits - before.lru_hits,
            lru_misses: self.lru_misses - before.lru_misses,
            keepalive_reuses: self.keepalive_reuses - before.keepalive_reuses,
            coalesced_waiters: self.coalesced_waiters - before.coalesced_waiters,
            evolve_cache_hits: self.evolve_cache_hits - before.evolve_cache_hits,
            evolve_cache_misses: self.evolve_cache_misses - before.evolve_cache_misses,
            evolve_computations: self.evolve_computations - before.evolve_computations,
            shed: self.shed - before.shed,
            registry_builds: self.registry_builds - before.registry_builds,
        }
    }
}

/// Everything one workload run measured and collected for the gate.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Of those: non-2xx, shed, or lost to a transport error.
    pub failed: u64,
    /// Median latency of the workload's headline requests, in ms.
    pub p50_ms: f64,
    /// Tail latency ([`Workload::tail_percentile`]) of the same, in ms.
    pub tail_ms: f64,
    /// `(percentile, ms)` of the same, taken as `tail_ms` is, for the
    /// report header only: the tails kept out of the metrics (see
    /// [`Workload::tail_percentile`]) are still shown.
    pub percentiles: [(f64, f64); 3],
    /// Headline work completed per second.
    pub throughput_rps: f64,
    /// The measured phases.
    pub phases: Vec<Phase>,
    /// Mean ms per request the client waited beyond the server's handler
    /// clock (socket, scheduling, event-loop sleeps).
    pub unaccounted_ms: f64,
    /// Server counters over the measured phases.
    pub counters: Counters,
    /// Artifact paths, in the server's index order.
    pub paths: Vec<String>,
    /// First body per path (plus length checks of the rest).
    pub bodies: Bodies,
    /// The `/evolve` plan the compute clients drew from.
    pub plan: Vec<EvolveCall>,
    /// Every `/evolve` answer.
    pub evolves: Vec<EvolveRecord>,
    /// Corpora registered and retired.
    pub registrations: Vec<Registration>,
    /// The boot corpus's `(build_ms, mining_ms)` from the admin listing.
    pub boot_build_ms: (f64, f64),
}

/// GET `path` on a short-lived connection and parse the body as JSON.
fn get_json(addr: SocketAddr, path: &str) -> Result<serde_json::Value, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("{path}: {e}"))?;
    let reply = conn
        .call("GET", path, b"")
        .map_err(|e| format!("{path}: {e}"))?;
    json(reply.body).ok_or_else(|| format!("{path}: the body is not JSON"))
}

/// The default corpus's `(build_ms, mining_ms)` row of `/admin/corpora`.
fn boot_build_ms(addr: SocketAddr) -> Result<(f64, f64), String> {
    let doc = get_json(addr, "/admin/corpora")?;
    let default = doc
        .as_object()
        .and_then(|o| o.get("default"))
        .and_then(|v| v.as_str());
    default
        .and_then(|key| listing_row(&doc, key))
        .map(|(_, build_ms, mining_ms)| (build_ms, mining_ms))
        .ok_or_else(|| "/admin/corpora has no row for the default corpus".into())
}

/// Read the artifact paths from the index document, then GET each of them
/// `passes` times on one connection, untimed, so the response cache is
/// warm and every first body is captured before measurement starts.
fn warm_up(addr: SocketAddr, passes: usize) -> Result<(Vec<String>, Bodies), String> {
    let doc = get_json(addr, "/")?;
    let paths: Vec<String> = doc
        .as_object()
        .and_then(|o| o.get("endpoints"))
        .and_then(|v| v.as_array())
        .ok_or("warm-up: the index has no endpoints")?
        .iter()
        .filter_map(|v| v.as_str())
        .filter(|p| p.starts_with('/') && !p.contains(['?', ' ']))
        .filter(|p| !matches!(*p, "/healthz" | "/metrics"))
        .map(str::to_string)
        .collect();
    if paths.is_empty() {
        return Err("warm-up: the index lists no artifact paths".into());
    }
    // Untimed and uncounted, so a transport error here (seen once in about
    // a hundred full-scale runs: a reset on the first request to a freshly
    // booted server) is retried on a new connection instead of losing the
    // run.
    let mut conn = Conn::open(addr).map_err(|e| format!("warm-up: {e}"))?;
    let mut bodies = Bodies::new(paths.len());
    for _ in 0..passes {
        for (i, path) in paths.iter().enumerate() {
            let mut retries = 2;
            let reply = loop {
                match conn.call("GET", path, b"") {
                    Ok(reply) => break reply,
                    Err(e) if retries > 0 => {
                        retries -= 1;
                        eprintln!("warm-up {path}: {e}; retrying on a new connection");
                        conn = Conn::open(addr).map_err(|e| format!("warm-up: {e}"))?;
                    }
                    Err(e) => return Err(format!("warm-up {path}: {e}")),
                }
            };
            if reply.status != 200 {
                return Err(format!("warm-up {path}: status {}", reply.status));
            }
            bodies.check(i, reply.body);
        }
    }
    Ok((paths, bodies))
}

/// Join a load thread; a panic becomes one failed request, never a
/// silently empty tally.
fn joined<T: Default>(handle: ScopedJoinHandle<'_, (Tally, T)>) -> (Tally, T) {
    handle.join().unwrap_or_else(|_| {
        eprintln!("load: a load thread panicked");
        (
            Tally {
                attempted: 1,
                failed: 1,
                ..Tally::default()
            },
            T::default(),
        )
    })
}

/// Run `f(connection, bodies)` on [`LOAD_THREADS`] threads (this one
/// included) and merge what they return.
fn per_thread<F>(npaths: usize, f: F) -> (Tally, Bodies)
where
    F: Fn(usize, &mut Bodies) -> Tally + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let helpers: Vec<_> = (1..LOAD_THREADS)
            .map(|c| {
                scope.spawn(move || {
                    let mut bodies = Bodies::new(npaths);
                    (f(c, &mut bodies), bodies)
                })
            })
            .collect();
        let mut bodies = Bodies::new(npaths);
        let mut tally = f(0, &mut bodies);
        for helper in helpers {
            let (other, other_bodies) = joined(helper);
            tally.merge(other);
            bodies.merge(other_bodies);
        }
        (tally, bodies)
    })
}

/// An open-loop GET stream: `rate` requests per second in total, spread
/// over `connections` connections with evenly staggered schedules.
struct GetStream<'a> {
    addr: SocketAddr,
    paths: &'a [String],
    seed: u64,
    rate: f64,
    connections: usize,
}

impl GetStream<'_> {
    fn run(
        &self,
        connection: usize,
        start: Instant,
        until: Until<'_>,
        bodies: &mut Bodies,
    ) -> Tally {
        let interval = Duration::from_secs_f64(self.connections as f64 / self.rate);
        let stagger = interval.mul_f64(connection as f64 / self.connections as f64);
        open_loop(
            OpenLoop {
                addr: self.addr,
                paths: self.paths,
                rng: Rng::new(self.seed, stream::OPEN + connection as u64),
                interval,
                first_due: start + stagger,
                until,
            },
            bodies,
        )
    }
}

impl Outcome {
    fn absorb(&mut self, tally: &Tally) -> f64 {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        tally.latency.iter().map(|&(_, us)| us).sum()
    }

    /// p50 over every headline request; the tail over `window_s`-second
    /// windows (median of the per-window tails) for open loops, over the
    /// whole phase for closed ones.
    fn headline(&mut self, workload: Workload, tally: &Tally, window_s: Option<f64>) {
        let width = window_s.unwrap_or(f64::INFINITY);
        self.p50_ms = nearest_rank(&sorted(tally.latencies_us()), 0.5).unwrap_or(0.0) / 1e3;
        self.tail_ms = windowed_percentile(&tally.latency, width, workload.tail_percentile()) / 1e3;
        self.percentiles =
            [0.9, 0.95, 0.99].map(|p| (p, windowed_percentile(&tally.latency, width, p) / 1e3));
    }
}

/// Completions per second of a tally over its whole wall time.
fn rate(tally: &Tally) -> f64 {
    if tally.elapsed_s > 0.0 {
        tally.completed() as f64 / tally.elapsed_s
    } else {
        0.0
    }
}

/// Run `workload` for `seconds` against the server at `addr`, which
/// serves corpus `corpus_seed`; `seed` drives every request sequence.
pub fn run(
    workload: Workload,
    addr: SocketAddr,
    seed: u64,
    corpus_seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let (paths, bodies) = warm_up(addr, 2)?;
    let npaths = paths.len();
    let mut outcome = Outcome {
        bodies,
        ..Outcome::default()
    };
    let before = Counters::fetch(addr)?;
    let mut client_us = 0.0;
    let lead = Duration::from_millis(5);
    match workload {
        Workload::GetArtifacts => {
            // Half the run at 1,000 req/s over two connections, then half
            // as a closed loop CAPACITY_DEPTH deep on two connections,
            // reported as the median rate over half-second windows.
            let rate_per_s = 1000.0;
            let window = Some(WINDOW_REQUESTS / rate_per_s);
            let gets = GetStream {
                addr,
                paths: &paths,
                seed,
                rate: rate_per_s,
                connections: LOAD_THREADS,
            };
            let start = Instant::now() + lead;
            let end = start + Duration::from_secs_f64(seconds * 0.5);
            let open = per_thread(npaths, |c, bodies| {
                gets.run(c, start, Until::Time(end), bodies)
            });
            let end = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
            let capacity = per_thread(npaths, |c, bodies| {
                let rng = Rng::new(seed, stream::CAPACITY + c as u64);
                pipelined(addr, &paths, rng, CAPACITY_DEPTH, end, bodies)
            });
            outcome.headline(workload, &open.0, window);
            outcome.throughput_rps = windowed_rate(&capacity.0.latency, 0.5);
            outcome.phases = vec![
                Phase::of("open-1000", &open.0, window),
                Phase::of("capacity", &capacity.0, None),
            ];
            for (tally, bodies) in [open, capacity] {
                client_us += outcome.absorb(&tally);
                outcome.bodies.merge(bodies);
            }
        }
        Workload::EvolveCold => {
            // Two closed-loop clients drawing from one plan of unique
            // requests.
            outcome.plan = evolve_plan(
                seed,
                stream::EVOLVE_COLD,
                400 * seconds.ceil() as usize,
                None,
            );
            let next = AtomicUsize::new(0);
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            let plan = &outcome.plan;
            let client = || {
                let mut log = Vec::new();
                (evolve_client(addr, plan, &next, end, 16, &mut log), log)
            };
            let (tally, evolves) = std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..LOAD_THREADS).map(|_| scope.spawn(client)).collect();
                let (mut tally, mut log) = client();
                for helper in helpers {
                    let (other, other_log) = joined(helper);
                    tally.merge(other);
                    log.extend(other_log);
                }
                (tally, log)
            });
            outcome.headline(workload, &tally, None);
            outcome.throughput_rps = rate(&tally);
            outcome.phases = vec![Phase::of("evolve", &tally, None)];
            client_us += outcome.absorb(&tally);
            outcome.evolves = evolves;
        }
        Workload::Mixed | Workload::Register => {
            // One open-loop GET connection at 500 req/s for as long as the
            // other stream runs.
            let rate_per_s = 500.0;
            let window = Some(WINDOW_REQUESTS / rate_per_s);
            let gets = GetStream {
                addr,
                paths: &paths,
                seed,
                rate: rate_per_s,
                connections: 1,
            };
            let stop = AtomicBool::new(false);
            let start = Instant::now() + lead;
            let end = start + Duration::from_secs_f64(seconds);
            if workload == Workload::Mixed {
                outcome.plan = evolve_plan(
                    seed,
                    stream::EVOLVE_MIXED,
                    400 * seconds.ceil() as usize,
                    Some(4),
                );
            }
            let plan = &outcome.plan;
            let ((gets, gets_bodies), other, evolves, registrations) =
                std::thread::scope(|scope| {
                    let helper = scope.spawn(|| {
                        let mut bodies = Bodies::new(npaths);
                        (gets.run(0, start, Until::Flag(&stop), &mut bodies), bodies)
                    });
                    std::thread::sleep(lead);
                    let mut evolves = Vec::new();
                    let mut registrations = Vec::new();
                    let other = if workload == Workload::Mixed {
                        evolve_client(addr, plan, &AtomicUsize::new(0), end, 16, &mut evolves)
                    } else {
                        admin_client(
                            addr,
                            corpus_seed,
                            end,
                            Duration::from_millis(20),
                            &mut registrations,
                        )
                    };
                    stop.store(true, Ordering::SeqCst);
                    (joined(helper), other, evolves, registrations)
                });
            outcome.headline(workload, &gets, window);
            outcome.throughput_rps = if workload == Workload::Mixed {
                rate(&other)
            } else {
                let total: f64 = registrations.iter().map(|r| r.ready_s).sum();
                if total > 0.0 {
                    registrations.len() as f64 / total
                } else {
                    0.0
                }
            };
            let other_name = if workload == Workload::Mixed {
                "evolve"
            } else {
                "admin"
            };
            outcome.phases = vec![
                Phase::of("open-500", &gets, window),
                Phase::of(other_name, &other, None),
            ];
            client_us += outcome.absorb(&gets) + outcome.absorb(&other);
            outcome.bodies.merge(gets_bodies);
            outcome.evolves = evolves;
            outcome.registrations = registrations;
        }
    }
    outcome.counters = Counters::fetch(addr)?.since(&before);
    // The opening /metrics read lands in the server's count after its own
    // snapshot, so the difference holds one request the client did not time.
    let served = (outcome.counters.requests - 1.0).max(1.0);
    outcome.unaccounted_ms = (client_us - outcome.counters.handler_us) / served / 1e3;
    outcome.boot_build_ms = boot_build_ms(addr)?;
    outcome.paths = paths;
    Ok(outcome)
}
