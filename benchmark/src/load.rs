//! Load generators, one connection per call and one call per thread.
//!
//! * [`open_loop`] sends GETs on a fixed schedule whatever the server does
//!   (independent users), pipelining when it falls behind. Between sends
//!   it blocks in `read` with the socket timeout set to the time left
//!   until the next send: it never busy-polls, and it never waits on the
//!   server to send, so a server stall charges every request sent during
//!   it. Each request is timed from the moment it was written; how late
//!   the generator itself wrote it (behind schedule) is recorded apart.
//! * [`pipelined`] keeps a fixed number of GETs outstanding (a closed loop
//!   at depth N) and counts completions: the capacity phase.
//! * [`evolve_client`] and [`admin_client`] are closed loops of one
//!   request at a time, as a caller waiting on each reply.
//!
//! Every generator records how late it sent: behind schedule for the open
//! loop, after the completion that freed the slot for closed loops.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::http::{Conn, IO_TIMEOUT};
use crate::plan::{EvolveCall, Rng};
use crate::stats::{fnv1a, FNV_OFFSET};

fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Seconds since a process-wide epoch, so completions recorded on
/// different threads share one clock.
fn clock_s(at: Instant) -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_secs_f64()
}

/// Outcomes and timings of one phase, merged over its connections.
/// Timed samples are `(seconds on a shared clock, µs)` pairs, so they can
/// be cut into windows of wall time.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Non-2xx answers, shed requests and transport errors.
    pub failed: u64,
    /// Per completed request: (completion time, µs since it was written).
    pub latency: Vec<(f64, f64)>,
    /// Per sent request: (send time, µs the generator sent it late).
    pub lag: Vec<(f64, f64)>,
    /// Longest connection wall time, in seconds.
    pub elapsed_s: f64,
}

impl Tally {
    /// Fold another connection's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency.extend(other.latency);
        self.lag.extend(other.lag);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.latency.len()
    }

    /// Latencies in µs, without their timestamps.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.latency.iter().map(|&(_, us)| us).collect()
    }

    fn transport_error(&mut self, lost: usize, error: std::io::Error) {
        self.failed += lost as u64;
        eprintln!("load: {lost} request(s) lost: {error}");
    }

    fn sent(&mut self, at: Instant, due: Instant) {
        self.lag.push((clock_s(at), us(at - due)));
    }

    fn answer(&mut self, status: u16, sent: Instant, done: Instant) {
        if !(200..300).contains(&status) {
            self.failed += 1;
        }
        self.latency.push((clock_s(done), us(done - sent)));
    }
}

/// Open a connection, or count one lost request and return `None`.
fn connect(addr: SocketAddr, tally: &mut Tally) -> Option<Conn> {
    match Conn::open(addr) {
        Ok(conn) => Some(conn),
        Err(error) => {
            tally.attempted += 1;
            tally.transport_error(1, error);
            None
        }
    }
}

/// The first body served for every artifact path, and a length check of
/// every later one (bodies are byte-compared after timing ends).
#[derive(Debug, Clone, Default)]
pub struct Bodies {
    /// `first[i]`: first `200` body of path `i`.
    pub first: Vec<Option<Vec<u8>>>,
    /// Later bodies whose length differed from the first.
    pub mismatches: u64,
}

impl Bodies {
    /// Empty record over `paths` artifact paths.
    pub fn new(paths: usize) -> Self {
        Bodies {
            first: vec![None; paths],
            mismatches: 0,
        }
    }

    /// Record the first body of `path`, or length-check a later one.
    pub fn check(&mut self, path: usize, body: &[u8]) {
        match &self.first[path] {
            None => self.first[path] = Some(body.to_vec()),
            Some(first) if first.len() == body.len() => {}
            Some(_) => self.mismatches += 1,
        }
    }

    /// Fold in another connection's record; two different first bodies
    /// for one path count as a mismatch.
    pub fn merge(&mut self, other: Bodies) {
        self.mismatches += other.mismatches;
        for (mine, theirs) in self.first.iter_mut().zip(other.first) {
            match (mine.as_ref(), theirs) {
                (None, theirs) => *mine = theirs,
                (Some(a), Some(b)) if *a != b => self.mismatches += 1,
                _ => {}
            }
        }
    }
}

/// When an open loop stops sending.
#[derive(Clone, Copy)]
pub enum Until<'a> {
    /// At this instant.
    Time(Instant),
    /// When another stream raises this flag.
    Flag(&'a AtomicBool),
}

impl Until<'_> {
    fn reached(&self, now: Instant) -> bool {
        match self {
            Until::Time(end) => now >= *end,
            Until::Flag(flag) => flag.load(Ordering::SeqCst),
        }
    }
}

/// One open-loop GET connection.
pub struct OpenLoop<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Artifact paths to draw from.
    pub paths: &'a [String],
    /// Seeded path order.
    pub rng: Rng,
    /// Time between scheduled sends on this connection.
    pub interval: Duration,
    /// When the first request is due.
    pub first_due: Instant,
    /// When to stop sending (outstanding replies are still awaited).
    pub until: Until<'a>,
}

/// Run one open-loop connection; see the module docs.
pub fn open_loop(mut spec: OpenLoop<'_>, bodies: &mut Bodies) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let Some(mut conn) = connect(spec.addr, &mut tally) else {
        return tally;
    };
    let interval_ns = spec.interval.as_nanos().max(1) as u64;
    let due_at = |n: u64| spec.first_due + Duration::from_nanos(interval_ns.saturating_mul(n));
    let mut inflight: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut sent = 0u64;
    let mut stopping = false;
    loop {
        let now = Instant::now();
        stopping = stopping || spec.until.reached(now);
        while !stopping && due_at(sent) <= now {
            let due = due_at(sent);
            let path = spec.rng.below(spec.paths.len());
            tally.attempted += 1;
            if let Err(error) = conn.send("GET", &spec.paths[path], b"") {
                tally.transport_error(inflight.len() + 1, error);
                tally.elapsed_s = started.elapsed().as_secs_f64();
                return tally;
            }
            let at = Instant::now();
            tally.sent(at, due);
            inflight.push_back((at, path));
            sent += 1;
        }
        if stopping && inflight.is_empty() {
            break;
        }
        let wait = if stopping {
            IO_TIMEOUT
        } else {
            due_at(sent).saturating_duration_since(Instant::now())
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match conn.recv_within(wait) {
            Ok(Some(reply)) => {
                let done = Instant::now();
                if let Some((at, path)) = inflight.pop_front() {
                    tally.answer(reply.status, at, done);
                    if reply.status == 200 {
                        bodies.check(path, reply.body);
                    }
                }
            }
            Ok(None) if stopping => {
                let error = std::io::Error::new(std::io::ErrorKind::TimedOut, "reply overdue");
                tally.transport_error(inflight.len(), error);
                break;
            }
            Ok(None) => {}
            Err(error) => {
                tally.transport_error(inflight.len(), error);
                break;
            }
        }
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    tally
}

/// A closed loop of GETs kept `depth` deep on one connection until `end`;
/// the remaining replies are drained before returning.
pub fn pipelined(
    addr: SocketAddr,
    paths: &[String],
    mut rng: Rng,
    depth: usize,
    end: Instant,
    bodies: &mut Bodies,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let Some(mut conn) = connect(addr, &mut tally) else {
        return tally;
    };
    let mut inflight: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut freed = started;
    loop {
        while inflight.len() < depth && Instant::now() < end {
            let path = rng.below(paths.len());
            tally.attempted += 1;
            if let Err(error) = conn.send("GET", &paths[path], b"") {
                tally.transport_error(inflight.len() + 1, error);
                return tally;
            }
            let at = Instant::now();
            tally.sent(at, freed);
            inflight.push_back((at, path));
        }
        let Some((at, path)) = inflight.pop_front() else {
            break;
        };
        match conn.recv() {
            Ok(reply) => {
                let done = Instant::now();
                tally.answer(reply.status, at, done);
                if reply.status == 200 {
                    bodies.check(path, reply.body);
                }
                freed = done;
            }
            Err(error) => {
                tally.transport_error(inflight.len() + 1, error);
                break;
            }
        }
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    tally
}

/// One `/evolve` answer.
#[derive(Debug, Clone)]
pub struct EvolveRecord {
    /// Index into the plan.
    pub index: usize,
    /// Status code.
    pub status: u16,
    /// FNV-1a digest of the body.
    pub digest: u64,
    /// The body itself, for requests the gate recomputes.
    pub body: Option<Vec<u8>>,
}

/// A closed-loop `/evolve` client: takes the next plan index from `next`
/// until `end` (or the plan runs out) and keeps the bodies of every
/// `keep_every`-th request.
pub fn evolve_client(
    addr: SocketAddr,
    plan: &[EvolveCall],
    next: &AtomicUsize,
    end: Instant,
    keep_every: usize,
    log: &mut Vec<EvolveRecord>,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let Some(mut conn) = connect(addr, &mut tally) else {
        return tally;
    };
    let mut freed = started;
    while Instant::now() < end {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(call) = plan.get(index) else {
            break;
        };
        tally.attempted += 1;
        let at = Instant::now();
        tally.sent(at, freed);
        match conn.call("POST", "/evolve", call.body.as_bytes()) {
            Ok(reply) => {
                let done = Instant::now();
                tally.answer(reply.status, at, done);
                log.push(EvolveRecord {
                    index,
                    status: reply.status,
                    digest: fnv1a(FNV_OFFSET, reply.body),
                    body: index
                        .is_multiple_of(keep_every.max(1))
                        .then(|| reply.body.to_vec()),
                });
                freed = done;
            }
            Err(error) => {
                tally.transport_error(1, error);
                break;
            }
        }
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    tally
}

/// One corpus registered and retired by the admin client.
#[derive(Debug, Clone)]
pub struct Registration {
    /// Seconds from the `POST` to the first listing that shows it ready.
    pub ready_s: f64,
    /// The registry's own build wall time for it.
    pub build_ms: f64,
    /// The mining part of that build.
    pub mining_ms: f64,
}

/// Parse a response body as JSON.
pub fn json(body: &[u8]) -> Option<serde_json::Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// The `/admin/corpora` row for `key`, as `(state, build_ms, mining_ms)`.
pub fn listing_row(doc: &serde_json::Value, key: &str) -> Option<(String, f64, f64)> {
    let row = doc
        .as_object()?
        .get("corpora")?
        .as_array()?
        .iter()
        .find_map(|row| {
            let row = row.as_object()?;
            (row.get("key")?.as_str()? == key).then_some(row)
        })?;
    Some((
        row.get("state")?.as_str()?.to_string(),
        row.get("build_ms")?.as_f64()?,
        row.get("mining_ms")?.as_f64()?,
    ))
}

/// Register corpora `{"seed": base_seed + i}` for i = 1, 2, … one at a
/// time until `end`: poll the listing every `poll` until each is ready,
/// then retire it. The first registration always runs.
pub fn admin_client(
    addr: SocketAddr,
    base_seed: u64,
    end: Instant,
    poll: Duration,
    done: &mut Vec<Registration>,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let Some(mut conn) = connect(addr, &mut tally) else {
        return tally;
    };
    let mut call = |tally: &mut Tally, method: &str, path: &str, body: &[u8]| {
        tally.attempted += 1;
        let at = Instant::now();
        match conn.call(method, path, body) {
            Ok(reply) => {
                tally.answer(reply.status, at, Instant::now());
                Ok((reply.status, reply.body.to_vec()))
            }
            Err(error) => {
                tally.transport_error(1, error);
                Err(())
            }
        }
    };
    for i in 1u64.. {
        if i > 1 && Instant::now() >= end {
            break;
        }
        let body = format!(r#"{{"seed":{}}}"#, base_seed + i);
        let posted = Instant::now();
        let Ok((202, accepted)) = call(&mut tally, "POST", "/admin/corpora", body.as_bytes())
        else {
            break;
        };
        let Some(key) = json(&accepted)
            .and_then(|doc| Some(doc.as_object()?.get("key")?.as_str()?.to_string()))
        else {
            tally.failed += 1;
            break;
        };
        let ready = loop {
            std::thread::sleep(poll);
            let Ok((200, listing)) = call(&mut tally, "GET", "/admin/corpora", b"") else {
                break None;
            };
            match json(&listing).and_then(|doc| listing_row(&doc, &key)) {
                Some((state, build_ms, mining_ms)) if state == "ready" => {
                    break Some(Registration {
                        ready_s: posted.elapsed().as_secs_f64(),
                        build_ms,
                        mining_ms,
                    });
                }
                Some((state, ..)) if state == "building" => {}
                _ => {
                    tally.failed += 1;
                    break None;
                }
            }
        };
        let Some(ready) = ready else {
            break;
        };
        done.push(ready);
        if !matches!(
            call(&mut tally, "DELETE", &format!("/admin/corpora/{key}"), b""),
            Ok((200, _))
        ) {
            break;
        }
    }
    tally.elapsed_s = started.elapsed().as_secs_f64();
    tally
}
