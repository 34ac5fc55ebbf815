//! `serve_mixed`: a spawned `stacksim serve` daemon (test scale, default
//! fsync'd journal, fresh cache dir) under two closed-loop clients.
//!
//! Each client runs a seeded script of `POST /v1/experiments` →
//! `GET …?wait=1` → `GET …/artifact` cycles of three kinds:
//!
//! * **hits** on the hot set primed during set-up (one key per registered
//!   experiment) — cache load, artifact encode, HTTP;
//! * **misses**: `fig5:<bench>` at test scale with a fresh seed — preflight,
//!   compute, cache store, journal — each re-requested at once, which must
//!   come back as a byte-identical hit;
//! * **long** requests: paper-scale `fig5:sAVDF` with a fresh seed, all
//!   from the first client. Each is its own batch, and the scheduler runs
//!   one batch at a time, so the other client's next hit queues behind it.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{
    preflight, Artifact, ExperimentRequest, MemoCache, Registry, RequestJournal, Sim,
};
use stacksim_rng::StdRng;
use stacksim_workloads::{RmsBenchmark, Scale, WorkloadParams};

use crate::client::{call, Daemon};
use crate::layers::Layers;
use crate::report::Report;
use crate::stats::{classify_status, median, Outcome, Tally};
use crate::{end_to_end, load_budget, ms_since, Args, Op, PROGRAM_JOBS, SETUPS};

/// Share of the timed phase the long requests take on the reference host,
/// and their nominal duration; together they size the long count so that
/// blocked hits outnumber the ten samples beyond the hit tail.
const LONG_SHARE: f64 = 0.85;
const NOMINAL_LONG_S: f64 = 0.62;
/// Nominal duration of one short (hit or miss) cycle per client.
const NOMINAL_SHORT_S: f64 = 0.03;
/// Misses per client and run. Each is followed by its re-hit, so the
/// write path (preflight, compute, cache store, fsync'd journal) gets
/// 2 × 10 = 20 samples per run: the miss median printed beside each run
/// then rests on twenty cycles, not on one slow fsync.
const MISSES_PER_CLIENT: usize = crate::stats::TAIL_BEYOND;
/// The smallest paper-scale Fig. 5 point.
const LONG_BENCH: &str = "sAVDF";

#[derive(Debug, Clone)]
enum Kind {
    /// A hit on the named hot key.
    Hit(String),
    Miss,
    Long,
}

/// One scripted request: its kind and submission body.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    body: String,
    /// Pause before the cycle starts (not part of its latency).
    think: Duration,
}

/// Longest think time before a cycle: one period of the daemon's 10 ms
/// accept poll. Without it the two back-to-back clients lock onto that
/// tick, and a run's median cycle sat at 21 ms or at 30 ms depending on
/// which lock it fell into (a 0.34 spread over ten runs); a seeded pause
/// uniform over one period keeps them from locking.
const THINK_MAX_US: u64 = 10_000;

fn think(rng: &mut StdRng) -> Duration {
    Duration::from_micros(rng.gen_range(0..THINK_MAX_US))
}

/// `count` positions in `0..len`: one at a seeded offset in each of
/// `count` equal segments, so the requests they mark spread over the
/// whole script.
fn spread(rng: &mut StdRng, count: usize, len: usize) -> Vec<usize> {
    let segment = (len / count.max(1)).max(1);
    (0..count)
        .map(|i| i * segment + rng.gen_range(0..segment))
        .collect()
}

/// Share of a script, from its start, over which the long requests are
/// spread. The rest is hits and misses only, so the other client, whose
/// hits the longs block, is still running at the last long.
const LONG_SPAN: f64 = 0.9;

/// Builds one client's script of `shorts` hit-or-miss cycles, with
/// `longs` long requests spread over its first [`LONG_SPAN`] and
/// [`MISSES_PER_CLIENT`] misses spread over all of it.
fn script(rng: &mut StdRng, hot: &[String], longs: usize, shorts: usize) -> Vec<Step> {
    let benches = RmsBenchmark::all();
    let long_span = ((shorts as f64 * LONG_SPAN) as usize).max(1);
    let long_at = spread(rng, longs, long_span);
    let miss_at = spread(rng, MISSES_PER_CLIENT, shorts);
    let long = |rng: &mut StdRng| Step {
        kind: Kind::Long,
        body: format!(
            "{{\"experiment\":\"fig5:{LONG_BENCH}\",\"scale\":\"paper\",\"seed\":{}}}",
            fresh_seed(rng)
        ),
        think: think(rng),
    };
    let mut steps = Vec::with_capacity(longs + shorts);
    for i in 0..shorts {
        for _ in long_at.iter().filter(|at| **at == i) {
            steps.push(long(rng));
        }
        if miss_at.contains(&i) {
            let bench = benches[rng.gen_range(0..benches.len())].name();
            steps.push(Step {
                kind: Kind::Miss,
                body: format!(
                    "{{\"experiment\":\"fig5:{bench}\",\"seed\":{}}}",
                    fresh_seed(rng)
                ),
                think: think(rng),
            });
        } else {
            let name = hot[rng.gen_range(0..hot.len())].clone();
            steps.push(Step {
                body: format!("{{\"experiment\":\"{name}\"}}"),
                kind: Kind::Hit(name),
                think: think(rng),
            });
        }
    }
    for _ in long_at.iter().filter(|at| **at >= shorts) {
        steps.push(long(rng));
    }
    steps
}

/// A seed no primed key uses, so the request is a guaranteed miss.
fn fresh_seed(rng: &mut StdRng) -> u64 {
    rng.gen_range(1_000_000..1_000_000_000_000u64)
}

/// What one request cycle returned, with its per-endpoint times.
struct Cycle {
    submit_ms: f64,
    poll_ms: f64,
    artifact_ms: f64,
    cached: bool,
    bytes: String,
}

/// A submitted request not yet collected.
struct Submitted {
    id: u64,
    submit_ms: f64,
}

/// `POST /v1/experiments`: returns the request's id.
fn submit(addr: &str, body: &str) -> Result<Submitted, Outcome> {
    let t0 = Instant::now();
    let (code, resp) = call(addr, "POST", "/v1/experiments", body).map_err(Outcome::Error)?;
    if code != 200 {
        return Err(classify_status(code, &resp));
    }
    let id = Json::parse(&resp)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or_else(|| Outcome::Error(format!("submit answer without id: {resp}")))?;
    Ok(Submitted {
        id,
        submit_ms: ms_since(t0),
    })
}

/// `GET …?wait=1` then `GET …/artifact` for a submitted request.
fn collect(addr: &str, s: Submitted) -> Result<Cycle, Outcome> {
    let id = s.id;
    let t1 = Instant::now();
    let (code, resp) =
        call(addr, "GET", &format!("/v1/experiments/{id}?wait=1"), "").map_err(Outcome::Error)?;
    if code != 200 {
        return Err(classify_status(code, &resp));
    }
    let doc = Json::parse(&resp).map_err(|e| Outcome::Error(format!("status JSON: {e}")))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(Outcome::Error(format!("request {id} failed: {resp}")));
    }
    let cached = doc
        .get("report")
        .and_then(|r| r.get("cached"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let poll_ms = ms_since(t1);
    let t2 = Instant::now();
    let (code, bytes) =
        call(addr, "GET", &format!("/v1/experiments/{id}/artifact"), "").map_err(Outcome::Error)?;
    if code != 200 {
        return Err(classify_status(code, &bytes));
    }
    Ok(Cycle {
        submit_ms: s.submit_ms,
        poll_ms,
        artifact_ms: ms_since(t2),
        cached,
        bytes,
    })
}

/// Runs one submit → wait → artifact cycle.
fn cycle(addr: &str, body: &str) -> Result<Cycle, Outcome> {
    collect(addr, submit(addr, body)?)
}

fn decodes(bytes: &str) -> bool {
    Artifact::decode(bytes).is_ok()
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    ops: Vec<Op>,
    submit: Vec<f64>,
    poll: Vec<f64>,
    artifact: Vec<f64>,
    /// Latencies of the miss cycles (not their re-hits).
    misses: Vec<f64>,
    cached: u64,
    completed: u64,
    tally: Tally,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.ops.extend(other.ops);
        self.submit.extend(other.submit);
        self.poll.extend(other.poll);
        self.artifact.extend(other.artifact);
        self.misses.extend(other.misses);
        self.cached += other.cached;
        self.completed += other.completed;
        self.tally.absorb(&other.tally);
    }

    /// Records one cycle under the output check `verdict`.
    fn record(&mut self, started: Instant, c: &Cycle, hit: bool, verdict: Outcome) {
        self.ops.push(Op {
            latency_ms: ms_since(started),
            hit,
        });
        self.submit.push(c.submit_ms);
        self.poll.push(c.poll_ms);
        self.artifact.push(c.artifact_ms);
        self.cached += u64::from(c.cached);
        self.completed += 1;
        self.tally.record(&verdict);
    }
}

/// Plays one client's script against the daemon.
///
/// A long request is submitted and left running while the client plays
/// its next step; the long is collected after that step. That step's hit
/// then queues behind the long, like the other client's next hit, so each
/// long blocks two hits rather than one and a run holds about twice as
/// many blocked hits as long requests.
fn play(addr: &str, steps: &[Step], primed: &BTreeMap<String, String>) -> ClientLog {
    let mut log = ClientLog::default();
    let mut long: Option<(Instant, Submitted)> = None;
    for step in steps {
        std::thread::sleep(step.think);
        match &step.kind {
            Kind::Long => {
                finish_long(addr, long.take(), &mut log);
                let started = Instant::now();
                match submit(addr, &step.body) {
                    Ok(s) => long = Some((started, s)),
                    Err(failure) => log.tally.record(&failure),
                }
                continue;
            }
            Kind::Hit(name) => hit(addr, name, &step.body, primed, &mut log),
            Kind::Miss => miss(addr, &step.body, &mut log),
        }
        finish_long(addr, long.take(), &mut log);
    }
    finish_long(addr, long, &mut log);
    log
}

/// Collects a submitted long request and checks its artifact.
fn finish_long(addr: &str, long: Option<(Instant, Submitted)>, log: &mut ClientLog) {
    let Some((started, s)) = long else { return };
    match collect(addr, s) {
        Ok(c) => {
            let verdict = match Artifact::decode(&c.bytes) {
                Ok(Artifact::Fig5Row(_)) => Outcome::Ok,
                _ => Outcome::Wrong("long request artifact is not a fig5 row".to_string()),
            };
            log.record(started, &c, false, verdict);
        }
        Err(failure) => log.tally.record(&failure),
    }
}

/// Plays one hit and checks it against its primed bytes.
fn hit(addr: &str, name: &str, body: &str, primed: &BTreeMap<String, String>, log: &mut ClientLog) {
    let started = Instant::now();
    match cycle(addr, body) {
        Ok(c) => {
            let verdict = if !c.cached {
                Outcome::Wrong(format!("hot key {name} was not a cache hit"))
            } else if primed.get(name) != Some(&c.bytes) {
                Outcome::Wrong(format!("hit on {name} differs from its primed bytes"))
            } else {
                Outcome::Ok
            };
            log.record(started, &c, true, verdict);
        }
        Err(failure) => log.tally.record(&failure),
    }
}

/// Plays one miss, then the same request again, which must come back as
/// a byte-identical hit.
fn miss(addr: &str, body: &str, log: &mut ClientLog) {
    let started = Instant::now();
    let c = match cycle(addr, body) {
        Ok(c) => c,
        Err(failure) => {
            log.tally.record(&failure);
            return;
        }
    };
    let verdict = if c.cached {
        Outcome::Wrong("fresh-seed miss was served from cache".to_string())
    } else if !decodes(&c.bytes) {
        Outcome::Wrong("miss artifact does not decode".to_string())
    } else {
        Outcome::Ok
    };
    log.record(started, &c, false, verdict);
    log.misses.push(ms_since(started));
    let again = Instant::now();
    match cycle(addr, body) {
        Ok(h) => {
            let verdict = if h.cached && h.bytes == c.bytes {
                Outcome::Ok
            } else {
                Outcome::Wrong("re-requested miss is not an identical hit".to_string())
            };
            log.record(again, &h, true, verdict);
        }
        Err(failure) => log.tally.record(&failure),
    }
}

/// The primed hot set: name → (digest, artifact bytes).
type HotSet = BTreeMap<String, (String, String)>;

/// Primes one key per registered experiment on a fresh daemon.
fn prime(addr: &str, names: &[String]) -> Result<HotSet, String> {
    let mut ids = Vec::with_capacity(names.len());
    for name in names {
        let body = format!("{{\"experiment\":\"{name}\"}}");
        let (code, resp) = call(addr, "POST", "/v1/experiments", &body)?;
        let doc = Json::parse(&resp).map_err(|e| format!("prime {name}: {e}"))?;
        let id = doc.get("id").and_then(Json::as_u64);
        let digest = doc.get("digest").and_then(Json::as_str).map(str::to_string);
        match (code, id, digest) {
            (200, Some(id), Some(digest)) => ids.push((name.clone(), id, digest)),
            _ => return Err(format!("priming {name} answered {code}: {resp}")),
        }
    }
    let mut hot = HotSet::new();
    for (name, id, digest) in ids {
        let (code, resp) = call(addr, "GET", &format!("/v1/experiments/{id}?wait=1"), "")?;
        if code != 200 || !resp.contains("\"ok\":true") {
            return Err(format!("priming {name} did not complete: {code} {resp}"));
        }
        let (code, bytes) = call(addr, "GET", &format!("/v1/experiments/{id}/artifact"), "")?;
        if code != 200 || !decodes(&bytes) {
            return Err(format!(
                "primed artifact of {name} does not decode ({code})"
            ));
        }
        hot.insert(name, (digest, bytes));
    }
    Ok(hot)
}

/// Builds every client's script for one pass, sized from `seconds`.
///
/// Only the first client sends long requests, so a long never queues
/// behind another long: each blocks one hit of each client for about one
/// batch time, and the number of blocked hits, among which the hit tail
/// is a fixed rank, does not depend on how the clients interleave.
fn scripts(seed: u64, clients: usize, seconds: f64, hot: &[String]) -> Vec<Vec<Step>> {
    let longs = ((seconds * LONG_SHARE / NOMINAL_LONG_S).round() as usize).max(1);
    let shorts = ((seconds * (1.0 - LONG_SHARE) / NOMINAL_SHORT_S).round() as usize).max(20);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|c| script(&mut rng, hot, if c == 0 { longs } else { 0 }, shorts))
        .collect()
}

/// Plays every client's script concurrently; returns the merged log and
/// the pass's wall time.
fn pass(addr: &str, scripts: &[Vec<Step>], primed: &BTreeMap<String, String>) -> (ClientLog, f64) {
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|steps| s.spawn(move || play(addr, steps, primed)))
            .collect();
        handles
            .into_iter()
            .zip(scripts)
            .map(|(h, steps)| {
                h.join().unwrap_or_else(|_| {
                    // a client that died counts every step it owned as failed
                    let mut log = ClientLog::default();
                    for _ in steps {
                        log.tally
                            .record(&Outcome::Error("client thread panicked".to_string()));
                    }
                    log
                })
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut merged = ClientLog::default();
    for log in logs {
        merged.absorb(log);
    }
    (merged, wall_s)
}

pub fn run(a: &Args, r: &mut Report) -> Result<(), String> {
    let clients = crate::nproc().min(2);
    let pool = clients;
    load_budget(clients, clients, pool)?;
    let names: Vec<String> = Registry::standard()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();

    // Set-up: spawn a daemon on a fresh cache dir and prime the hot set,
    // several times; the last daemon serves the timed phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(Daemon, HotSet)> = None;
    for i in 0..SETUPS {
        if let Some((daemon, _)) = live.take() {
            daemon.stop();
        }
        let cache_dir = a.workdir.join(format!("cache-{i}"));
        let start = Instant::now();
        let daemon = Daemon::spawn(&a.stacksim, &cache_dir, PROGRAM_JOBS, pool)?;
        let hot = prime(&daemon.addr, &names)?;
        setups.push(start.elapsed().as_secs_f64());
        r.check(
            "set-up: every hot key primed and decodes",
            hot.len() == names.len(),
        );
        live = Some((daemon, hot));
    }
    let (daemon, hot) = live.ok_or("no daemon")?;
    let primed: BTreeMap<String, String> = hot
        .iter()
        .map(|(k, (_, b))| (k.clone(), b.clone()))
        .collect();

    let plan = scripts(a.seed, clients, a.seconds, &names);
    let (log, wall_s) = pass(&daemon.addr, &plan, &primed);
    let rss = crate::peak_rss_mb(&daemon.pid().to_string());
    r.tally.absorb(&log.tally);

    if !a.trace {
        daemon.stop();
        end_to_end(r, &setups, rss?, wall_s, &log.ops);
        blocked_summary(&log);
        return Ok(());
    }

    // Traced run: the per-endpoint times and cache flags come from the
    // pass above, which always records them; then in-process probes of
    // the layers a request crosses.
    daemon.stop();
    let untraced_p50 = median(&log.ops.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    let mut l = Layers::default();
    l.set("serve.submit_ms", median(&log.submit), log.submit.len());
    l.set("serve.poll_ms", median(&log.poll), log.poll.len());
    l.set(
        "serve.artifact_ms",
        median(&log.artifact),
        log.artifact.len(),
    );
    l.set(
        "cache.hit_ratio",
        log.cached as f64 / log.completed.max(1) as f64,
        log.completed as usize,
    );
    probe_artifacts(&hot, &mut l, r);
    probe_cache(&a.workdir.join("probe-cache"), &hot, &mut l, r)?;
    probe_preflight(&mut l);
    probe_session(&a.workdir.join("probe-session"), a.seed, &names, &mut l, r)?;
    let parse_us = probe_parse()?;
    l.set("serve.parse_us", parse_us, PARSE_ROUNDS);

    // per hit: three parsed requests, one submit, one cache load (which
    // decodes) and one artifact encode
    let per_hit = 3.0 * parse_us / 1e3
        + l.get("session.submit_ms")
        + l.get("cache.load_ms")
        + l.get("artifact.encode_ms");
    l.set("unattributed_ms", untraced_p50 - per_hit, 1);
    // The client pass is the same in both runs and the probes run after
    // it, so tracing adds nothing to a measured request.
    l.set("obs.overhead_ratio", 1.0, log.ops.len());
    l.emit(r);
    Ok(())
}

/// Prints how many hits waited behind a long batch against the tail's
/// ten-sample share, so the run log shows the tail sits inside the
/// blocked mode, and the miss path's median.
fn blocked_summary(log: &ClientLog) {
    let hits: Vec<f64> = log
        .ops
        .iter()
        .filter(|o| o.hit)
        .map(|o| o.latency_ms)
        .collect();
    if hits.is_empty() {
        return;
    }
    let threshold = 0.3 * NOMINAL_LONG_S * 1e3;
    let blocked = hits.iter().filter(|v| **v > threshold).count();
    println!(
        "hits: {} total, {blocked} blocked behind a long batch (> {threshold:.0} ms), \
         tail share {} samples",
        hits.len(),
        crate::stats::TAIL_BEYOND
    );
    if !log.misses.is_empty() {
        println!(
            "misses: {}, median {:.1} ms",
            log.misses.len(),
            median(&log.misses)
        );
    }
}

/// Mean encode/decode time and size over the hot set's artifacts.
fn probe_artifacts(hot: &HotSet, l: &mut Layers, r: &mut Report) {
    let mut enc = 0.0;
    let mut dec = 0.0;
    let mut bytes = 0usize;
    let mut same = true;
    for (_, text) in hot.values() {
        let start = Instant::now();
        let artifact = Artifact::decode(text);
        dec += ms_since(start);
        if let Ok(artifact) = artifact {
            let start = Instant::now();
            let again = artifact.encode();
            enc += ms_since(start);
            same &= &again == text;
        } else {
            same = false;
        }
        bytes += text.len();
    }
    let n = hot.len();
    r.check("hot artifacts re-encode byte-identically", same);
    l.set("artifact.decode_ms", dec / n as f64, n);
    l.set("artifact.encode_ms", enc / n as f64, n);
    l.set("artifact.kb", bytes as f64 / n as f64 / 1024.0, n);
}

/// Mean store/load time through a sharded cache like the daemon's.
fn probe_cache(dir: &Path, hot: &HotSet, l: &mut Layers, r: &mut Report) -> Result<(), String> {
    let cache = MemoCache::builder().dir(dir).shards(16).build();
    let mut store = 0.0;
    let mut load = 0.0;
    let mut same = true;
    for (name, (digest, text)) in hot {
        let artifact = Artifact::decode(text).map_err(|e| format!("decode {name}: {e}"))?;
        let start = Instant::now();
        cache
            .store(name, digest, &artifact)
            .map_err(|e| format!("store {name}: {e}"))?;
        store += ms_since(start);
        let start = Instant::now();
        let back = cache
            .load(name, digest)
            .map_err(|e| format!("load {name}: {e}"))?;
        load += ms_since(start);
        same &= back.as_ref() == Some(&artifact);
    }
    let n = hot.len();
    r.check("cache probe loads back what it stored", same);
    l.set("cache.store_ms", store / n as f64, n);
    l.set("cache.load_ms", load / n as f64, n);
    Ok(())
}

/// Mean preflight time on the miss path (`fig5:<bench>` at test scale).
fn probe_preflight(l: &mut Layers) {
    let params = WorkloadParams::test();
    let benches = RmsBenchmark::all();
    let mut total = 0.0;
    for bench in benches {
        let start = Instant::now();
        let _ = preflight(&format!("fig5:{}", bench.name()), &params);
        total += ms_since(start);
    }
    l.set(
        "lint.preflight_ms",
        total / benches.len() as f64,
        benches.len(),
    );
}

/// In-process `Sim` with a journal, replaying a small mixed script from
/// two threads: mean `Sim::submit` time, and mean queue wait of hits
/// (`wait` minus the report's run time).
fn probe_session(
    dir: &Path,
    seed: u64,
    names: &[String],
    l: &mut Layers,
    r: &mut Report,
) -> Result<(), String> {
    let journal = RequestJournal::recover(&dir.join("journal").join("requests.jsonl"))
        .map_err(|e| format!("journal: {e}"))?
        .journal;
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .jobs(PROGRAM_JOBS)
        .cache(MemoCache::builder().dir(dir).shards(16).build())
        .preflight(true)
        .journal(Arc::new(journal))
        .build();
    for name in names {
        let ok = sim
            .submit(&ExperimentRequest::new(name))
            .map(|h| h.wait().is_ok())
            .unwrap_or(false);
        r.check(format!("session probe primes {name}"), ok);
    }
    let per_thread_hits = 40;
    // per thread: submit times, hit queue waits, failed submits or waits
    let results: Vec<(Vec<f64>, Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let sim = &sim;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t + 1));
                    let mut submits = Vec::new();
                    let mut waits = Vec::new();
                    let mut failed = 0;
                    for i in 0..per_thread_hits {
                        let long = i % 20 == 10 + t as usize * 5;
                        let request = if long {
                            ExperimentRequest::new(format!("fig5:{LONG_BENCH}"))
                                .scale(Scale::Paper)
                                .seed(fresh_seed(&mut rng))
                        } else {
                            ExperimentRequest::new(&names[rng.gen_range(0..names.len())])
                        };
                        let start = Instant::now();
                        let Ok(handle) = sim.submit(&request) else {
                            failed += 1;
                            continue;
                        };
                        submits.push(ms_since(start));
                        let start = Instant::now();
                        let outcome = handle.wait();
                        let waited = ms_since(start);
                        if !outcome.is_ok() {
                            failed += 1;
                        } else if !long {
                            waits.push((waited - outcome.report.wall_s * 1e3).max(0.0));
                        }
                    }
                    (submits, waits, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or((Vec::new(), Vec::new(), per_thread_hits))
            })
            .collect()
    });
    sim.shutdown();
    let submits: Vec<f64> = results
        .iter()
        .flat_map(|(s, _, _)| s.iter().copied())
        .collect();
    let waits: Vec<f64> = results
        .iter()
        .flat_map(|(_, w, _)| w.iter().copied())
        .collect();
    let failed: usize = results.iter().map(|(_, _, f)| f).sum();
    r.check(
        format!("session probe: every submit and wait succeeded ({failed} failed)"),
        failed == 0,
    );
    if submits.is_empty() || waits.is_empty() {
        return Err("session probe completed no requests".to_string());
    }
    l.set(
        "session.submit_ms",
        submits.iter().sum::<f64>() / submits.len() as f64,
        submits.len(),
    );
    l.set(
        "session.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len() as f64,
        waits.len(),
    );
    Ok(())
}

const PARSE_ROUNDS: usize = 200;

/// Median `http::read_request` time, in µs, for a request already sitting
/// in a loopback socket's buffer.
fn probe_parse() -> Result<f64, String> {
    use std::io::Write;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let body = "{\"experiment\":\"fig5:gauss\",\"seed\":12345}";
    let request = format!(
        "POST /v1/experiments HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut samples = Vec::with_capacity(PARSE_ROUNDS);
    for _ in 0..PARSE_ROUNDS {
        let mut client = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let (mut server, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let start = Instant::now();
        let parsed = stacksim_serve::http::read_request(&mut server, Duration::from_secs(5));
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        match parsed {
            Ok(req) if req.body == body => {}
            other => return Err(format!("parse probe got {other:?}")),
        }
    }
    Ok(median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> Vec<String> {
        vec!["fig3".to_string(), "table4".to_string()]
    }

    #[test]
    fn spread_puts_one_position_in_each_segment() {
        let mut rng = StdRng::seed_from_u64(7);
        for (count, len) in [(10, 100), (10, 20), (13, 100), (1, 5)] {
            let at = spread(&mut rng, count, len);
            let segment = len / count;
            assert_eq!(at.len(), count);
            for (i, p) in at.iter().enumerate() {
                assert!(
                    *p >= i * segment && *p < (i + 1) * segment,
                    "{count}/{len}: {at:?}"
                );
            }
        }
    }

    #[test]
    fn a_script_has_its_misses_and_longs_and_repeats_per_seed() {
        let kinds = |steps: &[Step]| {
            let count = |f: fn(&Kind) -> bool| steps.iter().filter(|s| f(&s.kind)).count();
            (
                count(|k| matches!(k, Kind::Hit(_))),
                count(|k| matches!(k, Kind::Miss)),
                count(|k| matches!(k, Kind::Long)),
            )
        };
        let a = script(&mut StdRng::seed_from_u64(3), &hot(), 13, 100);
        assert_eq!(kinds(&a), (100 - MISSES_PER_CLIENT, MISSES_PER_CLIENT, 13));
        let b = script(&mut StdRng::seed_from_u64(3), &hot(), 13, 100);
        let bodies = |s: &[Step]| s.iter().map(|x| x.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        let c = script(&mut StdRng::seed_from_u64(4), &hot(), 13, 100);
        assert_ne!(bodies(&a), bodies(&c));
    }

    #[test]
    fn only_the_first_client_sends_longs_each_followed_by_a_short() {
        let plan = scripts(9, 2, 20.0, &hot());
        let longs = |s: &[Step]| s.iter().filter(|x| matches!(x.kind, Kind::Long)).count();
        assert_eq!(
            longs(&plan[0]),
            (20.0 * LONG_SHARE / NOMINAL_LONG_S).round() as usize
        );
        assert_eq!(longs(&plan[1]), 0);
        // the step after each long is the hit or miss pipelined behind it,
        // and the script ends in hits and misses only
        let steps = &plan[0];
        for (i, step) in steps.iter().enumerate() {
            if matches!(step.kind, Kind::Long) {
                assert!(!matches!(steps[i + 1].kind, Kind::Long), "step {i}");
            }
        }
        let tail = steps.len() - (steps.len() as f64 * (1.0 - LONG_SPAN) * 0.5) as usize;
        assert!(steps[tail..].iter().all(|x| !matches!(x.kind, Kind::Long)));
    }
}
