//! # stacksim-serve
//!
//! The `stacksim serve` daemon: a thin HTTP/JSON layer over the
//! embeddable [`Sim`] session API (`stacksim_core::harness`). The server
//! owns one long-lived `Sim` — one warm memo cache, one registry, one
//! resilience policy — and translates requests onto it; everything
//! interesting (dedup, scheduling, memoization, fault opt-in) happens in
//! the session, so embedded and served callers behave identically and
//! artifacts are bit-identical across both paths.
//!
//! ## Endpoints
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness: `{"status":"ok"}` |
//! | `GET /metrics` | the `stacksim-obs/1` metrics snapshot |
//! | `POST /v1/experiments` | submit; body `{"experiment":"fig3", ...}` |
//! | `GET /v1/experiments/<id>` | status + report; `?wait=1` long-polls (bounded; `202` on timeout) |
//! | `GET /v1/experiments/<id>/artifact` | the artifact's canonical JSON, verbatim |
//! | `POST /v1/explore` | synchronous design-space search; returns the frontier artifact |
//!
//! Submission bodies accept the same parameter overrides as
//! [`ExperimentRequest`]: `seed`, `scale` (`"test"`/`"paper"`),
//! `threads`, `chunk`, `faults` (opt this request
//! into the server's armed fault plan), and `deadline_ms` (a
//! per-request execution deadline, tightened against the server's
//! resilience policy). Identical in-flight submissions deduplicate onto
//! one execution and return the same `id`.
//!
//! ## Overload protection and crash recovery
//!
//! With `--max-pending` the session sheds submissions beyond the bound
//! with `503 + Retry-After`; with `--max-conns` excess concurrent
//! connections are turned away at accept with `429`. During the SIGTERM
//! drain the socket keeps answering — late clients get an immediate
//! `503 + Retry-After` instead of a hung connect. When a journal is
//! configured, every accepted request is durably appended before the
//! submit response and replayed at boot after a crash; the memo cache
//! makes replay idempotent, so recovered artifacts are bit-identical.
//!
//! `POST /v1/explore` accepts `{"spec": {..}, "mode": "grid", "budget":
//! N, "seed": N}` (every field optional) and runs the search in a
//! short-lived session sharing the server's memo cache, parameters and
//! job count — so repeated or overlapping explorations are served from
//! the same cache entries as everything else. The response is the
//! canonical `stacksim-explore/1` artifact.
//!
//! The accept loop runs on the caller's thread ([`Server::run`]) and
//! starts one thread per accepted connection, at most `max_conns` at a
//! time, so a long-poll never queues another client behind it. It
//! drains gracefully on the same loop: when the shutdown flag flips,
//! every new connection is answered `503`, in-flight connections finish,
//! the session completes everything already submitted, and `run`
//! returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::resilience::SITE_SERVE_ACCEPT;
use stacksim_core::harness::{
    obs as harness_obs, ExperimentRequest, MemoCache, RequestHandle, RequestJournal, RequestStatus,
    Resilience, Sim,
};
use stacksim_explore::{ExploreConfig, ExploreError, SearchMode, SpaceSpec};
use stacksim_faults::{Fault, FaultPlan};
use stacksim_workloads::WorkloadParams;

use http::{error_response, read_request, reject, respond, Request};

/// Longest bounded long-poll `GET /v1/experiments/<id>?wait=1` honours.
const MAX_WAIT_MS: u64 = 30_000;

/// How the daemon is configured; see field docs. `Default` gives a
/// loopback server at paper scale with a disabled cache.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` picks a free one
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Base workload parameters requests resolve overrides against.
    pub params: WorkloadParams,
    /// The session's executor worker threads; `0` means one per CPU.
    pub jobs: usize,
    /// The shared memo cache.
    pub cache: MemoCache,
    /// The failure-handling policy.
    pub resilience: Resilience,
    /// The fault plan requests may opt into with `"faults": true`. The
    /// same plan is in scope for the daemon's whole lifetime on the
    /// accept loop, the connection threads and the journal, so rules on
    /// the network sites (`serve.*` / `session.*`) are per-daemon chaos,
    /// not per-request.
    pub fault_plan: Option<FaultPlan>,
    /// Admission bound: queued+running experiment requests beyond this
    /// are shed with `503 + Retry-After`. `0` admits everything.
    pub max_pending: usize,
    /// Concurrent-connection cap, and so the bound on connection
    /// threads: connections beyond this are rejected at accept with
    /// `429 + Retry-After`. Must be at least 1; defaults to 64.
    pub max_conns: usize,
    /// Per-socket I/O timeout, doubling as the whole-request read
    /// deadline (the slowloris bound).
    pub io_timeout: Duration,
    /// Journal accepted requests here (`stacksim-journal/1`) and replay
    /// unfinished ones at boot. `None` disables crash recovery.
    pub journal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            params: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            resilience: Resilience::default(),
            fault_plan: None,
            max_pending: 0,
            max_conns: 64,
            io_timeout: http::DEFAULT_IO_TIMEOUT,
            journal: None,
        }
    }
}

/// Requests the daemon has accepted, by id, shared across connection
/// threads. A `BTreeMap` keeps iteration order deterministic.
type RequestMap = Arc<Mutex<BTreeMap<u64, RequestHandle>>>;

/// A bound (but not yet serving) daemon. Call [`Server::run`] to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    sim: Arc<Sim>,
    requests: RequestMap,
    max_conns: usize,
    io_timeout: Duration,
}

/// One live connection's place in the `max_conns` count. The connection
/// thread owns it, so every way out of that thread, a panic included,
/// frees the place.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Longest the accept loop spends draining one rejected connection.
const REJECT_DRAIN: Duration = Duration::from_millis(250);

/// Answers a connection that is turned away *before* its request was
/// read (the 429 cap and the drain): writes the rejection, half-closes,
/// then drains whatever the client had already sent — closing with
/// unread bytes queued would RST the response away. This runs on the
/// accept loop, so the drain stops at [`REJECT_DRAIN`] in total: a
/// client trickling bytes cannot hold the loop.
fn reject_conn(stream: &mut TcpStream, status: u16, detail: &str) {
    error_response(stream, status, detail);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + REJECT_DRAIN;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        if !matches!(std::io::Read::read(stream, &mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

impl Server {
    /// Binds the listen socket, builds the [`Sim`] session, enables the
    /// process metrics registry (the `/metrics` source), and — when a
    /// journal is configured — recovers it and resubmits every
    /// accepted-but-unfinished request (idempotent through the memo
    /// cache; counted in `journal.replayed`).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when `max_conns` is 0, the address cannot be
    /// bound or the journal cannot be recovered.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        if options.max_conns == 0 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "max_conns must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        stacksim_obs::enable();
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(0.0);
        let (journal, unfinished) = match &options.journal {
            Some(path) => {
                let recovery = RequestJournal::recover(path).map_err(std::io::Error::other)?;
                (Some(Arc::new(recovery.journal)), recovery.unfinished)
            }
            None => (None, Vec::new()),
        };
        let sim = Sim::builder()
            .params(options.params)
            .jobs(options.jobs)
            .cache(options.cache)
            .resilience(options.resilience)
            .fault_plan(options.fault_plan)
            .max_pending((options.max_pending > 0).then_some(options.max_pending))
            .journal(journal.clone())
            .build();
        let server = Server {
            listener,
            sim: Arc::new(sim),
            requests: Arc::new(Mutex::new(BTreeMap::new())),
            max_conns: options.max_conns,
            io_timeout: options.io_timeout,
        };
        stacksim_faults::scope(server.sim.faults(), || server.replay(unfinished));
        if let Some(journal) = &journal {
            // every unfinished entry is re-appended under a fresh id by
            // now, so the recovery side file has served its purpose
            let _ = journal.discard_replay();
        }
        Ok(server)
    }

    /// Resubmits journal-recovered requests. Admission control applies
    /// to live traffic, not recovery: a shed resubmission is retried
    /// until the session's workers make room.
    fn replay(&self, unfinished: Vec<ExperimentRequest>) {
        for request in unfinished {
            loop {
                match self.sim.submit(&request) {
                    Ok(handle) => {
                        self.requests
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(handle.id(), handle);
                        stacksim_obs::counter(harness_obs::JOURNAL_REPLAYED).add(1);
                        break;
                    }
                    Err(e) if e.kind() == "overloaded" => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    // an entry from an older registry (or a corrupted
                    // request) cannot replay; recovery must not wedge boot
                    Err(_) => break,
                }
            }
        }
    }

    /// The bound address (the real port when `addr` asked for `:0`).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the socket has no local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying session, for embedding tests and in-process
    /// clients.
    pub fn sim(&self) -> &Arc<Sim> {
        &self.sim
    }

    /// Serves until `shutdown` flips to `true`, then drains: new
    /// connections are answered `503 + Retry-After` until every
    /// connection thread has finished and every submitted experiment has
    /// run, and then the session shuts down.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on a non-transient accept failure.
    pub fn run(self, shutdown: &AtomicBool) -> std::io::Result<()> {
        let live = Arc::new(AtomicUsize::new(0));
        stacksim_faults::scope(self.sim.faults(), || -> std::io::Result<()> {
            while !shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((mut stream, _)) => {
                        // the connection never happened, as far as the
                        // client can tell: dropped without a response
                        if let Some(Fault::IoTransient | Fault::Truncate) =
                            stacksim_faults::check(SITE_SERVE_ACCEPT, "conn")
                        {
                            continue;
                        }
                        if live.load(Ordering::SeqCst) >= self.max_conns {
                            stacksim_obs::counter(harness_obs::SERVE_CONNS_REJECTED).add(1);
                            reject_conn(&mut stream, 429, "too many connections");
                            continue;
                        }
                        live.fetch_add(1, Ordering::SeqCst);
                        self.spawn_connection(stream, ConnSlot(live.clone()));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    // a signal interrupting accept re-checks the flag
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;

        // graceful drain: late clients get an immediate `503 +
        // Retry-After` instead of a hung connect until the connections
        // finish (so every submission they make is counted) and the
        // session has run everything submitted
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(1.0);
        while live.load(Ordering::SeqCst) > 0 || self.sim.stats().inflight > 0 {
            match self.listener.accept() {
                Ok((mut stream, _)) => reject_conn(&mut stream, 503, "server is draining"),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        self.sim.shutdown();
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(0.0);
        Ok(())
    }

    /// Serves one accepted connection on its own thread, under the
    /// session's fault plan. The thread holds `slot` until it exits.
    fn spawn_connection(&self, mut stream: TcpStream, slot: ConnSlot) {
        let sim = self.sim.clone();
        let requests = self.requests.clone();
        let io_timeout = self.io_timeout;
        // if the thread cannot start, the closure drops: the client sees
        // the connection close and the slot is freed
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                stacksim_faults::scope(sim.faults(), || {
                    handle_connection(&mut stream, &sim, &requests, io_timeout);
                });
                // free the place before the socket closes: a client that
                // read its response to EOF can connect again at once
                drop(slot);
                drop(stream);
            });
    }
}

/// Routes one connection's request and writes its response.
fn handle_connection(
    stream: &mut TcpStream,
    sim: &Sim,
    requests: &RequestMap,
    io_timeout: Duration,
) {
    let request = match read_request(stream, io_timeout) {
        Ok(r) => r,
        Err(e) => {
            reject(stream, &e);
            return;
        }
    };
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => respond(stream, 200, "application/json", "{\"status\":\"ok\"}\n"),
        ("GET", "/metrics") => {
            let snapshot = stacksim_obs::registry().snapshot().encode();
            respond(stream, 200, "application/json", &snapshot);
        }
        ("POST", "/v1/experiments") => submit(stream, sim, requests, &request),
        ("POST", "/v1/explore") => explore(stream, sim, &request),
        ("GET", path) if path.starts_with("/v1/experiments/") => {
            let rest = &path["/v1/experiments/".len()..];
            if let Some(id_text) = rest.strip_suffix("/artifact") {
                artifact(stream, requests, id_text);
            } else {
                status(stream, requests, rest, &request);
            }
        }
        ("GET" | "POST", _) => error_response(stream, 404, "no such endpoint"),
        _ => error_response(stream, 405, "method not allowed"),
    }
}

/// `POST /v1/experiments`: parse the body, submit, answer with the
/// request's id and current status. Deduplicated submissions answer with
/// the existing id.
fn submit(stream: &mut TcpStream, sim: &Sim, requests: &RequestMap, request: &Request) {
    let experiment_request = match parse_submission(&request.body) {
        Ok(r) => r,
        Err(detail) => {
            error_response(stream, 400, &detail);
            return;
        }
    };
    let handle = match sim.submit(&experiment_request) {
        Ok(h) => h,
        Err(e) => {
            let code = match e.kind() {
                "unknown-experiment" => 404,
                "overloaded" => 503,
                _ => 400,
            };
            error_response(stream, code, &e.to_string());
            return;
        }
    };
    requests
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(handle.id(), handle.clone());
    let body = Json::obj(vec![
        ("id", Json::Num(handle.id() as f64)),
        ("experiment", Json::Str(handle.name().to_string())),
        ("digest", Json::Str(handle.digest().to_string())),
        ("status", Json::Str(handle.status().label().to_string())),
    ]);
    respond(stream, 200, "application/json", &body.encode());
}

/// `POST /v1/explore`: run one synchronous design-space search in a
/// short-lived session sharing the server's cache, parameters and job
/// count, and answer with the canonical `stacksim-explore/1` artifact.
fn explore(stream: &mut TcpStream, sim: &Sim, request: &Request) {
    let cfg = match parse_explore(&request.body) {
        Ok(cfg) => cfg,
        Err(detail) => {
            error_response(stream, 400, &detail);
            return;
        }
    };
    match stacksim_explore::run_exploration(
        &cfg,
        sim.base_params(),
        sim.jobs(),
        sim.cache().clone(),
    ) {
        Ok(outcome) => respond(stream, 200, "application/json", &outcome.artifact_json),
        Err(e @ ExploreError::Spec(_)) => error_response(stream, 400, &e.to_string()),
        Err(e) => error_response(stream, 500, &e.to_string()),
    }
}

/// Decodes an explore body (`spec`, `mode`, `budget`, `seed`, each
/// optional) into an [`ExploreConfig`].
fn parse_explore(body: &str) -> Result<ExploreConfig, String> {
    let mut cfg = ExploreConfig::grid(SpaceSpec::default_space());
    if body.trim().is_empty() {
        return Ok(cfg);
    }
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    if let Some(spec) = doc.get("spec") {
        cfg.spec = SpaceSpec::parse(&spec.encode())?;
    }
    if let Some(v) = doc.get("mode") {
        cfg.mode = v
            .as_str()
            .and_then(SearchMode::parse)
            .ok_or("'mode' must be \"grid\", \"random\" or \"evolve\"")?;
    }
    if let Some(v) = doc.get("budget") {
        cfg.budget = v.as_u64().ok_or("'budget' must be an unsigned integer")? as usize;
    }
    if let Some(v) = doc.get("seed") {
        cfg.seed = v.as_u64().ok_or("'seed' must be an unsigned integer")?;
    }
    Ok(cfg)
}

/// Decodes a submission body into an [`ExperimentRequest`]. A request
/// deadline must be positive: a zero budget could never run.
fn parse_submission(body: &str) -> Result<ExperimentRequest, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let req = ExperimentRequest::from_json(&doc)?;
    if doc.get("deadline_ms").and_then(Json::as_u64) == Some(0) {
        return Err("'deadline_ms' must be a positive integer".to_string());
    }
    Ok(req)
}

/// `GET /v1/experiments/<id>`: the request's lifecycle state, with the
/// full report row once done. `?wait=1` long-polls, *bounded*: it blocks
/// until completion or `timeout_ms` (default and ceiling 30 s), then
/// answers `202 Accepted` with the current status — a slow experiment
/// can never pin a connection thread indefinitely.
fn status(stream: &mut TcpStream, requests: &RequestMap, id_text: &str, request: &Request) {
    let Some(handle) = lookup(requests, id_text) else {
        error_response(stream, 404, "no such request id");
        return;
    };
    let mut timed_out = false;
    if request.query_flag("wait") {
        let wait_ms = request
            .query_param("timeout_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(MAX_WAIT_MS)
            .min(MAX_WAIT_MS);
        timed_out = handle
            .wait_timeout(Duration::from_millis(wait_ms))
            .is_none();
    }
    let (status_label, report, ok) = match handle.try_outcome() {
        Some(outcome) => (
            RequestStatus::Done.label(),
            outcome.report.to_json(),
            Json::Bool(outcome.is_ok()),
        ),
        None => (handle.status().label(), Json::Null, Json::Null),
    };
    let body = Json::obj(vec![
        ("id", Json::Num(handle.id() as f64)),
        ("experiment", Json::Str(handle.name().to_string())),
        ("digest", Json::Str(handle.digest().to_string())),
        ("status", Json::Str(status_label.to_string())),
        ("ok", ok),
        ("report", report),
    ]);
    let code = if timed_out { 202 } else { 200 };
    respond(stream, code, "application/json", &body.encode());
}

/// `GET /v1/experiments/<id>/artifact`: the artifact's canonical JSON
/// encoding, byte-for-byte what the memo cache stores and the embedded
/// API encodes — the service's bit-identity contract.
fn artifact(stream: &mut TcpStream, requests: &RequestMap, id_text: &str) {
    let Some(handle) = lookup(requests, id_text) else {
        error_response(stream, 404, "no such request id");
        return;
    };
    let Some(outcome) = handle.try_outcome() else {
        error_response(stream, 409, "request has not finished");
        return;
    };
    match &outcome.artifact {
        Some(artifact) => respond(stream, 200, "application/json", &artifact.encode()),
        None => {
            let detail = outcome
                .report
                .error
                .clone()
                .unwrap_or_else(|| "request failed".to_string());
            error_response(stream, 500, &detail);
        }
    }
}

fn lookup(requests: &RequestMap, id_text: &str) -> Option<RequestHandle> {
    let id: u64 = id_text.parse().ok()?;
    requests
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&id)
        .cloned()
}
