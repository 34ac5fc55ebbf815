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
//! | `GET /v1/experiments/<id>/artifact` | the artifact's canonical JSON, verbatim, from the memo entry |
//! | `POST /v1/explore` | synchronous design-space search; returns the frontier artifact |
//!
//! Submission bodies accept the same parameter overrides as
//! [`ExperimentRequest`]: `seed`, `scale` (`"test"`/`"paper"`),
//! `threads`, `chunk`, `faults` (opt this request
//! into the server's armed fault plan), and `deadline_ms` (a
//! per-request execution deadline, tightened against the server's
//! resilience policy). Identical in-flight submissions deduplicate onto
//! one execution and return the same `id`. A submission the memo cache
//! already holds is answered at admission: its `POST` response says
//! `"status":"done"`.
//!
//! ## Finished requests
//!
//! Once a request is done the daemon keeps only its id, name, digest,
//! report, and the memo entry's length and FNV-1a digest; the session
//! handle and the decoded artifact it pins are dropped. The artifact
//! endpoint sends the entry's bytes after checking that length and
//! digest, so the bytes are exactly those the cache stored; an entry
//! that is gone or changed since gets `410` with a typed error
//! (`"kind":"cache-entry-changed"`), never other bytes. A `--no-cache`
//! daemon has no entries, and a `--cache-max-bytes` cache evicts entries
//! on its own stores, so those two keep the decoded artifact and encode
//! it per request. The daemon keeps the last [`RETAINED_FINISHED`]
//! requests to finish, evicting the one that finished first; a status
//! or artifact `GET` for an evicted one gets `410` with
//! `"kind":"evicted"`, and any other id the daemon holds no request for
//! (never handed out, or a dependency's) gets `404` with
//! `"kind":"unknown-id"`.
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

use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::resilience::SITE_SERVE_ACCEPT;
use stacksim_core::harness::{
    obs as harness_obs, Artifact, CacheEntry, ExperimentReport, ExperimentRequest, MemoCache,
    RequestHandle, RequestJournal, RequestOutcome, RequestStatus, Resilience, Sim,
};
use stacksim_explore::{ExploreConfig, ExploreError, SearchMode, SpaceSpec};
use stacksim_faults::{Fault, FaultPlan};
use stacksim_workloads::WorkloadParams;

use http::{error_response, read_request, reject, respond, typed_error, Request};

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

/// Finished requests the daemon keeps; beyond this many the one that
/// finished first is evicted.
pub const RETAINED_FINISHED: usize = 1024;

/// Where a finished request's artifact bytes come from.
#[derive(Debug)]
enum ArtifactSource {
    /// The memo entry with this length and digest, read back and checked
    /// per `GET`.
    Entry(CacheEntry),
    /// The artifact, encoded per `GET`: a `--no-cache` daemon has no
    /// entry, and a byte-budgeted cache may evict one at any store.
    Decoded(Arc<Artifact>),
    /// The request failed with this detail.
    Failed(String),
}

/// What the daemon keeps of a finished request. It pins no session
/// slot, so dependencies' artifacts do not outlive the request, nor does
/// its own unless the entry cannot be trusted to stay.
#[derive(Debug)]
struct Finished {
    name: String,
    digest: String,
    report: ExperimentReport,
    artifact: ArtifactSource,
}

impl Finished {
    /// `from_entry`: serve the artifact from its memo entry, when there is
    /// one, rather than keep it decoded.
    fn new(handle: &RequestHandle, outcome: &RequestOutcome, from_entry: bool) -> Finished {
        let artifact = match (&outcome.artifact, outcome.entry) {
            (Some(_), Some(entry)) if from_entry => ArtifactSource::Entry(entry),
            (Some(artifact), _) => ArtifactSource::Decoded(artifact.clone()),
            (None, _) => ArtifactSource::Failed(
                outcome
                    .report
                    .error
                    .clone()
                    .unwrap_or_else(|| "request failed".to_string()),
            ),
        };
        Finished {
            name: handle.name().to_string(),
            digest: handle.digest().to_string(),
            report: outcome.report.clone(),
            artifact,
        }
    }
}

/// One accepted request as the daemon holds it.
#[derive(Debug, Clone)]
enum Record {
    /// Queued or running: the session handle.
    Live(RequestHandle),
    /// Finished.
    Done(Arc<Finished>),
}

impl Record {
    /// The finished form, or the handle of a request still running. A
    /// handle that finished since it was looked up still pins its
    /// artifact, so its finished form serves that.
    fn finished(&self) -> Result<Arc<Finished>, &RequestHandle> {
        match self {
            Record::Done(finished) => Ok(finished.clone()),
            Record::Live(handle) => handle
                .try_outcome()
                .map(|outcome| Arc::new(Finished::new(handle, &outcome, false)))
                .ok_or(handle),
        }
    }
}

/// The requests the daemon has accepted. Finished ones are kept up to
/// [`RETAINED_FINISHED`] and evicted in the order they finished.
#[derive(Debug)]
struct Requests {
    /// Queued or running requests, by id.
    live: BTreeMap<u64, RequestHandle>,
    /// Finished requests, the first to finish at the front.
    finished: VecDeque<(u64, Arc<Finished>)>,
    /// Evicted ids, one bit per id up to the highest.
    evicted: Vec<u64>,
    /// Whether finished requests serve their artifact from the memo
    /// entry: not when the cache has a byte budget, whose stores evict
    /// entries on their own.
    from_entry: bool,
}

/// Why an id has no record.
enum Missing {
    /// The request finished and its record was evicted.
    Evicted(u64),
    /// Not a request id this daemon handed out.
    Unknown,
}

impl Requests {
    fn new(cache: &MemoCache) -> Requests {
        Requests {
            live: BTreeMap::new(),
            finished: VecDeque::new(),
            evicted: Vec::new(),
            from_entry: cache.max_bytes().is_none(),
        }
    }

    /// Records a handle the session returned; a deduplicated submission
    /// finds its request already there.
    fn insert(&mut self, handle: RequestHandle) {
        let id = handle.id();
        if !self.finished.iter().any(|(done, _)| *done == id) {
            self.live.entry(id).or_insert(handle);
        }
        self.settle();
    }

    fn get(&mut self, id: u64) -> Result<Record, Missing> {
        self.settle();
        if let Some(handle) = self.live.get(&id) {
            return Ok(Record::Live(handle.clone()));
        }
        if let Some((_, finished)) = self.finished.iter().find(|(done, _)| *done == id) {
            return Ok(Record::Done(finished.clone()));
        }
        let word = self.evicted.get((id / 64) as usize).copied().unwrap_or(0);
        if word >> (id % 64) & 1 == 1 {
            Err(Missing::Evicted(id))
        } else {
            Err(Missing::Unknown)
        }
    }

    /// Moves every finished live request to the back of `finished`,
    /// dropping its handle, then evicts from the front down to the
    /// retention bound.
    fn settle(&mut self) {
        let done: Vec<(u64, Arc<RequestOutcome>)> = self
            .live
            .iter()
            .filter_map(|(id, handle)| Some((*id, handle.try_outcome()?)))
            .collect();
        for (id, outcome) in done {
            if let Some(handle) = self.live.remove(&id) {
                let finished = Finished::new(&handle, &outcome, self.from_entry);
                self.finished.push_back((id, Arc::new(finished)));
            }
        }
        while self.finished.len() > RETAINED_FINISHED {
            let Some((id, _)) = self.finished.pop_front() else {
                break;
            };
            let word = (id / 64) as usize;
            if self.evicted.len() <= word {
                self.evicted.resize(word + 1, 0);
            }
            if let Some(bits) = self.evicted.get_mut(word) {
                *bits |= 1 << (id % 64);
            }
        }
    }
}

/// [`Requests`], shared across connection threads.
type RequestMap = Arc<Mutex<Requests>>;

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
            requests: Arc::new(Mutex::new(Requests::new(sim.cache()))),
            sim: Arc::new(sim),
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
                            .insert(handle);
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
                artifact(stream, sim, requests, id_text);
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
        .insert(handle.clone());
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
    let Some((id, record)) = lookup(stream, requests, id_text) else {
        return;
    };
    let mut timed_out = false;
    if let Record::Live(handle) = &record {
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
    }
    let (name, digest, status_label, report, ok) = match record.finished() {
        Ok(finished) => (
            finished.name.clone(),
            finished.digest.clone(),
            RequestStatus::Done.label(),
            finished.report.to_json(),
            Json::Bool(!matches!(finished.artifact, ArtifactSource::Failed(_))),
        ),
        Err(handle) => (
            handle.name().to_string(),
            handle.digest().to_string(),
            handle.status().label(),
            Json::Null,
            Json::Null,
        ),
    };
    let body = Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("experiment", Json::Str(name)),
        ("digest", Json::Str(digest)),
        ("status", Json::Str(status_label.to_string())),
        ("ok", ok),
        ("report", report),
    ]);
    let code = if timed_out { 202 } else { 200 };
    respond(stream, code, "application/json", &body.encode());
}

/// `GET /v1/experiments/<id>/artifact`: the artifact's canonical JSON
/// encoding, byte-for-byte what the memo cache stores and the embedded
/// API encodes — the service's bit-identity contract. The bytes come
/// from the memo entry, checked against the length and digest the
/// request finished with; only a daemon without a cache encodes.
fn artifact(stream: &mut TcpStream, sim: &Sim, requests: &RequestMap, id_text: &str) {
    let Some((_, record)) = lookup(stream, requests, id_text) else {
        return;
    };
    let Ok(finished) = record.finished() else {
        error_response(stream, 409, "request has not finished");
        return;
    };
    match &finished.artifact {
        ArtifactSource::Entry(entry) => {
            match sim
                .cache()
                .entry_bytes(&finished.name, &finished.digest, *entry)
            {
                Ok(bytes) => respond(stream, 200, "application/json", &bytes),
                Err(e) => {
                    let status = if e.kind() == "cache-entry-changed" {
                        410
                    } else {
                        500
                    };
                    typed_error(stream, status, e.kind(), &e.to_string());
                }
            }
        }
        ArtifactSource::Decoded(artifact) => {
            respond(stream, 200, "application/json", &artifact.encode());
        }
        ArtifactSource::Failed(detail) => error_response(stream, 500, detail),
    }
}

/// The record of the request `id_text` names, or `None` once a typed
/// `404` (never handed out) or `410` (evicted) has been written.
fn lookup(stream: &mut TcpStream, requests: &RequestMap, id_text: &str) -> Option<(u64, Record)> {
    let found = id_text
        .parse::<u64>()
        .map_err(|_| Missing::Unknown)
        .and_then(|id| {
            requests
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(id)
                .map(|record| (id, record))
        });
    match found {
        Ok(found) => Some(found),
        Err(Missing::Evicted(id)) => {
            let detail = format!(
                "request {id} finished and was evicted: the daemon keeps the last \
                 {RETAINED_FINISHED} finished requests"
            );
            typed_error(stream, 410, "evicted", &detail);
            None
        }
        Err(Missing::Unknown) => {
            typed_error(stream, 404, "unknown-id", "no such request id");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request that finishes after more than [`RETAINED_FINISHED`]
    /// others is kept, and the first of those to finish are evicted in
    /// its place. Ids the daemon never handed out, a dependency's among
    /// them, are unknown rather than evicted.
    #[test]
    fn finished_requests_are_evicted_in_finish_order() {
        let dir = std::env::temp_dir().join(format!("stacksim-serve-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = |paused| {
            Sim::builder()
                .params(WorkloadParams::test())
                .jobs(1)
                .cache(MemoCache::at(&dir))
                .start_paused(paused)
                .build()
        };
        let warm = build(false);
        let names = ["fig5".to_string()];
        assert!(warm.run(&names).expect("warm the cache").errors.is_empty());
        drop(warm);

        // `headline` misses and waits for the paused worker; its `fig5`
        // dependency hits at admission
        let sim = build(true);
        let mut requests = Requests::new(sim.cache());
        let long = sim.submit(&ExperimentRequest::new("headline")).unwrap();
        requests.insert(long.clone());
        let hits: Vec<u64> = (0..=RETAINED_FINISHED)
            .map(|_| {
                let hit = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
                assert_eq!(hit.status(), RequestStatus::Done);
                let id = hit.id();
                requests.insert(hit);
                id
            })
            .collect();
        sim.resume();
        let outcome = long.wait();
        assert!(outcome.is_ok(), "{:?}", outcome.report.error);

        let Ok(Record::Done(finished)) = requests.get(long.id()) else {
            panic!("the request that finished last is kept");
        };
        let ArtifactSource::Entry(entry) = finished.artifact else {
            panic!("an unbounded cache serves the entry's bytes");
        };
        let bytes = sim
            .cache()
            .entry_bytes("headline", long.digest(), entry)
            .expect("the entry is there");
        assert_eq!(bytes, outcome.artifact.as_ref().unwrap().encode());
        assert!(matches!(requests.get(hits[0]), Err(Missing::Evicted(_))));
        assert!(matches!(requests.get(hits[1]), Err(Missing::Evicted(_))));
        assert!(matches!(requests.get(hits[2]), Ok(Record::Done(_))));
        // `fig5`'s slot, made at admission just before `headline`'s
        assert!(matches!(requests.get(long.id() - 1), Err(Missing::Unknown)));
        assert!(matches!(requests.get(u64::MAX), Err(Missing::Unknown)));
        sim.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
