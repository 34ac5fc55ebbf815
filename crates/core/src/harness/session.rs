//! The [`Sim`] session: an embed-or-serve facade over the experiment
//! harness.
//!
//! A `Sim` is constructed once (via [`SimBuilder`]) and then accepts any
//! number of typed [`ExperimentRequest`]s over its lifetime. It owns what
//! used to be per-CLI-process state — the experiment [`Registry`], the
//! shared (optionally size-bounded) [`MemoCache`], the
//! resilience policy, and an optional fault plan — so a long-running
//! process (the `stacksim serve` daemon, a test harness, an exploration
//! driver) can serve thousands of requests from one warm cache.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Done
//!    │ │        ▲                    ▲
//!    │ └ dedup ─┘                    │  (identical in-flight config: same slot)
//!    └──────────── memo hit ─────────┘  (cached: done at admission)
//! ```
//!
//! * **submit** resolves the request against the session's base
//!   parameters, digests it (the digest is the memo-cache key, so
//!   parameterised variants are first-class), and returns a
//!   [`RequestHandle`] immediately.
//! * **memo hit** — before taking the session lock, submit probes the
//!   memo cache once per distinct step of the request's plan. A hit
//!   whose dependencies all hit too gets a slot that is `Done` from the
//!   start with `cached: true`: no worker, no journal record, never in
//!   the dedup table. It is counted and traced when admission hands it
//!   out, so a submission that dedups onto in-flight work counts none. A
//!   hit with a dependency that missed is queued like any slot and
//!   published by a worker once its dependencies finish (so a failed
//!   dependency still fails it), without computing. A corrupt
//!   entry is quarantined here, and the worker that recomputes the step
//!   reports it. This probe is the only place the session reads the
//!   cache; workers only compute and store.
//! * **dedup** — a request whose `(experiment, digest, faults)` triple
//!   matches one already queued or running does not enqueue new work: it
//!   receives a handle to the existing slot (observable via
//!   [`RequestHandle::id`] and the `serve.dedup_hits` counter). The
//!   underlying experiment runs exactly once.
//! * **dependencies** — submit walks the request's dependency closure
//!   and gives every member its own deduplicated slot, carrying the
//!   request's parameters, fault opt-in and deadline. A dependency
//!   already in flight under the same key is shared, not re-run.
//! * **execution** — the session owns `jobs` long-lived worker threads
//!   pulling from one ready queue under the session mutex. A slot is
//!   queued once its dependencies finish; a failed slot finishes every
//!   dependent with `dependency-failed`.
//! * **Done** — the handle yields a [`RequestOutcome`]: the per-request
//!   [`ExperimentReport`] (telemetry, cache/attempt accounting), the
//!   artifact on success, and the memo entry's [`CacheEntry`] when the
//!   cache holds it.
//!
//! Dropping the `Sim` (or calling [`Sim::shutdown`]) drains: everything
//! already submitted still runs to completion before the workers exit.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use stacksim_faults::{FaultPlan, Faults};
use stacksim_thermal::SolveError;
use stacksim_workloads::{Scale, WorkloadParams};

use super::artifact::Artifact;
use super::cache::{CacheEntry, MemoCache};
use super::experiment::{Ctx, Experiment};
use super::json::Json;
use super::registry::Registry;
use super::report::{ExperimentReport, RunOutcome, RunReport};
use super::resilience::{self, Resilience, SolverDegrade};
use crate::error::Error;

/// A typed request for one experiment, optionally overriding the
/// session's base workload parameters (a *parameterised variant*). Every
/// override is folded into the experiment digest, so variants memoize
/// independently and identical variants deduplicate.
#[derive(Debug, Clone)]
pub struct ExperimentRequest {
    name: String,
    scale: Option<Scale>,
    seed: Option<u64>,
    threads: Option<usize>,
    chunk: Option<usize>,
    faults: bool,
    deadline_ms: Option<u64>,
}

impl ExperimentRequest {
    /// A request for the named experiment at the session's base
    /// parameters.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentRequest {
            name: name.into(),
            scale: None,
            seed: None,
            threads: None,
            chunk: None,
            faults: false,
            deadline_ms: None,
        }
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the generation scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Override the trace seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Override the workload thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Override the interleave chunk.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Opt this request into the session's fault plan (chaos testing).
    /// Fault-injected requests never deduplicate against clean ones.
    #[must_use]
    pub fn faults(mut self, faults: bool) -> Self {
        self.faults = faults;
        self
    }

    /// A per-request wall-clock budget in milliseconds, fed into the
    /// [`Resilience::deadline_s`] recovery budget of the request and its
    /// dependencies: once it runs out no further retries or ladder rungs
    /// are tried and the request fails with
    /// [`Error::DeadlineExceeded`](crate::Error), releasing its slot.
    /// Execution policy only — it never splits the memo-cache digest,
    /// but requests with different deadlines do not deduplicate onto
    /// each other.
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The canonical JSON encoding of this request: every set field, in
    /// fixed order. The journal stores it, and recovery deduplicates by it.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("experiment", Json::Str(self.name.clone()))];
        if let Some(scale) = self.scale {
            let label = match scale {
                Scale::Test => "test",
                Scale::Paper => "paper",
            };
            fields.push(("scale", Json::Str(label.to_string())));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed", Json::Num(seed as f64)));
        }
        if let Some(threads) = self.threads {
            fields.push(("threads", Json::Num(threads as f64)));
        }
        if let Some(chunk) = self.chunk {
            fields.push(("chunk", Json::Num(chunk as f64)));
        }
        if self.faults {
            fields.push(("faults", Json::Bool(true)));
        }
        if let Some(deadline_ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::Num(deadline_ms as f64)));
        }
        Json::obj(fields)
    }

    /// Decodes a request object, as `stacksim serve` receives it and the
    /// journal stores it. Unknown fields are ignored; a missing name or a
    /// mistyped field is an `Err` naming the field.
    ///
    /// # Errors
    ///
    /// A one-line message naming the first offending field.
    pub fn from_json(doc: &Json) -> Result<ExperimentRequest, String> {
        let name = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("body needs a string 'experiment' field")?;
        let mut req = ExperimentRequest::new(name);
        let unsigned = |what: &str| -> Result<Option<u64>, String> {
            doc.get(what)
                .map(|v| {
                    v.as_u64()
                        .ok_or(format!("'{what}' must be an unsigned integer"))
                })
                .transpose()
        };
        req.seed = unsigned("seed")?;
        if let Some(v) = doc.get("scale") {
            req.scale = Some(match v.as_str() {
                Some("test") => Scale::Test,
                Some("paper") => Scale::Paper,
                _ => return Err("'scale' must be \"test\" or \"paper\"".to_string()),
            });
        }
        req.threads = unsigned("threads")?.map(|n| n as usize);
        req.chunk = unsigned("chunk")?.map(|n| n as usize);
        if let Some(v) = doc.get("faults") {
            req.faults = v.as_bool().ok_or("'faults' must be a boolean")?;
        }
        if let Some(v) = doc.get("deadline_ms") {
            req.deadline_ms = Some(
                v.as_u64()
                    .ok_or("'deadline_ms' must be a positive integer")?,
            );
        }
        Ok(req)
    }

    /// The request's effective workload parameters over a session base.
    ///
    /// # Errors
    ///
    /// [`Error::Internal`] when the overridden parameters are invalid
    /// (e.g. zero threads).
    pub fn resolve(&self, base: &WorkloadParams) -> Result<WorkloadParams, Error> {
        let mut p = *base;
        if let Some(scale) = self.scale {
            p.scale = scale;
        }
        if let Some(seed) = self.seed {
            p.seed = seed;
        }
        if let Some(threads) = self.threads {
            p.threads = threads;
        }
        if let Some(chunk) = self.chunk {
            p.chunk = chunk;
        }
        p.validate().map_err(|e| Error::Internal {
            detail: format!("request '{}' rejected: {e}", self.name),
        })?;
        Ok(p)
    }
}

/// Where a submitted request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Accepted, waiting for its dependencies or a free worker.
    Queued,
    /// A worker is running the experiment.
    Running,
    /// Finished — [`RequestHandle::try_outcome`] yields the result.
    Done,
}

impl RequestStatus {
    /// Stable lowercase label (`queued` / `running` / `done`), as served
    /// by the HTTP status endpoint.
    pub fn label(&self) -> &'static str {
        match self {
            RequestStatus::Queued => "queued",
            RequestStatus::Running => "running",
            RequestStatus::Done => "done",
        }
    }
}

/// Everything one finished request produced.
#[derive(Debug)]
pub struct RequestOutcome {
    /// The per-experiment report row: digest, cache/attempt accounting,
    /// telemetry, and the error if the run failed.
    pub report: ExperimentReport,
    /// The artifact, on success.
    pub artifact: Option<Arc<Artifact>>,
    /// The memo entry holding the artifact's canonical bytes: its length
    /// and FNV-1a digest, from the load or store (`None` on failure or
    /// with a disabled cache).
    pub entry: Option<CacheEntry>,
}

impl RequestOutcome {
    /// Whether the request produced an artifact.
    pub fn is_ok(&self) -> bool {
        self.artifact.is_some()
    }
}

/// One dedup slot: a submitted request, or a dependency one pulled in.
/// Shared by every deduplicated handle and every dependent.
#[derive(Debug)]
struct Slot {
    id: u64,
    name: String,
    digest: String,
    params: WorkloadParams,
    faults: bool,
    deadline_ms: Option<u64>,
    /// The slots whose artifacts this one reads; all finish before it runs.
    deps: Vec<Arc<Slot>>,
    /// A memo hit the admission probe loaded for a slot that still waits
    /// for its dependencies: the worker publishes it instead of
    /// computing.
    hit: Option<Loaded>,
    /// Whether the admission probe quarantined a corrupt entry for this
    /// slot (reported by the worker that recomputes it).
    quarantined: bool,
    /// A failed admission probe, reported by the worker's first attempt
    /// so the resilience policy decides whether to retry.
    probe_error: Mutex<Option<Error>>,
    status: Mutex<SlotState>,
    done: Condvar,
}

/// The dedup key: requests are identical when the experiment, digest,
/// fault opt-in *and deadline* all match (a deadline is execution
/// policy, so it must not silently widen or narrow someone else's
/// budget).
type DedupKey = (String, String, bool, Option<u64>);

impl Slot {
    fn dedup_key(&self) -> DedupKey {
        (
            self.name.clone(),
            self.digest.clone(),
            self.faults,
            self.deadline_ms,
        )
    }
}

#[derive(Debug)]
enum SlotState {
    Queued,
    Running,
    /// The outcome, plus the typed root-cause error that [`Sim::run`]
    /// takes once into its `RunOutcome::errors` (dependency skips carry
    /// none).
    Done(Arc<RequestOutcome>, Option<Error>),
}

impl Slot {
    /// A slot for `step` of `request`, with no dependencies.
    fn new(
        id: u64,
        step: &Step,
        params: WorkloadParams,
        request: &ExperimentRequest,
        status: SlotState,
    ) -> Slot {
        Slot {
            id,
            name: step.exp.name().to_string(),
            digest: step.digest.clone(),
            params,
            faults: request.faults,
            deadline_ms: request.deadline_ms,
            deps: Vec::new(),
            hit: None,
            quarantined: false,
            probe_error: Mutex::new(None),
            status: Mutex::new(status),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.status
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn finish(&self, outcome: RequestOutcome, error: Option<Error>) {
        *self.lock() = SlotState::Done(Arc::new(outcome), error);
        self.done.notify_all();
    }

    fn artifact(&self) -> Option<Arc<Artifact>> {
        match &*self.lock() {
            SlotState::Done(outcome, _) => outcome.artifact.clone(),
            _ => None,
        }
    }

    fn take_probe_error(&self) -> Option<Error> {
        self.probe_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

/// A pollable/awaitable handle to one submitted request. Clones (and
/// deduplicated submissions) share the same underlying slot.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    slot: Arc<Slot>,
}

impl RequestHandle {
    /// The session-unique request id. Deduplicated submissions return the
    /// *same* id — two handles with equal ids share one execution.
    /// Dependency slots draw ids from the same counter, so the ids of
    /// successive requests need not be consecutive.
    pub fn id(&self) -> u64 {
        self.slot.id
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.slot.name
    }

    /// The request's configuration digest (its memo-cache key).
    pub fn digest(&self) -> &str {
        &self.slot.digest
    }

    /// The effective workload parameters this request runs under.
    pub fn params(&self) -> WorkloadParams {
        self.slot.params
    }

    /// Whether this request opted into fault injection.
    pub fn faults(&self) -> bool {
        self.slot.faults
    }

    /// The request's current lifecycle state.
    pub fn status(&self) -> RequestStatus {
        match &*self.slot.lock() {
            SlotState::Queued => RequestStatus::Queued,
            SlotState::Running => RequestStatus::Running,
            SlotState::Done(..) => RequestStatus::Done,
        }
    }

    /// The outcome, if the request already finished.
    pub fn try_outcome(&self) -> Option<Arc<RequestOutcome>> {
        match &*self.slot.lock() {
            SlotState::Done(outcome, _) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Takes the typed root-cause error of a finished, failed request
    /// (`None` on success, for dependency skips, or once taken).
    pub(super) fn take_error(&self) -> Option<Error> {
        match &mut *self.slot.lock() {
            SlotState::Done(_, error) => error.take(),
            _ => None,
        }
    }

    /// Blocks until the request finishes and returns its outcome.
    pub fn wait(&self) -> Arc<RequestOutcome> {
        let mut st = self.slot.lock();
        loop {
            if let SlotState::Done(outcome, _) = &*st {
                return outcome.clone();
            }
            st = self
                .slot
                .done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until the request finishes *or* `timeout` elapses — the
    /// bounded long-poll the HTTP status endpoint is built on, so a slow
    /// experiment can never pin a connection worker indefinitely.
    /// Returns `None` on timeout; the request keeps running.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Arc<RequestOutcome>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.slot.lock();
        loop {
            if let SlotState::Done(outcome, _) = &*st {
                return Some(outcome.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            st = self
                .slot
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// A point-in-time snapshot of the session's request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Requests submitted (dedup hits included).
    pub submitted: u64,
    /// Submissions coalesced onto an identical in-flight request.
    pub dedup_hits: u64,
    /// Requests currently queued or running (dependency slots that no
    /// submission asked for are not counted).
    pub inflight: u64,
    /// Requests finished.
    pub completed: u64,
}

/// One member of a request's dependency closure, resolved before the
/// session lock is taken.
struct Step {
    exp: Arc<dyn Experiment>,
    digest: String,
    /// Indices of this step's dependencies, all earlier in the plan.
    deps: Vec<usize>,
}

/// A task a worker can run: the slot and the experiment it names.
type Task = (Arc<Slot>, Arc<dyn Experiment>);

/// A memo hit as the admission probe loaded it.
#[derive(Debug, Clone)]
struct Loaded {
    artifact: Arc<Artifact>,
    entry: CacheEntry,
    /// The load's wall time, reported as the hit's.
    wall_s: f64,
}

impl Loaded {
    /// The report row of this hit.
    fn report(&self, name: &str, digest: &str) -> ExperimentReport {
        let mut report = ExperimentReport::blank(name, digest.to_string());
        report.cached = true;
        report.attempts = 1;
        report.wall_s = self.wall_s;
        report
    }
}

/// What the admission probe found for one planned step.
enum Probe {
    /// A hit whose dependencies all hit too, answered by a slot done from
    /// the start. Admission makes the slot, and counts and traces the hit,
    /// the first time it hands the step out.
    Done(Loaded),
    /// A [`Probe::Done`] step admission has handed out.
    Answered(Arc<Slot>),
    /// A hit with a dependency that missed: it waits for them, then a
    /// worker publishes it.
    Hit(Loaded),
    /// A miss: the step needs a worker. `quarantined` when a corrupt
    /// entry was moved aside; `error` when the probe itself failed.
    Miss {
        quarantined: bool,
        error: Option<Error>,
    },
}

/// A probe's key: step name, digest and fault opt-in.
type ProbeKey = (String, String, bool);

/// The probes of one submission: each distinct step is probed once
/// however many requests plan it.
type Probes = HashMap<ProbeKey, Probe>;

/// A worker's successful slot: the artifact and the memo entry holding
/// it.
type Computed = (Arc<Artifact>, Option<CacheEntry>);

/// An unfinished slot's place in the executor's dependency graph.
struct Node {
    slot: Arc<Slot>,
    exp: Arc<dyn Experiment>,
    /// Dependencies not finished yet; the slot is queued ready at zero.
    waiting: usize,
    /// Ids of the unfinished slots that read this one's artifact.
    dependents: Vec<u64>,
    /// Whether a submission asked for this slot, not only a dependent:
    /// only those count toward admission, `inflight` and the journal.
    requested: bool,
}

/// Executor bookkeeping, behind the session mutex.
struct SchedState {
    /// Unfinished slots by id.
    nodes: HashMap<u64, Node>,
    /// Slots whose dependencies all finished, in the order they did.
    ready: VecDeque<Task>,
    /// Unfinished slots by [`DedupKey`].
    inflight: HashMap<DedupKey, Arc<Slot>>,
    /// Requested slots not finished yet.
    requests: usize,
    /// Slots a worker is running (for `wait_idle`).
    running: usize,
    paused: bool,
    shutdown: bool,
    next_id: u64,
}

struct Inner {
    registry: Registry,
    /// Base parameters requests resolve their overrides against; each
    /// task runs under its slot's own.
    params: WorkloadParams,
    /// Executor worker threads.
    jobs: usize,
    cache: MemoCache,
    /// Whether to lint an experiment's model before a cache-missing run.
    preflight: bool,
    /// The policy every task runs under; a slot's deadline can tighten
    /// its recovery budget.
    resilience: Resilience,
    /// The session's one fault schedule: in scope around opted-in tasks
    /// and journal appends, so its counters span the session.
    faults: Option<Faults>,
    /// Admission bound: submissions that would push the queued+running
    /// request count past this are shed with [`Error::Overloaded`].
    max_pending: Option<usize>,
    /// The crash-recovery journal, when the session is durable.
    journal: Option<Arc<super::journal::RequestJournal>>,
    state: Mutex<SchedState>,
    /// Wakes workers on submit / completion / resume / shutdown.
    work: Condvar,
    /// Wakes `wait_idle` when a slot finishes.
    idle: Condvar,
    submitted: AtomicU64,
    dedup_hits: AtomicU64,
    completed: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn publish_inflight(st: &SchedState) {
        if stacksim_obs::enabled() {
            stacksim_obs::gauge(super::obs::SERVE_INFLIGHT).set(st.requests as f64);
        }
    }

    /// Resolves a request's parameters and its dependency closure,
    /// dependencies first and the request itself last.
    fn plan(&self, request: &ExperimentRequest) -> Result<(WorkloadParams, Vec<Step>), Error> {
        let params = request.resolve(&self.params)?;
        let mut steps = Vec::new();
        self.visit(request.name(), &params, &mut HashMap::new(), &mut steps)?;
        Ok((params, steps))
    }

    /// Depth-first post-order walk. `index` maps a name to its step, or
    /// to `None` while its own dependencies are walked — meeting such a
    /// name again closes a cycle.
    fn visit(
        &self,
        name: &str,
        params: &WorkloadParams,
        index: &mut HashMap<String, Option<usize>>,
        steps: &mut Vec<Step>,
    ) -> Result<usize, Error> {
        match index.get(name) {
            Some(Some(i)) => return Ok(*i),
            Some(None) => {
                return Err(Error::DependencyCycle {
                    name: name.to_string(),
                })
            }
            None => {}
        }
        let exp = self
            .registry
            .get(name)
            .ok_or_else(|| Error::UnknownExperiment {
                name: name.to_string(),
            })?;
        index.insert(name.to_string(), None);
        let mut deps = Vec::new();
        for dep in exp.deps() {
            if self.registry.get(&dep).is_none() {
                return Err(Error::MissingDependency {
                    experiment: name.to_string(),
                    dependency: dep,
                });
            }
            deps.push(self.visit(&dep, params, index, steps)?);
        }
        let digest = exp.params_digest(params);
        steps.push(Step { exp, digest, deps });
        index.insert(name.to_string(), Some(steps.len() - 1));
        Ok(steps.len() - 1)
    }

    /// Probes the memo cache for every step of one planned request,
    /// dependencies first, recording each distinct step once in `probes`.
    fn probe_plan(&self, request: &ExperimentRequest, steps: &[Step], probes: &mut Probes) {
        for step in steps {
            let key = probe_key(step, request);
            if probes.contains_key(&key) {
                continue;
            }
            let mut probe = self.probe(request, step);
            if let Probe::Hit(loaded) = probe {
                let inputs_done = step.deps.iter().all(|&d| {
                    let dep = steps.get(d).map(|dep| probe_key(dep, request));
                    matches!(dep.and_then(|k| probes.get(&k)), Some(Probe::Done(_)))
                });
                probe = if inputs_done {
                    Probe::Done(loaded)
                } else {
                    Probe::Hit(loaded)
                };
            }
            probes.insert(key, probe);
        }
    }

    /// Probes the memo cache for one step, under the request's fault
    /// scope when it opted in. A corrupt entry is quarantined.
    fn probe(&self, request: &ExperimentRequest, step: &Step) -> Probe {
        let (name, digest) = (step.exp.name(), &step.digest);
        let start = Instant::now();
        let faults = self.faults.as_ref().filter(|_| request.faults);
        let miss = |quarantined, error| Probe::Miss { quarantined, error };
        match stacksim_faults::scope(faults, || self.cache.load_entry(name, digest)) {
            Ok(Some((artifact, entry))) => Probe::Hit(Loaded {
                artifact: Arc::new(artifact),
                entry,
                wall_s: start.elapsed().as_secs_f64(),
            }),
            Ok(None) => miss(false, None),
            // move the poisoned entry aside and recompute: the run heals
            // the cache instead of failing on it
            Err(Error::CacheCorrupt { .. }) if self.resilience.quarantine => {
                match self.cache.quarantine(name, digest) {
                    Ok(_) => miss(true, None),
                    Err(e) => miss(false, Some(e)),
                }
            }
            Err(e) => miss(false, Some(e)),
        }
    }

    /// The finished slot answering `step` when its probe is a
    /// [`Probe::Done`] hit. The first call makes the slot and counts and
    /// traces the hit as a worker's run is; later calls share it.
    fn answer(
        &self,
        st: &mut SchedState,
        probes: &mut Probes,
        request: &ExperimentRequest,
        params: WorkloadParams,
        step: &Step,
    ) -> Option<Arc<Slot>> {
        let probe = probes.get_mut(&probe_key(step, request))?;
        let slot = match probe {
            Probe::Answered(slot) => return Some(slot.clone()),
            Probe::Done(loaded) => self.done_slot(st, request, params, step, loaded),
            Probe::Hit(_) | Probe::Miss { .. } => return None,
        };
        *probe = Probe::Answered(slot.clone());
        Some(slot)
    }

    /// The finished slot of a hit answered at admission, counted and
    /// traced as a worker's run is.
    fn done_slot(
        &self,
        st: &mut SchedState,
        request: &ExperimentRequest,
        params: WorkloadParams,
        step: &Step,
        loaded: &Loaded,
    ) -> Arc<Slot> {
        let report = loaded.report(step.exp.name(), &step.digest);
        let mut span = stacksim_obs::span(super::obs::EVENT_EXPERIMENT);
        span.field("experiment", report.name.clone());
        observe(&mut span, &report, true);
        let outcome = RequestOutcome {
            report,
            artifact: Some(loaded.artifact.clone()),
            entry: Some(loaded.entry),
        };
        let id = st.next_id;
        st.next_id += 1;
        let done = SlotState::Done(Arc::new(outcome), None);
        Arc::new(Slot::new(id, step, params, request, done))
    }

    /// Dedups or admits one planned and probed request under the session
    /// lock. `Ok((slot, true))` means new work for the journal; a memo
    /// hit is answered with its finished slot.
    fn admit(
        &self,
        st: &mut SchedState,
        request: &ExperimentRequest,
        params: WorkloadParams,
        steps: &[Step],
        probes: &mut Probes,
    ) -> Result<(Arc<Slot>, bool), Error> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        if stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::SERVE_REQUESTS).add(1);
        }
        if st.shutdown {
            return Err(Error::Internal {
                detail: "sim session is shut down".to_string(),
            });
        }
        let no_work = || Error::Internal {
            detail: format!("request '{}' planned no work", request.name),
        };
        let root = steps.last().ok_or_else(no_work)?;
        if let Some(Probe::Done(_) | Probe::Answered(_)) = probes.get(&probe_key(root, request)) {
            // its dependencies all hit too; each is answered and counted,
            // as the worker hits this replaces would have been
            for dep in &steps[..steps.len() - 1] {
                self.answer(st, probes, request, params, dep);
            }
            if let Some(slot) = self.answer(st, probes, request, params, root) {
                self.completed.fetch_add(1, Ordering::Relaxed);
                return Ok((slot, false));
            }
        }
        let key = (
            request.name.clone(),
            root.digest.clone(),
            request.faults,
            request.deadline_ms,
        );
        let existing = st.inflight.get(&key).cloned();
        if let Some(slot) = &existing {
            if st.nodes.get(&slot.id).is_some_and(|n| n.requested) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                if stacksim_obs::enabled() {
                    stacksim_obs::counter(super::obs::SERVE_DEDUP_HITS).add(1);
                }
                return Ok((slot.clone(), false));
            }
        }
        // admission control, atomic with enqueue under the session lock:
        // a shed request allocates nothing and releases nothing
        if let Some(limit) = self.max_pending {
            if st.requests >= limit {
                if stacksim_obs::enabled() {
                    stacksim_obs::counter(super::obs::SERVE_SHED).add(1);
                }
                return Err(Error::Overloaded {
                    pending: st.requests as u64,
                    limit: limit as u64,
                });
            }
        }
        // a slot only a dependent asked for so far becomes a request too
        let slot = match existing {
            Some(slot) => slot,
            None => self
                .enqueue(st, request, params, steps, probes)
                .ok_or_else(no_work)?,
        };
        if let Some(node) = st.nodes.get_mut(&slot.id) {
            node.requested = true;
            st.requests += 1;
        }
        Ok((slot, true))
    }

    /// Creates the slots of `steps` that are neither answered at
    /// admission nor in flight yet, each wired to its dependencies, and
    /// returns the request's own (last) slot.
    fn enqueue(
        &self,
        st: &mut SchedState,
        request: &ExperimentRequest,
        params: WorkloadParams,
        steps: &[Step],
        probes: &mut Probes,
    ) -> Option<Arc<Slot>> {
        let mut slots: Vec<Arc<Slot>> = Vec::with_capacity(steps.len());
        for step in steps {
            if let Some(slot) = self.answer(st, probes, request, params, step) {
                slots.push(slot);
                continue;
            }
            let key = (
                step.exp.name().to_string(),
                step.digest.clone(),
                request.faults,
                request.deadline_ms,
            );
            if let Some(slot) = st.inflight.get(&key) {
                slots.push(slot.clone());
                continue;
            }
            let (hit, quarantined, error) = match probes.get_mut(&probe_key(step, request)) {
                Some(Probe::Hit(loaded)) => (Some(loaded.clone()), false, None),
                Some(Probe::Miss { quarantined, error }) => (None, *quarantined, error.take()),
                _ => (None, false, None),
            };
            let id = st.next_id;
            st.next_id += 1;
            let slot = Arc::new(Slot {
                deps: step
                    .deps
                    .iter()
                    .filter_map(|&i| slots.get(i).cloned())
                    .collect(),
                hit,
                quarantined,
                probe_error: Mutex::new(error),
                ..Slot::new(id, step, params, request, SlotState::Queued)
            });
            let mut waiting = 0;
            for dep in &slot.deps {
                if let Some(node) = st.nodes.get_mut(&dep.id) {
                    node.dependents.push(slot.id);
                    waiting += 1;
                }
            }
            if waiting == 0 {
                st.ready.push_back((slot.clone(), step.exp.clone()));
            }
            let node = Node {
                slot: slot.clone(),
                exp: step.exp.clone(),
                waiting,
                dependents: Vec::new(),
                requested: false,
            };
            st.nodes.insert(slot.id, node);
            st.inflight.insert(key, slot.clone());
            slots.push(slot);
        }
        slots.pop()
    }

    /// Blocks until a task is ready and the session is not paused;
    /// `None` once a shutdown has drained every slot.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.lock();
        loop {
            if !st.paused {
                if let Some(task) = st.ready.pop_front() {
                    st.running += 1;
                    return Some(task);
                }
                if st.shutdown && st.nodes.is_empty() {
                    return None;
                }
            }
            st = self
                .work
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Runs one slot under the resilience policy: retries and the solver
    /// degradation ladder wrapped around every attempt. The slot's own
    /// parameters and deadline apply, and its dependencies' artifacts are
    /// handed in. A hit loaded at admission is published as it is.
    fn execute(
        &self,
        slot: &Slot,
        exp: &dyn Experiment,
    ) -> (ExperimentReport, Result<Computed, Error>) {
        let mut span = stacksim_obs::span(super::obs::EVENT_EXPERIMENT);
        span.field("experiment", slot.name.clone());
        if let Some(loaded) = &slot.hit {
            let report = loaded.report(&slot.name, &slot.digest);
            observe(&mut span, &report, true);
            return (report, Ok((loaded.artifact.clone(), Some(loaded.entry))));
        }
        let deps = slot
            .deps
            .iter()
            .filter_map(|d| d.artifact().map(|a| (d.name.clone(), a)))
            .collect();
        let start = Instant::now();
        let mut report = ExperimentReport::blank(&slot.name, slot.digest.clone());
        report.quarantined = slot.quarantined;

        let result = self.execute_attempts(slot, exp, &deps, &mut report, start);

        report.wall_s = start.elapsed().as_secs_f64();
        if let Err(e) = &result {
            report.error = Some(e.to_string());
            report.error_kind = Some(e.kind().to_string());
        }
        observe(&mut span, &report, result.is_ok());
        drop(span);
        (report, result)
    }

    /// The resilience loop around [`Inner::attempt_once`]: retries
    /// transient failures with deterministic exponential backoff, walks
    /// the [`SolverDegrade`] ladder on non-convergence, and enforces the
    /// deadline and iteration budgets.
    fn execute_attempts(
        &self,
        slot: &Slot,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        start: Instant,
    ) -> Result<Computed, Error> {
        let policy = &self.resilience;
        // when the session policy already carries a deadline, the
        // tighter one wins
        let request_s = slot.deadline_ms.map(|ms| ms as f64 / 1000.0);
        let deadline_s = match (policy.deadline_s, request_s) {
            (Some(policy_s), Some(request_s)) => Some(policy_s.min(request_s)),
            (policy_s, request_s) => policy_s.or(request_s),
        };
        let mut degrade = SolverDegrade::AsConfigured;
        let mut retries_left = policy.retries;
        let mut backoff = Duration::from_millis(policy.backoff_ms);
        loop {
            match self.attempt_once(slot, exp, deps, report, degrade) {
                Ok(computed) => {
                    if let Some(limit) = policy.max_cg_iters {
                        let used = report.telemetry.solver.iterations as u64;
                        if used > limit as u64 {
                            return Err(Error::BudgetExceeded {
                                experiment: slot.name.clone(),
                                what: "cg-iterations",
                                limit: limit as u64,
                                used,
                            });
                        }
                    }
                    if degrade != SolverDegrade::AsConfigured {
                        report.fallback = Some(degrade.label().to_string());
                    }
                    return Ok(computed);
                }
                Err(e) => {
                    // the deadline bounds recovery, not first failure: a
                    // failed attempt past the budget stops retrying
                    if let Some(limit_s) = deadline_s {
                        if start.elapsed().as_secs_f64() >= limit_s {
                            return Err(Error::DeadlineExceeded {
                                experiment: slot.name.clone(),
                                limit_s,
                            });
                        }
                    }
                    match &e {
                        Error::Solve(SolveError::NoConvergence { .. }) if policy.ladder => {
                            let Some(next) = degrade.next() else {
                                return Err(e);
                            };
                            degrade = next;
                            if stacksim_obs::enabled() {
                                stacksim_obs::counter(super::obs::SOLVER_FALLBACKS).add(1);
                            }
                        }
                        e if e.is_transient() && retries_left > 0 => {
                            retries_left -= 1;
                            if stacksim_obs::enabled() {
                                stacksim_obs::counter(super::obs::RUNNER_RETRIES).add(1);
                            }
                            std::thread::sleep(backoff);
                            backoff = backoff.saturating_mul(2);
                        }
                        _ => return Err(e),
                    }
                }
            }
        }
    }

    /// One attempt: preflight, then the run itself under `catch_unwind`,
    /// then the store. The first attempt of a slot whose admission probe
    /// failed reports that failure instead.
    fn attempt_once(
        &self,
        slot: &Slot,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        degrade: SolverDegrade,
    ) -> Result<Computed, Error> {
        let (name, digest) = (&slot.name, &slot.digest);
        report.attempts += 1;
        if let Some(error) = slot.take_probe_error() {
            return Err(error);
        }
        if self.preflight {
            super::check::preflight(name, &slot.params)?;
        }
        let ctx = Ctx::new(name, slot.params, deps.clone()).with_degrade(degrade);
        let run = catch_unwind(AssertUnwindSafe(|| {
            resilience::dispatch_fault(name)?;
            let artifact = exp.run(&ctx)?;
            Ok((artifact, ctx.into_telemetry()))
        }));
        match run {
            Ok(Ok((artifact, telemetry))) => {
                report.telemetry = telemetry;
                let entry = self.cache.store(name, digest, &artifact)?;
                Ok((Arc::new(artifact), entry))
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::WorkerPanic {
                experiment: name.clone(),
            }),
        }
    }

    /// Publishes a finished slot. The slot (and, on failure, every
    /// transitive dependent) leaves the graph and the dedup table first,
    /// so a later identical submission is new work; then each is
    /// journaled and woken; then a success queues the dependents it was
    /// the last wait of.
    fn complete(&self, slot: &Slot, report: ExperimentReport, result: Result<Computed, Error>) {
        let mut st = self.lock();
        let node = self.sweep(&mut st, slot.id);
        let requested = node.as_ref().is_some_and(|n| n.requested);
        let dependents = node.map(|n| n.dependents).unwrap_or_default();
        let mut doomed = Vec::new();
        if result.is_err() {
            let mut queue: VecDeque<u64> = dependents.iter().copied().collect();
            while let Some(id) = queue.pop_front() {
                // already swept: reached through another dependency
                if let Some(node) = self.sweep(&mut st, id) {
                    queue.extend(node.dependents.iter().copied());
                    doomed.push((node.slot, node.requested));
                }
            }
        }
        drop(st);

        let ok = result.is_ok();
        let (artifact, entry, error) = match result {
            Ok((artifact, entry)) => (Some(artifact), entry, None),
            Err(error) => (None, None, Some(error)),
        };
        let outcome = RequestOutcome {
            report,
            artifact,
            entry,
        };
        self.publish(slot, requested, outcome, error);
        for (dependent, requested) in doomed {
            let skip = Error::DependencyFailed {
                experiment: dependent.name.clone(),
                dependency: slot.name.clone(),
            };
            if stacksim_obs::enabled() {
                stacksim_obs::counter(super::obs::FAILURES).add(1);
            }
            let mut report = ExperimentReport::blank(&dependent.name, dependent.digest.clone());
            report.error = Some(skip.to_string());
            report.error_kind = Some(skip.kind().to_string());
            let outcome = RequestOutcome {
                report,
                artifact: None,
                entry: None,
            };
            self.publish(&dependent, requested, outcome, None);
        }

        let mut st = self.lock();
        st.running -= 1;
        if ok {
            for id in dependents {
                if let Some(node) = st.nodes.get_mut(&id) {
                    node.waiting -= 1;
                    if node.waiting == 0 {
                        let task = (node.slot.clone(), node.exp.clone());
                        st.ready.push_back(task);
                    }
                }
            }
        }
        Self::publish_inflight(&st);
        drop(st);
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// Removes an unfinished slot from the graph and the dedup table,
    /// closing its request accounting.
    fn sweep(&self, st: &mut SchedState, id: u64) -> Option<Node> {
        let node = st.nodes.remove(&id)?;
        let key = node.slot.dedup_key();
        if st.inflight.get(&key).is_some_and(|s| s.id == id) {
            st.inflight.remove(&key);
        }
        if node.requested {
            st.requests -= 1;
            self.completed.fetch_add(1, Ordering::Relaxed);
        }
        Some(node)
    }

    /// Journals a requested slot's terminal outcome, then wakes its
    /// waiters — journal first, so a waiter that sees `done` can count
    /// on the record.
    fn publish(&self, slot: &Slot, requested: bool, outcome: RequestOutcome, error: Option<Error>) {
        if requested {
            if outcome.report.error_kind.as_deref() == Some("deadline") && stacksim_obs::enabled() {
                stacksim_obs::counter(super::obs::SERVE_DEADLINE_EXCEEDED).add(1);
            }
            if let Some(journal) = &self.journal {
                let _ = stacksim_faults::scope(self.faults.as_ref(), || {
                    journal.record_done(slot.id, outcome.is_ok())
                });
            }
        }
        slot.finish(outcome, error);
    }
}

fn probe_key(step: &Step, request: &ExperimentRequest) -> ProbeKey {
    (
        step.exp.name().to_string(),
        step.digest.clone(),
        request.faults,
    )
}

/// Counts one finished experiment in the metrics registry and closes its
/// `harness.experiment` span's fields, alike for a worker's run and an
/// admission hit.
fn observe(span: &mut stacksim_obs::Span, report: &ExperimentReport, ok: bool) {
    if !stacksim_obs::enabled() {
        return;
    }
    let wall_us = (report.wall_s * 1e6) as u64;
    stacksim_obs::counter(super::obs::EXPERIMENTS).add(1);
    stacksim_obs::counter(if report.cached {
        super::obs::CACHE_HITS
    } else {
        super::obs::CACHE_MISSES
    })
    .add(1);
    if !ok {
        stacksim_obs::counter(super::obs::FAILURES).add(1);
    }
    stacksim_obs::histogram(super::obs::EXPERIMENT_WALL_US).record(wall_us);
    span.field("cached", report.cached);
    span.field("ok", ok);
    span.field("wall_us", wall_us);
}

/// An executor worker: runs ready tasks until a shutdown has drained the
/// session. A task runs with the session fault plan in scope only if its
/// slot opted in.
fn worker(inner: &Inner) {
    while let Some((slot, exp)) = inner.next_task() {
        *slot.lock() = SlotState::Running;
        let faults = inner.faults.as_ref().filter(|_| slot.faults);
        // a panic escaping the task (outside the experiment's own
        // `catch_unwind`) must not kill the worker: the slot and its
        // dependents would never finish, and every handle on them would
        // block in `wait()` forever
        let run = catch_unwind(AssertUnwindSafe(|| {
            stacksim_faults::scope(faults, || inner.execute(&slot, exp.as_ref()))
        }));
        let (report, result) = run.unwrap_or_else(|_| {
            let error = Error::WorkerPanic {
                experiment: slot.name.clone(),
            };
            let mut report = ExperimentReport::blank(&slot.name, slot.digest.clone());
            report.error = Some(error.to_string());
            report.error_kind = Some(error.kind().to_string());
            (report, Err(error))
        });
        inner.complete(&slot, report, result);
    }
}

/// Configures and constructs a [`Sim`] session.
#[derive(Debug)]
pub struct SimBuilder {
    registry: Option<Registry>,
    base: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
    preflight: bool,
    resilience: Resilience,
    faults: Option<Faults>,
    max_pending: Option<usize>,
    journal: Option<Arc<super::journal::RequestJournal>>,
    start_paused: bool,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            registry: None,
            base: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            preflight: true,
            resilience: Resilience::default(),
            faults: None,
            max_pending: None,
            journal: None,
            start_paused: false,
        }
    }
}

impl SimBuilder {
    /// The experiment registry (defaults to [`Registry::standard`]).
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Base workload parameters requests resolve their overrides against.
    #[must_use]
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.base = params;
        self
    }

    /// Executor worker threads, running for the session's lifetime;
    /// `0` means one per available CPU.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The session's shared memo cache.
    #[must_use]
    pub fn cache(mut self, cache: MemoCache) -> Self {
        self.cache = cache;
        self
    }

    /// Whether workers lint experiment models before cache-missing runs.
    #[must_use]
    pub fn preflight(mut self, preflight: bool) -> Self {
        self.preflight = preflight;
        self
    }

    /// The failure-handling policy every experiment runs under.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// The fault plan in scope around requests that opt in via
    /// [`ExperimentRequest::faults`] and around journal appends. It is
    /// armed once, so `times`/`after` windows count over the session's
    /// lifetime. Without one, opted-in requests run clean.
    #[must_use]
    pub fn fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.faults = plan.into().map(Faults::new);
        self
    }

    /// Bound the admission queue: a submission that would push the
    /// queued+running request count past `max_pending` is shed with
    /// [`Error::Overloaded`] (and counted in `serve.shed`) instead of
    /// enqueued. Dedup hits and memo hits are always admitted — they add
    /// no work.
    /// `None` (the default) admits everything.
    #[must_use]
    pub fn max_pending(mut self, max_pending: impl Into<Option<usize>>) -> Self {
        self.max_pending = max_pending.into();
        self
    }

    /// Journal accepted requests and terminal outcomes to this
    /// crash-recovery journal (see
    /// [`RequestJournal`](super::journal::RequestJournal)). Append
    /// failures degrade durability but never fail a request.
    #[must_use]
    pub fn journal(
        mut self,
        journal: impl Into<Option<Arc<super::journal::RequestJournal>>>,
    ) -> Self {
        self.journal = journal.into();
        self
    }

    /// Start with the workers held back: submissions queue (and
    /// deduplicate) but nothing runs until [`Sim::resume`].
    #[must_use]
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// Builds the session and starts its executor workers.
    #[must_use]
    pub fn build(self) -> Sim {
        let jobs = worker_count(self.jobs);
        let inner = Arc::new(Inner {
            registry: self.registry.unwrap_or_else(Registry::standard),
            params: self.base,
            jobs,
            cache: self.cache,
            preflight: self.preflight,
            resilience: self.resilience,
            faults: self.faults,
            max_pending: self.max_pending,
            journal: self.journal,
            state: Mutex::new(SchedState {
                nodes: HashMap::new(),
                ready: VecDeque::new(),
                inflight: HashMap::new(),
                requests: 0,
                running: 0,
                paused: self.start_paused,
                shutdown: false,
                next_id: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            submitted: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..jobs)
            .filter_map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("sim-worker-{i}"))
                    .spawn(move || worker(&inner))
                    .ok()
            })
            .collect();
        Sim {
            inner,
            workers: Mutex::new(workers),
        }
    }
}

/// A long-lived simulation session: submit [`ExperimentRequest`]s, poll
/// or await their [`RequestHandle`]s. See the `session` module docs for the
/// request lifecycle.
pub struct Sim {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("base", &self.inner.params)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Starts a builder at the defaults: standard registry, paper-scale
    /// base parameters, disabled cache, default resilience, no faults.
    #[must_use]
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }

    /// The session's experiment registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The base workload parameters requests resolve against.
    pub fn base_params(&self) -> WorkloadParams {
        self.inner.params
    }

    /// The executor worker count (`jobs`, with `0` resolved to one per
    /// CPU).
    pub fn jobs(&self) -> usize {
        self.inner.jobs
    }

    /// The session's memo cache.
    pub fn cache(&self) -> &MemoCache {
        &self.inner.cache
    }

    /// The session's armed fault plan, for callers that serve its
    /// network sites (`serve.*`) or report its injected count.
    pub fn faults(&self) -> Option<&Faults> {
        self.inner.faults.as_ref()
    }

    /// Submits a request and returns its handle immediately.
    ///
    /// A request identical to one already queued or running (same
    /// experiment, same digest, same fault opt-in) is *deduplicated*: the
    /// returned handle shares the existing slot and id, and the
    /// experiment runs once. A request the memo cache already holds is
    /// answered here: its handle is `Done` (`cached: true`) on return.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for names not in the registry;
    /// [`Error::MissingDependency`] / [`Error::DependencyCycle`] for a
    /// broken dependency graph; [`Error::Overloaded`] when admission
    /// control sheds the request (the queued+running count sits at the
    /// session's `max_pending` bound — nothing was enqueued, the caller
    /// may retry later); [`Error::Internal`] for invalid parameter
    /// overrides or a session already shut down.
    pub fn submit(&self, request: &ExperimentRequest) -> Result<RequestHandle, Error> {
        let mut handles = self.submit_all(std::slice::from_ref(request))?;
        handles.pop().ok_or_else(|| Error::Internal {
            detail: format!("request '{}' got no handle", request.name),
        })
    }

    /// Submits several requests under one hold of the session lock, so
    /// no worker can finish one before the next is deduplicated against
    /// it. Every request is planned and probed before any is enqueued; an
    /// admission refusal stops at that request, with the ones before it
    /// submitted.
    pub(super) fn submit_all(
        &self,
        requests: &[ExperimentRequest],
    ) -> Result<Vec<RequestHandle>, Error> {
        let plans = requests
            .iter()
            .map(|r| self.inner.plan(r))
            .collect::<Result<Vec<_>, _>>()?;
        // the memo probe reads the disk, so it runs before the lock
        let mut probes = Probes::new();
        for (request, (_, steps)) in requests.iter().zip(&plans) {
            self.inner.probe_plan(request, steps, &mut probes);
        }
        let mut st = self.inner.lock();
        let mut handles = Vec::with_capacity(requests.len());
        let mut accepted = Vec::new();
        let mut refused = None;
        for (request, (params, steps)) in requests.iter().zip(&plans) {
            match self
                .inner
                .admit(&mut st, request, *params, steps, &mut probes)
            {
                Ok((slot, fresh)) => {
                    if fresh {
                        accepted.push((slot.id, request));
                    }
                    handles.push(RequestHandle { slot });
                }
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        Inner::publish_inflight(&st);
        drop(st);
        // durability is best-effort: a failed append (disk gone, or the
        // session.journal fault site) degrades recovery, not the request
        if let Some(journal) = &self.inner.journal {
            for (id, request) in accepted {
                let _ =
                    stacksim_faults::scope(self.faults(), || journal.record_accepted(id, request));
            }
        }
        self.inner.work.notify_all();
        match refused {
            Some(e) => Err(e),
            None => Ok(handles),
        }
    }

    /// Runs a selection of experiments plus their transitive
    /// dependencies to completion and returns artifacts and telemetry:
    /// report rows in registration order, root-cause errors in the same
    /// order. Members already in flight in the session are shared, not
    /// re-run. Every request opts into the session's fault plan, if it
    /// has one.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for names not in the registry,
    /// [`Error::MissingDependency`] for dangling dependency edges and
    /// [`Error::DependencyCycle`] for cyclic graphs, before anything
    /// runs; the admission errors of [`Sim::submit`]. Failures *inside*
    /// experiments do not abort the run; they are recorded in
    /// [`RunOutcome::errors`] and the report.
    pub fn run(&self, names: &[String]) -> Result<RunOutcome, Error> {
        let start = Instant::now();
        let mut wanted = HashSet::new();
        for name in names {
            let (_, steps) = self.inner.plan(&ExperimentRequest::new(name.as_str()))?;
            wanted.extend(steps.iter().map(|step| step.exp.name().to_string()));
        }
        let closure: Vec<&str> = self
            .registry()
            .names()
            .into_iter()
            .filter(|name| wanted.contains(*name))
            .collect();
        let mut run_span = stacksim_obs::span(super::obs::EVENT_RUN);
        run_span.field("experiments", closure.len() as u64);
        let jobs = self.inner.jobs.min(closure.len().max(1));
        let requests: Vec<ExperimentRequest> = closure
            .iter()
            .map(|name| ExperimentRequest::new(*name).faults(self.faults().is_some()))
            .collect();
        let handles = self.submit_all(&requests)?;

        let mut entries = Vec::with_capacity(handles.len());
        let mut artifacts = HashMap::new();
        let mut errors = Vec::new();
        for handle in &handles {
            let outcome = handle.wait();
            entries.push(outcome.report.clone());
            if let Some(artifact) = &outcome.artifact {
                artifacts.insert(handle.name().to_string(), artifact.clone());
            }
            if let Some(error) = handle.take_error() {
                errors.push((handle.name().to_string(), error));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        run_span.field("wall_us", (wall_s * 1e6) as u64);
        drop(run_span);
        Ok(RunOutcome {
            report: RunReport {
                jobs,
                wall_s,
                entries,
            },
            artifacts,
            errors,
        })
    }

    /// Unpauses a session built with
    /// [`start_paused`](SimBuilder::start_paused), letting the workers
    /// take everything queued so far.
    pub fn resume(&self) {
        self.inner.lock().paused = false;
        self.inner.work.notify_all();
    }

    /// Blocks until no request is queued or running. On a paused session
    /// this returns once nothing is running.
    pub fn wait_idle(&self) {
        let mut st = self.inner.lock();
        while st.running > 0 || (!st.paused && !st.nodes.is_empty()) {
            st = self
                .inner
                .idle
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A snapshot of the session's request accounting.
    pub fn stats(&self) -> SimStats {
        let inflight = self.inner.lock().requests as u64;
        SimStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            dedup_hits: self.inner.dedup_hits.load(Ordering::Relaxed),
            inflight,
            completed: self.inner.completed.load(Ordering::Relaxed),
        }
    }

    /// Shuts the session down gracefully: everything already submitted
    /// still runs (a paused session is resumed for the drain), then the
    /// workers exit and are joined. Further submissions fail.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
            st.paused = false;
        }
        self.inner.work.notify_all();
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Resolves a `jobs` setting: `0` means one worker per available CPU.
fn worker_count(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        jobs
    }
}

/// Runs a single experiment (plus dependencies) with a disabled cache —
/// the one-call convenience path for embedders and tests.
///
/// # Errors
///
/// Structural registry problems, or the first root-cause experiment
/// failure.
pub fn run_one(name: &str, params: WorkloadParams) -> Result<Artifact, Error> {
    let mut outcome = Sim::builder()
        .params(params)
        .build()
        .run(&[name.to_string()])?;
    if let Some(artifact) = outcome.artifacts.remove(name) {
        return Ok(Arc::try_unwrap(artifact).unwrap_or_else(|a| (*a).clone()));
    }
    match outcome.errors.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Err(Error::ArtifactUnavailable {
            experiment: name.to_string(),
            wanted: name.to_string(),
        }),
    }
}
