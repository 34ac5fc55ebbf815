//! Dependency-aware parallel execution of registered experiments.
//!
//! The runner expands a selection to its transitive dependency closure
//! and hands it to a one-shot [`Sim`] session, whose executor workers run
//! each experiment once its dependencies finished (the session refuses
//! cycles and dangling edges). Each experiment first consults the memo
//! cache; a hit skips the run entirely (telemetry shows zero solver
//! iterations), a miss runs, records telemetry and stores the artifact.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stacksim_thermal::SolveError;
use stacksim_workloads::WorkloadParams;

use super::artifact::Artifact;
use super::cache::MemoCache;
use super::experiment::{Ctx, Experiment, Telemetry};
use super::json::Json;
use super::registry::Registry;
use super::resilience::{self, Resilience, SolverDegrade};
use super::session::{ExperimentRequest, Sim};
use crate::error::Error;

/// How a [`Runner`] executes.
///
/// `#[non_exhaustive]`: construct via [`RunOptions::builder`] (or start
/// from [`RunOptions::default`] and set fields) so new knobs can land
/// without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunOptions {
    /// Workload parameters handed to every experiment.
    pub params: WorkloadParams,
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// The memo cache (disabled by default).
    pub cache: MemoCache,
    /// Run the `stacksim check` lint passes over an experiment's model
    /// before dispatching it (cache misses only — a hit proves the same
    /// configuration already ran to completion). On by default; invalid
    /// models fail fast with [`Error::InvalidModel`] instead of panicking
    /// mid-run.
    pub preflight: bool,
    /// Failure-handling policy: transient retries, cache quarantine, the
    /// solver degradation ladder, and per-experiment budgets.
    pub resilience: Resilience,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            params: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            preflight: true,
            resilience: Resilience::default(),
        }
    }
}

impl RunOptions {
    /// Starts a builder at the defaults (paper-scale params, one worker
    /// per CPU, disabled cache, preflight on, default resilience).
    #[must_use]
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder {
            options: RunOptions::default(),
        }
    }
}

/// Builds a [`RunOptions`]; the supported way to construct one now that
/// the struct is `#[non_exhaustive]`.
#[derive(Debug, Clone)]
pub struct RunOptionsBuilder {
    options: RunOptions,
}

impl RunOptionsBuilder {
    /// Workload parameters handed to every experiment.
    #[must_use]
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.options.params = params;
        self
    }

    /// Worker threads; `0` means one per available CPU.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Run everything on one worker thread (`jobs = 1`).
    #[must_use]
    pub fn serial(self) -> Self {
        self.jobs(1)
    }

    /// The memo cache to consult and fill.
    #[must_use]
    pub fn cache(mut self, cache: MemoCache) -> Self {
        self.options.cache = cache;
        self
    }

    /// Whether to lint an experiment's model before a cache-missing run.
    #[must_use]
    pub fn preflight(mut self, preflight: bool) -> Self {
        self.options.preflight = preflight;
        self
    }

    /// The failure-handling policy.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.options.resilience = resilience;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> RunOptions {
        self.options
    }
}

/// One experiment's row in the run report.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The experiment name.
    pub name: String,
    /// Its configuration digest (the cache key).
    pub digest: String,
    /// Whether the artifact came from the memo cache.
    pub cached: bool,
    /// Wall time in seconds (near zero for cache hits).
    pub wall_s: f64,
    /// The failure, if the experiment did not produce an artifact.
    pub error: Option<String>,
    /// Stable machine-readable failure class ([`Error::kind`]), set
    /// whenever `error` is.
    pub error_kind: Option<String>,
    /// Execution attempts made: 1 for a clean run or cache hit, more
    /// when retries or ladder rungs were needed, 0 for dependency skips.
    pub attempts: u64,
    /// Whether a corrupt cache entry was quarantined along the way.
    pub quarantined: bool,
    /// The degradation-ladder rung that finally succeeded, if the run
    /// needed one (`jacobi` / `raised-iters` / `cold-start`).
    pub fallback: Option<String>,
    /// Solver/memory telemetry recorded during the run (empty for cache
    /// hits — nothing was simulated).
    pub telemetry: Telemetry,
}

impl ExperimentReport {
    /// A fresh row with nothing recorded yet.
    pub(super) fn blank(name: &str, digest: String) -> ExperimentReport {
        ExperimentReport {
            name: name.to_string(),
            digest,
            cached: false,
            wall_s: 0.0,
            error: None,
            error_kind: None,
            attempts: 0,
            quarantined: false,
            fallback: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The row's JSON form, as embedded in [`RunReport::to_json`] (and
    /// served by `stacksim serve`'s status endpoint).
    pub fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("digest", Json::Str(self.digest.clone())),
            ("cached", Json::Bool(self.cached)),
            ("wall_s", Json::Num(self.wall_s)),
            ("error", opt_str(&self.error)),
            ("error_kind", opt_str(&self.error_kind)),
            ("attempts", Json::Num(self.attempts as f64)),
            ("quarantined", Json::Bool(self.quarantined)),
            ("fallback", opt_str(&self.fallback)),
            ("telemetry", self.telemetry.to_json()),
        ])
    }
}

/// The machine-readable record of one harness invocation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall time in seconds.
    pub wall_s: f64,
    /// Per-experiment rows, in dependency (schedule) order.
    pub entries: Vec<ExperimentReport>,
}

impl RunReport {
    /// The JSON document written by `stacksim run --report`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("jobs", Json::Num(self.jobs as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "experiments",
                Json::Arr(self.entries.iter().map(ExperimentReport::to_json).collect()),
            ),
        ])
    }

    /// Writes the JSON report to a file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn write(&self, path: &std::path::Path) -> Result<(), Error> {
        std::fs::write(path, self.to_json().encode()).map_err(|e| Error::io(path, e))
    }

    /// Total CG iterations across all experiments — zero when everything
    /// came from the cache.
    pub fn total_cg_iterations(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.telemetry.solver.iterations)
            .sum()
    }

    /// Total simulated memory references across all experiments.
    pub fn total_trace_records(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.telemetry.trace_records())
            .sum()
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The telemetry report.
    pub report: RunReport,
    /// Artifacts by experiment name (absent for failed experiments).
    pub artifacts: HashMap<String, Arc<Artifact>>,
    /// Root-cause failures, by experiment name (dependency skips are only
    /// in the report).
    pub errors: Vec<(String, Error)>,
}

/// Executes experiments from a [`Registry`] under [`RunOptions`].
#[derive(Debug)]
pub struct Runner {
    registry: Registry,
    options: RunOptions,
}

impl Runner {
    /// Pairs a registry with run options.
    pub fn new(registry: Registry, options: RunOptions) -> Self {
        Runner { registry, options }
    }

    /// Runs every registered experiment.
    ///
    /// # Errors
    ///
    /// Structural registry problems only; per-experiment failures are
    /// recorded in the outcome.
    pub fn run_all(&self) -> Result<RunOutcome, Error> {
        let names: Vec<String> = self
            .registry
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        self.run(&names)
    }

    /// Runs a selection of experiments (plus their transitive
    /// dependencies) and returns artifacts and telemetry.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for names not in the registry,
    /// [`Error::MissingDependency`] for dangling dependency edges and
    /// [`Error::DependencyCycle`] for cyclic graphs. Failures *inside*
    /// experiments do not abort the run; they are recorded in
    /// [`RunOutcome::errors`] and the report.
    pub fn run(&self, names: &[String]) -> Result<RunOutcome, Error> {
        let start = Instant::now();
        let selection = self.expand(names)?;
        let mut run_span = stacksim_obs::span(super::obs::EVENT_RUN);
        run_span.field("experiments", selection.len() as u64);
        let jobs = worker_count(self.options.jobs).min(selection.len().max(1));

        // tasks carry the caller's fault plan, so one schedule covers the
        // whole run however it fans out
        let faults = stacksim_faults::current();
        let requests: Vec<ExperimentRequest> = selection
            .iter()
            .map(|name| ExperimentRequest::new(name).faults(faults.is_some()))
            .collect();
        let sim = Sim::builder()
            .registry(self.registry.clone())
            .params(self.options.params)
            .jobs(jobs)
            .cache(self.options.cache.clone())
            .preflight(self.options.preflight)
            .resilience(self.options.resilience.clone())
            .armed_faults(faults)
            .build();
        let handles = sim.submit_all(&requests)?;

        // report rows in deterministic (selection) order
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
        drop(sim);
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

    /// Expands names to the transitive dependency closure, in
    /// registration order.
    fn expand(&self, names: &[String]) -> Result<Vec<String>, Error> {
        let mut wanted = HashSet::new();
        let mut stack = Vec::new();
        for name in names {
            if self.registry.get(name).is_none() {
                return Err(Error::UnknownExperiment { name: name.clone() });
            }
            if wanted.insert(name.clone()) {
                stack.push(name.clone());
            }
        }
        while let Some(name) = stack.pop() {
            let exp = self.registry.get(&name).ok_or_else(|| Error::Internal {
                detail: format!("'{name}' vanished from the registry mid-expansion"),
            })?;
            for dep in exp.deps() {
                if self.registry.get(&dep).is_none() {
                    return Err(Error::MissingDependency {
                        experiment: name.clone(),
                        dependency: dep,
                    });
                }
                if wanted.insert(dep.clone()) {
                    stack.push(dep);
                }
            }
        }
        Ok(self
            .registry
            .names()
            .into_iter()
            .filter(|n| wanted.contains(*n))
            .map(str::to_string)
            .collect())
    }

    /// Runs one experiment under the resilience policy: cache probe, then
    /// the real run on a miss, with retries, quarantine and the solver
    /// degradation ladder wrapped around every attempt.
    pub(super) fn execute(
        options: &RunOptions,
        exp: &dyn Experiment,
        deps: HashMap<String, Arc<Artifact>>,
    ) -> (ExperimentReport, Result<Artifact, Error>) {
        let name = exp.name().to_string();
        let digest = exp.params_digest(&options.params);
        let start = Instant::now();
        let mut span = stacksim_obs::span(super::obs::EVENT_EXPERIMENT);
        span.field("experiment", name.clone());
        let mut report = ExperimentReport::blank(&name, digest);

        let result = Self::execute_attempts(options, exp, &deps, &mut report, start);

        report.wall_s = start.elapsed().as_secs_f64();
        if let Err(e) = &result {
            report.error = Some(e.to_string());
            report.error_kind = Some(e.kind().to_string());
        }
        if stacksim_obs::enabled() {
            let wall_us = (report.wall_s * 1e6) as u64;
            stacksim_obs::counter(super::obs::EXPERIMENTS).add(1);
            stacksim_obs::counter(if report.cached {
                super::obs::CACHE_HITS
            } else {
                super::obs::CACHE_MISSES
            })
            .add(1);
            if result.is_err() {
                stacksim_obs::counter(super::obs::FAILURES).add(1);
            }
            stacksim_obs::histogram(super::obs::EXPERIMENT_WALL_US).record(wall_us);
            span.field("cached", report.cached);
            span.field("ok", result.is_ok());
            span.field("wall_us", wall_us);
        }
        drop(span);
        (report, result)
    }

    /// The resilience loop around [`Runner::attempt_once`]: retries
    /// transient failures with deterministic exponential backoff, walks
    /// the [`SolverDegrade`] ladder on non-convergence, and enforces the
    /// per-experiment deadline and iteration budgets.
    fn execute_attempts(
        options: &RunOptions,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        start: Instant,
    ) -> Result<Artifact, Error> {
        let policy = &options.resilience;
        let mut degrade = SolverDegrade::AsConfigured;
        let mut retries_left = policy.retries;
        let mut backoff = Duration::from_millis(policy.backoff_ms);
        loop {
            match Self::attempt_once(options, exp, deps, report, degrade) {
                Ok(artifact) => {
                    if let Some(limit) = policy.max_cg_iters {
                        let used = report.telemetry.solver.iterations as u64;
                        if used > limit as u64 {
                            return Err(Error::BudgetExceeded {
                                experiment: report.name.clone(),
                                what: "cg-iterations",
                                limit: limit as u64,
                                used,
                            });
                        }
                    }
                    if degrade != SolverDegrade::AsConfigured {
                        report.fallback = Some(degrade.label().to_string());
                    }
                    return Ok(artifact);
                }
                Err(e) => {
                    // the deadline bounds recovery, not first failure: a
                    // failed attempt past the budget stops retrying
                    if let Some(limit_s) = policy.deadline_s {
                        if start.elapsed().as_secs_f64() >= limit_s {
                            return Err(Error::DeadlineExceeded {
                                experiment: report.name.clone(),
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

    /// One attempt: cache probe (with quarantine on corruption), then
    /// preflight and the run itself under `catch_unwind`.
    fn attempt_once(
        options: &RunOptions,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        degrade: SolverDegrade,
    ) -> Result<Artifact, Error> {
        let name = report.name.clone();
        let digest = report.digest.clone();
        report.attempts += 1;
        match options.cache.load(&name, &digest) {
            Ok(Some(artifact)) => {
                report.cached = true;
                return Ok(artifact);
            }
            Ok(None) => {}
            Err(Error::CacheCorrupt { .. }) if options.resilience.quarantine => {
                // move the poisoned entry aside and recompute in place —
                // the run heals the cache instead of failing on it
                options.cache.quarantine(&name, &digest)?;
                report.quarantined = true;
            }
            Err(e) => return Err(e),
        }
        if options.preflight {
            super::check::preflight(&name, &options.params)?;
        }
        let ctx = Ctx::new(&name, options.params, deps.clone()).with_degrade(degrade);
        let run = catch_unwind(AssertUnwindSafe(|| {
            resilience::dispatch_fault(&name)?;
            let artifact = exp.run(&ctx)?;
            Ok((artifact, ctx.into_telemetry()))
        }));
        match run {
            Ok(Ok((artifact, telemetry))) => {
                report.telemetry = telemetry;
                options.cache.store(&name, &digest, &artifact)?;
                Ok(artifact)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::WorkerPanic {
                experiment: name.clone(),
            }),
        }
    }
}

/// Resolves a `jobs` setting: `0` means one worker per available CPU.
pub(super) fn worker_count(jobs: usize) -> usize {
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
    let runner = Runner::new(
        Registry::standard(),
        RunOptions {
            params,
            ..RunOptions::default()
        },
    );
    let mut outcome = runner.run(&[name.to_string()])?;
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
