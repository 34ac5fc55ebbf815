//! The [`Experiment`] trait and the per-run context handed to it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use stacksim_mem::MemTelemetry;
use stacksim_thermal::{SolveStats, SolverConfig};
use stacksim_workloads::WorkloadParams;

use super::artifact::Artifact;
use super::json::Json;
use super::resilience::SolverDegrade;
use crate::error::Error;

/// One table or figure of the paper, registered with the harness.
///
/// Implementations must be cheap to construct and [`Send`] + [`Sync`]: the
/// runner shares them across worker threads. All heavy state belongs in
/// [`run`](Experiment::run).
pub trait Experiment: Send + Sync {
    /// The registry name (e.g. `"fig5:gauss"`). Stable across runs — it is
    /// half of the memo-cache key.
    fn name(&self) -> &str;

    /// Names of experiments whose artifacts [`run`](Experiment::run) reads
    /// through [`Ctx::dep`]. The runner completes these first and refuses
    /// registries with cycles or dangling edges.
    fn deps(&self) -> Vec<String> {
        Vec::new()
    }

    /// A stable hex digest of every input that affects this experiment's
    /// result — the other half of the memo-cache key. Two runs with equal
    /// digests may share a cached artifact; any config change must change
    /// the digest.
    fn params_digest(&self, params: &WorkloadParams) -> String;

    /// Which [`WorkloadParams`] fields this experiment's result depends on.
    /// The digest-coverage audit (`SL050`/`SL051`) perturbs each field and
    /// verifies the declaration against [`params_digest`](Self::params_digest)'s actual
    /// behaviour, so a new config field cannot silently alias cache
    /// entries. Defaults to "sensitive to everything" — the safe answer
    /// for experiments that thread the whole parameter set through.
    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::all()
    }

    /// Produces the artifact, recording telemetry into `ctx`.
    ///
    /// # Errors
    ///
    /// Any study failure; the runner records it and skips dependents.
    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error>;
}

/// Which [`WorkloadParams`] fields an experiment declares as inputs to its
/// [`Experiment::params_digest`]. One flag per field; adding a field to
/// `WorkloadParams` means adding a flag here, which makes the digest audit
/// re-examine every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSensitivity {
    /// The digest depends on `params.scale`.
    pub scale: bool,
    /// The digest depends on `params.seed`.
    pub seed: bool,
    /// The digest depends on `params.threads`.
    pub threads: bool,
    /// The digest depends on `params.chunk`.
    pub chunk: bool,
    /// The digest depends on `params.solver_threads`. Always `false` in the
    /// standard registry: the solver's determinism contract makes this an
    /// execution-only knob (bit-identical results for any thread count), so
    /// a digest reacting to it would needlessly split the cache — the audit
    /// flags that as `SL051`.
    pub solver_threads: bool,
}

impl ParamSensitivity {
    /// Sensitive to every *semantic* workload parameter.
    /// `solver_threads` stays `false`: it is result-neutral by contract.
    pub fn all() -> Self {
        ParamSensitivity {
            scale: true,
            seed: true,
            threads: true,
            chunk: true,
            solver_threads: false,
        }
    }

    /// Sensitive to no workload parameter (a fixed-input experiment).
    pub fn none() -> Self {
        ParamSensitivity {
            scale: false,
            seed: false,
            threads: false,
            chunk: false,
            solver_threads: false,
        }
    }

    /// Sensitive only to the generation scale.
    pub fn scale_only() -> Self {
        ParamSensitivity {
            scale: true,
            ..Self::none()
        }
    }
}

/// Telemetry accumulated while one experiment runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Accumulated conjugate-gradient statistics of every thermal solve.
    pub solver: SolveStats,
    /// One record per simulated memory trace.
    pub mem_runs: Vec<MemRun>,
}

/// One memory-engine run inside an experiment (a benchmark × option
/// point), labelled for the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRun {
    /// `"<benchmark>/<option>"`.
    pub label: String,
    /// The engine's summary for that trace.
    pub telemetry: MemTelemetry,
}

impl Telemetry {
    /// Total memory references simulated across all recorded traces.
    pub fn trace_records(&self) -> u64 {
        self.mem_runs
            .iter()
            .map(|r| r.telemetry.trace_records)
            .sum()
    }

    /// The JSON form used inside the run report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cg_solves", Json::Num(self.solver.solves as f64)),
            ("cg_iterations", Json::Num(self.solver.iterations as f64)),
            ("cg_residual", Json::Num(self.solver.residual)),
            ("trace_records", Json::Num(self.trace_records() as f64)),
            (
                "mem_runs",
                Json::Arr(
                    self.mem_runs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("label", Json::Str(r.label.clone())),
                                ("trace_records", Json::Num(r.telemetry.trace_records as f64)),
                                ("cpma", Json::Num(r.telemetry.cpma)),
                                (
                                    "offdie_gb_per_sec",
                                    Json::Num(r.telemetry.offdie_gb_per_sec),
                                ),
                                ("l1_hit_rate", Json::Num(r.telemetry.l1_hit_rate)),
                                ("memory_fraction", Json::Num(r.telemetry.memory_fraction)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The context one experiment runs in: workload parameters, the artifacts
/// of its declared dependencies, and a telemetry sink.
#[derive(Debug)]
pub struct Ctx {
    /// Workload generation parameters for this run.
    pub params: WorkloadParams,
    experiment: String,
    deps: HashMap<String, Arc<Artifact>>,
    telemetry: RefCell<Telemetry>,
    degrade: SolverDegrade,
}

impl Ctx {
    /// Builds a context for `experiment` with the given dependency
    /// artifacts.
    pub fn new(
        experiment: impl Into<String>,
        params: WorkloadParams,
        deps: HashMap<String, Arc<Artifact>>,
    ) -> Self {
        Ctx {
            params,
            experiment: experiment.into(),
            deps,
            telemetry: RefCell::new(Telemetry::default()),
            degrade: SolverDegrade::AsConfigured,
        }
    }

    /// Sets the degradation-ladder rung this attempt runs at (the runner's
    /// resilience loop sets this on retries after non-convergence).
    #[must_use]
    pub fn with_degrade(mut self, degrade: SolverDegrade) -> Self {
        self.degrade = degrade;
        self
    }

    /// The degradation rung of this attempt.
    pub fn degrade(&self) -> SolverDegrade {
        self.degrade
    }

    /// Applies this attempt's degradation rung to an experiment's base
    /// solver configuration. Experiments build their config as usual and
    /// route it through here so the runner's ladder can soften it.
    pub fn solver_config(&self, base: SolverConfig) -> SolverConfig {
        self.degrade.apply(base)
    }

    /// The artifact of a declared dependency.
    ///
    /// # Errors
    ///
    /// [`Error::ArtifactUnavailable`] if `name` was not declared in
    /// [`Experiment::deps`] (and therefore was not provided).
    pub fn dep(&self, name: &str) -> Result<&Artifact, Error> {
        self.deps
            .get(name)
            .map(|a| a.as_ref())
            .ok_or_else(|| Error::ArtifactUnavailable {
                experiment: self.experiment.clone(),
                wanted: name.to_string(),
            })
    }

    /// Records thermal-solver statistics.
    pub fn record_solver(&self, stats: SolveStats) {
        self.telemetry.borrow_mut().solver.absorb(stats);
    }

    /// Records one memory-engine trace run.
    pub fn record_mem(&self, label: impl Into<String>, telemetry: MemTelemetry) {
        self.telemetry.borrow_mut().mem_runs.push(MemRun {
            label: label.into(),
            telemetry,
        });
    }

    /// Takes the accumulated telemetry out of the context.
    pub fn into_telemetry(self) -> Telemetry {
        self.telemetry.into_inner()
    }
}
