//! The records a run produces: one [`ExperimentReport`] row per
//! experiment, the [`RunReport`] that `stacksim run --report` writes, and
//! the [`RunOutcome`] that [`Sim::run`](super::Sim::run) returns.

use std::collections::HashMap;
use std::sync::Arc;

use super::artifact::Artifact;
use super::experiment::Telemetry;
use super::json::Json;
use crate::error::Error;

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
    /// Per-experiment rows, in registration order.
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
