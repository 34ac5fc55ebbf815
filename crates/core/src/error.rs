//! The one error type every study entry point returns.
//!
//! Before the harness existed each driver had its own shape — `fig5` and
//! `table4` were infallible, the thermal studies returned the solver's
//! [`SolveError`] directly, and the harness adds cache and scheduling
//! failures of its own. [`Error`] unifies all of them so callers match on
//! a single enum and `?` composes across the whole crate.

use std::fmt;
use std::path::PathBuf;

use stacksim_thermal::SolveError;

/// Any failure produced by the study drivers or the experiment harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The thermal solver failed (empty stack, bad power map, CG stall).
    Solve(SolveError),
    /// A memory-system configuration was rejected by validation before a
    /// hierarchy or engine could be built from it.
    Config(stacksim_mem::ConfigError),
    /// The logic+logic floorplan fold failed (a block could not be
    /// packed onto either die at the configured slack).
    Fold(stacksim_floorplan::FoldError),
    /// A filesystem operation of the memo cache or run report failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A memoized artifact on disk could not be parsed.
    CacheCorrupt {
        /// The cache file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// A stored cache entry no longer holds the bytes its load or store
    /// reported: it was evicted, cleaned or quarantined, or rewritten.
    CacheEntryChanged {
        /// The cache file.
        path: PathBuf,
        /// What differs.
        detail: String,
    },
    /// An experiment digest handed to the memo cache was not the
    /// lowercase-hex shape `Digest::hex` produces, so no cache path can
    /// be derived for it.
    MalformedDigest {
        /// The offending digest string.
        digest: String,
    },
    /// A requested experiment name is not in the registry.
    UnknownExperiment {
        /// The requested name.
        name: String,
    },
    /// An experiment names a dependency that is not registered.
    MissingDependency {
        /// The dependent experiment.
        experiment: String,
        /// The missing dependency.
        dependency: String,
    },
    /// The registry's dependency graph contains a cycle.
    DependencyCycle {
        /// An experiment on the cycle.
        name: String,
    },
    /// A dependency failed, so this experiment could not run.
    DependencyFailed {
        /// The experiment that was skipped.
        experiment: String,
        /// The dependency that failed first.
        dependency: String,
    },
    /// A worker thread running an experiment panicked.
    WorkerPanic {
        /// The experiment whose run panicked.
        experiment: String,
    },
    /// An experiment asked the run context for an artifact that is not
    /// available (not a declared dependency, or not yet produced).
    ArtifactUnavailable {
        /// The requesting experiment.
        experiment: String,
        /// The artifact asked for.
        wanted: String,
    },
    /// An artifact was present but of a different kind than the reader
    /// expected — a typed mismatch the runner can degrade on instead of
    /// panicking a worker.
    ArtifactKind {
        /// The experiment reading the artifact.
        experiment: String,
        /// Which artifact (usually a dependency name) was read.
        artifact: String,
        /// The kind the reader expected.
        expected: String,
        /// The kind actually found.
        actual: String,
    },
    /// The per-experiment wall-clock budget ran out before the
    /// experiment recovered (see
    /// [`Resilience::deadline_s`](crate::harness::Resilience)).
    DeadlineExceeded {
        /// The experiment that ran out of time.
        experiment: String,
        /// The configured budget in seconds.
        limit_s: f64,
    },
    /// The session's admission control shed this submission: the number
    /// of queued-or-running requests already sits at the configured
    /// bound. Retryable by the *caller* (after backoff) — nothing was
    /// enqueued.
    Overloaded {
        /// Requests queued or running when the submission arrived.
        pending: u64,
        /// The configured admission bound.
        limit: u64,
    },
    /// Static validation rejected an experiment's machine description
    /// before dispatch (the `stacksim check` preflight).
    InvalidModel {
        /// The experiment whose model failed validation.
        experiment: String,
        /// The lint report with the rejecting diagnostics.
        report: stacksim_lint::Report,
    },
    /// An internal invariant of the harness was violated — a bug in the
    /// harness itself, not in the caller's configuration.
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Solve(e) => write!(f, "thermal solve failed: {e}"),
            Error::Config(e) => write!(f, "invalid memory configuration: {e}"),
            Error::Fold(e) => write!(f, "floorplan fold failed: {e}"),
            Error::Io { path, source } => {
                write!(f, "i/o error at {}: {source}", path.display())
            }
            Error::CacheCorrupt { path, detail } => {
                write!(f, "corrupt cache entry {}: {detail}", path.display())
            }
            Error::CacheEntryChanged { path, detail } => {
                write!(f, "cache entry {} changed: {detail}", path.display())
            }
            Error::MalformedDigest { digest } => {
                write!(
                    f,
                    "malformed experiment digest '{digest}': expected lowercase hex"
                )
            }
            Error::UnknownExperiment { name } => {
                write!(f, "no experiment named '{name}' is registered")
            }
            Error::MissingDependency {
                experiment,
                dependency,
            } => write!(
                f,
                "experiment '{experiment}' depends on unregistered '{dependency}'"
            ),
            Error::DependencyCycle { name } => {
                write!(f, "dependency cycle through experiment '{name}'")
            }
            Error::DependencyFailed {
                experiment,
                dependency,
            } => write!(
                f,
                "experiment '{experiment}' skipped: dependency '{dependency}' failed"
            ),
            Error::WorkerPanic { experiment } => {
                write!(f, "experiment '{experiment}' panicked")
            }
            Error::ArtifactUnavailable { experiment, wanted } => write!(
                f,
                "experiment '{experiment}' asked for unavailable artifact '{wanted}'"
            ),
            Error::ArtifactKind {
                experiment,
                artifact,
                expected,
                actual,
            } => write!(
                f,
                "experiment '{experiment}' read artifact '{artifact}' expecting kind \
                 '{expected}' but found '{actual}'"
            ),
            Error::DeadlineExceeded {
                experiment,
                limit_s,
            } => write!(
                f,
                "experiment '{experiment}' exceeded its {limit_s} s deadline budget"
            ),
            Error::Overloaded { pending, limit } => write!(
                f,
                "session overloaded: {pending} requests in flight at the limit of {limit}"
            ),
            Error::InvalidModel { experiment, report } => write!(
                f,
                "experiment '{experiment}' failed model validation:\n{}",
                report.render_pretty()
            ),
            Error::Internal { detail } => {
                write!(f, "internal harness invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Solve(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Fold(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Self {
        Error::Solve(e)
    }
}

impl From<stacksim_mem::ConfigError> for Error {
    fn from(e: stacksim_mem::ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<stacksim_floorplan::FoldError> for Error {
    fn from(e: stacksim_floorplan::FoldError) -> Self {
        Error::Fold(e)
    }
}

impl Error {
    /// Wraps an I/O error with the path it happened at.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        Error::Io {
            path: path.into(),
            source,
        }
    }

    /// A stable machine-readable tag for this failure class, used by the
    /// `stacksim-failures/1` report (so consumers never parse Display
    /// text).
    pub fn kind(&self) -> &'static str {
        match self {
            Error::Solve(_) => "solve",
            Error::Config(_) => "config",
            Error::Fold(_) => "fold",
            Error::Io { .. } => "io",
            Error::CacheCorrupt { .. } => "cache-corrupt",
            Error::CacheEntryChanged { .. } => "cache-entry-changed",
            Error::MalformedDigest { .. } => "malformed-digest",
            Error::UnknownExperiment { .. } => "unknown-experiment",
            Error::MissingDependency { .. } => "missing-dependency",
            Error::DependencyCycle { .. } => "dependency-cycle",
            Error::DependencyFailed { .. } => "dependency-failed",
            Error::WorkerPanic { .. } => "worker-panic",
            Error::ArtifactUnavailable { .. } => "artifact-unavailable",
            Error::ArtifactKind { .. } => "artifact-kind",
            Error::DeadlineExceeded { .. } => "deadline",
            Error::Overloaded { .. } => "overloaded",
            Error::InvalidModel { .. } => "invalid-model",
            Error::Internal { .. } => "internal",
        }
    }

    /// Whether this failure class is worth retrying: transient I/O and
    /// worker panics often clear on a re-run (and injected transients
    /// always do); everything else is deterministic.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Io { .. } | Error::WorkerPanic { .. })
    }
}

/// Crate-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_and_sources_compose() {
        let e = Error::from(SolveError::EmptyStack);
        assert!(e.to_string().contains("no layers"));
        assert!(e.source().is_some());

        let io = Error::io(
            "/tmp/x",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(io.to_string().contains("/tmp/x"));
        assert!(io.source().is_some());

        let u = Error::UnknownExperiment {
            name: "fig99".into(),
        };
        assert!(u.to_string().contains("fig99"));
        assert!(u.source().is_none());
    }

    #[test]
    fn invalid_model_carries_the_report() {
        let mut report = stacksim_lint::Report::new();
        report.error("SL001", "fig8.die0", "blocks overlap");
        let e = Error::InvalidModel {
            experiment: "fig8".into(),
            report,
        };
        let text = e.to_string();
        assert!(text.contains("fig8"));
        assert!(text.contains("SL001"));
    }

    #[test]
    fn internal_names_the_invariant() {
        let e = Error::Internal {
            detail: "ready queue empty with work pending".into(),
        };
        assert!(e.to_string().contains("ready queue"));
    }
}
