//! The experiment harness: every table and figure of the paper as a
//! registered, memoizable, parallel-runnable [`Experiment`].
//!
//! The harness replaces the old pattern of one ad-hoc `main` per figure
//! with a uniform pipeline:
//!
//! 1. [`Registry::standard`] lists every experiment — `fig3`, the twelve
//!    `fig5:<bench>` points, the `fig5` aggregate, `fig6`, `fig8`,
//!    `fig11`, `table4`, `table5` and the `headline` summary — together
//!    with their dependency edges (e.g. `headline` needs `fig5`, which
//!    needs all twelve per-benchmark points).
//! 2. A [`Sim`] session runs a selection with [`Sim::run`] (plus its
//!    transitive dependencies) on its executor workers, each experiment
//!    once its dependencies have finished.
//! 3. Each result is serialized as a deterministic JSON [`Artifact`] and
//!    memoized on disk keyed by the experiment's
//!    [`params_digest`](Experiment::params_digest) — re-runs with the same
//!    configuration skip straight to the cached artifact.
//! 4. A [`RunReport`] records per-experiment telemetry: wall time, cache
//!    hits, conjugate-gradient solver iteration counts, simulated trace
//!    lengths and CPMA.
//!
//! # Example
//!
//! ```
//! use stacksim_core::harness::Sim;
//! use stacksim_workloads::WorkloadParams;
//!
//! let sim = Sim::builder().params(WorkloadParams::test()).build();
//! let outcome = sim.run(&["fig5:gauss".into()])?;
//! assert!(outcome.artifacts.contains_key("fig5:gauss"));
//! # Ok::<(), stacksim_core::Error>(())
//! ```

mod artifact;
mod cache;
pub mod check;
mod digest;
mod experiment;
mod journal;
pub mod json;
pub mod obs;
pub mod obs_report;
mod registry;
pub mod render;
mod report;
pub mod resilience;
mod session;

pub use artifact::Artifact;
pub use cache::MemoCacheBuilder;
pub use cache::{default_cache_dir, MemoCache};
pub use check::{
    check_experiment, check_registry, digest_audit, fault_model, model_for, obs_audit, obs_model,
    preflight,
};
pub use digest::Digest;
pub use experiment::{Ctx, Experiment, MemRun, ParamSensitivity, Telemetry};
pub use journal::{JournalRecovery, RequestJournal, JOURNAL_SCHEMA};
pub use registry::Registry;
pub use report::{ExperimentReport, RunOutcome, RunReport};
pub use resilience::{FailureEntry, FailureReport, Resilience, SolverDegrade};
pub use session::{
    run_one, ExperimentRequest, RequestHandle, RequestOutcome, RequestStatus, Sim, SimBuilder,
    SimStats,
};
