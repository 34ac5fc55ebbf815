//! # stacksim-explore
//!
//! Pareto design-space exploration over the embeddable [`Sim`] session
//! API (`stacksim_core::harness`) — the engine behind `stacksim
//! explore`.
//!
//! A [`SpaceSpec`] declares four axes: stack option (cache size ×
//! hierarchy × layer split), benchmark, thermal boundary and V/f point.
//! A [`SearchMode`] walks their cartesian product under a fixed
//! experiment budget — exhaustively (`grid`), by seeded sampling
//! (`random`) or by mutating the running Pareto frontier (`evolve`).
//! Every design point decomposes into two memoized sub-experiments (the
//! standard `fig5:<bench>` memory point and an `explore:thermal:*`
//! operating point), so overlapping configurations deduplicate inside a
//! search and across searches through the shared memo cache.
//!
//! The result is a canonical `stacksim-explore/1` artifact: the
//! evaluated points with their objectives (performance, peak
//! temperature, power), Pareto-frontier membership and a per-axis
//! sensitivity ranking. For a fixed `(spec, mode, budget, seed)` the
//! artifact is **byte-identical** at any `--jobs` and any cache state;
//! execution accounting (cache/dedup hits, CG iterations) is reported
//! alongside in [`ExploreOutcome`], never inside the artifact.
//!
//! ```no_run
//! use stacksim_explore::{run_exploration, ExploreConfig, SpaceSpec};
//! use stacksim_core::harness::MemoCache;
//! use stacksim_workloads::WorkloadParams;
//!
//! let cfg = ExploreConfig::grid(SpaceSpec::default_space());
//! let outcome = run_exploration(&cfg, WorkloadParams::test(), 0, MemoCache::disabled())?;
//! println!("{} frontier points", outcome.frontier_size);
//! # Ok::<(), stacksim_explore::ExploreError>(())
//! ```
//!
//! [`Sim`]: stacksim_core::harness::Sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod experiments;
pub mod pareto;
pub mod report;
pub mod search;
pub mod space;

pub use engine::{
    explore, run_exploration, ExploreConfig, ExploreError, ExploreOutcome, EXPLORE_SCHEMA,
};
pub use experiments::{registry_for, ThermalPointExp};
pub use pareto::{dominates, frontier, sensitivities, AxisSensitivity, Objectives};
pub use report::render_report;
pub use search::{Evolver, SearchMode};
pub use space::{BoundaryChoice, PointIdx, SpaceSpec, MAX_VF_POINTS};
