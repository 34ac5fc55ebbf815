//! # stacksim
//!
//! A 3D die-stacking microarchitecture simulation toolkit reproducing
//! *Die Stacking (3D) Microarchitecture* (Black et al., MICRO-39, 2006).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`trace`] — dependency-annotated memory traces (§2.1 format)
//! * [`workloads`] — the twelve RMS benchmarks of Table 1 as trace
//!   generators
//! * [`mem`] — the multi-processor memory-hierarchy simulator (§3)
//! * [`ooo`] — the deeply pipelined out-of-order core model (§4)
//! * [`floorplan`] — block floorplans, power maps and 2D→3D folding
//! * [`thermal`] — the stacked-die heat-conduction solver (§2.3)
//! * [`power`] — bus power, cache power and voltage/frequency scaling
//! * [`lint`] — static model validation (the `stacksim check` passes)
//! * [`obs`] — zero-cost-when-disabled observability (metrics, spans,
//!   event log) behind `--metrics-out` / `--events` / `stacksim stats`
//! * [`faults`] — deterministic fault injection (the `--fault-plan`
//!   chaos plane; a plan is a value scoped to the threads that run it)
//! * [`core`] — study drivers reproducing every table and figure
//! * [`explore`] — Pareto design-space search (`stacksim explore`)
//! * [`serve`] — the `stacksim serve` HTTP/JSON daemon over the
//!   embeddable [`Sim`](stacksim_core::harness::Sim) session API
//! * [`bench`](mod@bench) — wall-clock benchmark harness (the `stacksim bench` suites)
//!
//! # Quickstart
//!
//! ```
//! use stacksim::mem::{Engine, EngineConfig, HierarchyConfig, MemoryHierarchy};
//! use stacksim::workloads::{RmsBenchmark, WorkloadParams};
//!
//! let trace = RmsBenchmark::Conj.generate(&WorkloadParams::test());
//! let mut engine = Engine::new(
//!     MemoryHierarchy::new(HierarchyConfig::core2_baseline())?,
//!     EngineConfig::default(),
//! );
//! let result = engine.run(&trace);
//! println!("CPMA = {:.2}", result.cpma);
//! # Ok::<(), stacksim::mem::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub use stacksim_bench as bench;
pub use stacksim_core as core;
pub use stacksim_explore as explore;
pub use stacksim_faults as faults;
pub use stacksim_floorplan as floorplan;
pub use stacksim_lint as lint;
pub use stacksim_mem as mem;
pub use stacksim_obs as obs;
pub use stacksim_ooo as ooo;
pub use stacksim_power as power;
pub use stacksim_serve as serve;
pub use stacksim_thermal as thermal;
pub use stacksim_trace as trace;
pub use stacksim_workloads as workloads;
