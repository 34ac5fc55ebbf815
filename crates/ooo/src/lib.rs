//! Cycle-level deeply pipelined out-of-order core simulator.
//!
//! Reproduces the Logic+Logic evaluation infrastructure of §2.2 and §4 of
//! *Die Stacking (3D) Microarchitecture* (Black et al., MICRO 2006): a
//! Pentium 4–class single-threaded performance model that "accurately
//! models the wire delays due to block interconnections", with every
//! Table-4 wire path exposed as a runtime stage-count parameter.
//!
//! * [`config`] — core resources and the planar / folded-3D
//!   [`WireConfig`]s.
//! * [`workload`] — synthetic uop streams for the eight application
//!   classes the paper's >650 traces span.
//! * [`bpred`] — the gshare predictor that decides which dynamic branches
//!   redirect the deep pipeline.
//! * [`pipeline`] — the cycle model (rename/ROB/scheduler/FUs/retire with
//!   post-retirement store lifetime and delayed deallocation).
//! * [`wire`] — the ten Table-4 paths as single-change experiment handles.
//!
//! # Example
//!
//! ```
//! use stacksim_ooo::{CoreConfig, Simulator, WorkloadClass};
//!
//! let uops = WorkloadClass::SpecFp.generate(5_000, 1);
//! let planar = Simulator::new(CoreConfig::planar()).run(&uops);
//! let folded = Simulator::new(CoreConfig::folded_3d()).run(&uops);
//! assert!(folded.ipc() >= planar.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bpred;
pub mod config;
pub mod pipeline;
pub mod uop;
pub mod wire;
pub mod workload;

pub use bpred::Gshare;
pub use config::{CoreConfig, WireConfig};
pub use pipeline::{SimStats, Simulator};
pub use uop::{MemLevel, Uop, UopKind};
pub use wire::WirePath;
pub use workload::{suite, MixProfile, WorkloadClass};
