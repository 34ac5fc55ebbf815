//! Trace-driven multi-processor memory-hierarchy simulator.
//!
//! This crate reproduces the Memory+Logic evaluation infrastructure of §2.1
//! and §3 of *Die Stacking (3D) Microarchitecture* (Black et al., MICRO
//! 2006): a memory-hierarchy simulator that "models all aspects of the
//! memory hierarchy including DRAM caches with banks, RAS, CAS, page sizes"
//! and is driven by dependency-annotated memory traces.
//!
//! # Structure
//!
//! * [`config`] — the Table 3 machine description and the Fig. 7 stacking
//!   options (`4 MB` baseline, `12 MB` stacked SRAM, `32/64 MB` stacked
//!   DRAM).
//! * [`cache`] — set-associative write-back caches with optional 64 B
//!   sectors in 512 B lines (the stacked-DRAM organisation).
//! * [`dram`] — banked DRAM arrays with open-page bank state machines
//!   (page open 50 / precharge 54 / read 50 cycles).
//! * [`bus`] — the 16 GB/s off-die bus with queueing and bandwidth
//!   accounting.
//! * [`hierarchy`] — the composed inclusive hierarchy.
//! * [`engine`] — the dependency-honouring issue engine and the CPMA /
//!   bandwidth metrics of Fig. 5.
//!
//! # Example
//!
//! ```
//! use stacksim_mem::{Engine, EngineConfig, HierarchyConfig, MemoryHierarchy};
//! use stacksim_trace::{CpuId, MemOp, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! for i in 0..1000u64 {
//!     b.record(CpuId::new(0), MemOp::Load, 0x10_0000 + (i % 32) * 64, 0x400);
//! }
//! let trace = b.build();
//!
//! let hierarchy = MemoryHierarchy::new(HierarchyConfig::core2_baseline())?;
//! let mut engine = Engine::new(hierarchy, EngineConfig::default());
//! let result = engine.run(&trace);
//! assert!(result.cpma > 0.0);
//! # Ok::<(), stacksim_mem::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod hierarchy;
pub mod obs;
pub mod stats;

pub use bus::{Bus, BusTransfer};
pub use cache::{Cache, Evicted, Lookup};
pub use config::{
    BusConfig, CacheConfig, ConfigError, Cycles, DramConfig, DramTiming, HierarchyConfig,
    MainMemoryConfig, StackedLevel,
};
pub use dram::{DramAccess, DramArray, PageOutcome};
pub use engine::{warm_records, Engine, EngineConfig, EngineConfigBuilder};
pub use hierarchy::{AccessResult, MemoryHierarchy, ServiceLevel};
pub use stats::{HierarchyStats, MemTelemetry, RunResult};
