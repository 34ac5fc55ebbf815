//! RMS workload kernels producing dependency-annotated memory traces.
//!
//! Implements the trace-generation side of §2.1 of *Die Stacking (3D)
//! Microarchitecture* (Black et al., MICRO 2006): the twelve RMS
//! (Recognition, Mining, Synthesis) benchmarks of Table 1 are modelled as
//! executable kernels whose loop nests are walked over synthetic address
//! layouts, emitting one trace record per memory instruction with the same
//! dependency annotations the paper's full-system trace generator produces.
//!
//! The paper collects these traces from proprietary RMS applications on an
//! Intel-internal full-system simulator; this crate substitutes
//! algorithmically faithful synthetic versions (see `DESIGN.md` §2 for the
//! substitution argument).
//!
//! # Example
//!
//! ```
//! use stacksim_workloads::{RmsBenchmark, WorkloadParams};
//!
//! let trace = RmsBenchmark::SMvm.generate(&WorkloadParams::test());
//! assert!(trace.validate().is_ok());
//! assert_eq!(trace.cpu_count(), 2); // two-threaded, as in the paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layout;
pub mod obs;
mod params;
mod rms;
mod sparse;
mod stream;
mod tracer;

pub use layout::{AddressSpace, Region};
pub use params::{ParamsError, Scale, WorkloadParams, WorkloadParamsBuilder};
pub use rms::RmsBenchmark;
pub use sparse::SparsePattern;
pub use stream::{TraceShape, TraceStream};
pub use tracer::{KernelTracer, ReduceChain};
