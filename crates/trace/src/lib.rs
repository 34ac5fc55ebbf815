//! Dependency-annotated memory trace records and streams.
//!
//! This crate implements the trace format described in §2.1 of
//! *Die Stacking (3D) Microarchitecture* (Black et al., MICRO 2006).
//! Every record describes one dynamic memory instruction and carries:
//!
//! * the id of the CPU that executed it,
//! * the memory access address and the instruction pointer,
//! * a unique, monotonically increasing identification number, and
//! * optionally the identification number of an **earlier** record this
//!   record depends on.
//!
//! The downstream memory-hierarchy simulator (`stacksim-mem`) honours the
//! dependency edges: a record is only issued once the record it depends on
//! has completed, which is what makes *cycles per memory access* (CPMA)
//! sensitive to memory latency rather than just miss counts.
//!
//! # Example
//!
//! ```
//! use stacksim_trace::{TraceBuilder, CpuId, MemOp};
//!
//! let mut b = TraceBuilder::new();
//! let a = b.record(CpuId::new(0), MemOp::Load, 0x1000, 0x400);
//! // the second load consumes the value produced through the first one
//! b.record_dep(CpuId::new(0), MemOp::Load, 0x2000, 0x404, Some(a));
//! let trace = b.build();
//! assert_eq!(trace.len(), 2);
//! assert!(trace.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod error;
mod merge;
mod packed;
mod record;
mod sink;
mod stats;
mod stream;

pub use builder::TraceBuilder;
pub use error::TraceError;
pub use merge::{Merge, RecordBlock};
pub use packed::PackedRecord;
pub use record::{Addr, CpuId, MemOp, RecordId, TraceRecord};
pub use sink::{CountSink, RecordSink, StreamBuilder};
pub use stats::{DepStats, FootprintStats, TraceStats};
pub use stream::{Trace, TraceIntoIter, TraceIter};
