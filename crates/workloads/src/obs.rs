//! Observability names of trace generation.
//!
//! The declared-name table is the SL060 lint contract. This crate
//! registers no instruments of its own; the harness emits the span below
//! around each Fig. 5 point's generation, and the name is declared here,
//! with the layer it times.

/// Component tag of every name this crate owns.
pub const COMPONENT: &str = "workloads";

/// Span around generating one Fig. 5 point's trace, after the count-only
/// pre-pass up to the last record (`end` carries `bench`, `records`, the
/// pre-pass time `count_us` and the span's own duration `wall_us`).
pub const EVENT_GENERATE: &str = "workloads.generate";

/// Every name this crate may register or emit.
pub const NAMES: &[&str] = &[EVENT_GENERATE];
