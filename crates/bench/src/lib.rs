//! The `stacksim bench` performance harness ([`perf`]) and the timing
//! helpers shared with the dependency-free benches under `benches/`.

#![forbid(unsafe_code)]

pub mod perf;
pub mod timing;
