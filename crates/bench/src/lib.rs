//! The `stacksim bench` performance harness ([`perf`]) and the timing
//! helpers shared with the dependency-free benches under `benches/`.

pub mod perf;
pub mod timing;
