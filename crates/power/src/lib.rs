//! Power models for the die-stacking studies.
//!
//! Three pieces of *Die Stacking (3D) Microarchitecture* (Black et al.,
//! MICRO 2006) are power bookkeeping rather than simulation, and live here:
//!
//! * [`bus`] — the off-die bus at 20 mW/Gb/s (§3's 0.5 W saving);
//! * [`cache`] — SRAM vs stacked-DRAM array power (Fig. 7's 7 W / 14 W /
//!   3.1 W / 6.2 W design points);
//! * [`scaling`] — Table 5's voltage/frequency scaling of the Logic+Logic
//!   design (+0.82% perf per +1% f, f:Vcc 1:1, `V²f` power);
//! * [`epi`] — the decomposition behind the fold's 15% power saving
//!   (repeaters, repeating latches, clock grid).
//!
//! # Example
//!
//! ```
//! use stacksim_power::scaling::ScalingModel;
//!
//! let m = ScalingModel::fig11_3d();
//! let same_perf = m.scale_to_perf(100.0);
//! // giving back the 15% performance gain more than halves power
//! assert!(m.power(same_perf) < 0.5 * 147.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cache;
pub mod epi;
pub mod scaling;

pub use bus::bus_power_w;
pub use cache::{dram_power_w, sram_power_w};
pub use epi::PowerBreakdown;
pub use scaling::{OperatingPoint, ScalingModel, PERF_PER_FREQ};
