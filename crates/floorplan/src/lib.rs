//! Block-level floorplans, power maps and 2D→3D folding.
//!
//! This crate models the physical-design side of *Die Stacking (3D)
//! Microarchitecture* (Black et al., MICRO 2006):
//!
//! * the Intel Core 2 Duo–class baseline floorplan of Fig. 4/6 (92 W skew,
//!   L2 = 50% of the die, FP/RS/LdSt hotspots) — [`core2`];
//! * the Pentium 4–class planar floorplan of Fig. 9 (147 W skew, scheduler
//!   hotspot, the load-to-use and FP-register-read wire paths) — [`p4`];
//! * stacked configurations (CPU + uniform cache die; Fig. 7) —
//!   [`stacked`];
//! * the Logic+Logic fold of Fig. 10: re-placing the planar design onto two
//!   half-footprint dies with iterative hotspot repair (§4's "placing
//!   blocks, observing the new power densities and repairing outliers") —
//!   [`fold`](mod@fold).
//!
//! Power maps rasterised from these floorplans feed the `stacksim-thermal`
//! solver.
//!
//! # Example
//!
//! ```
//! use stacksim_floorplan::{core2::core2_duo_92w, stacked};
//!
//! let cpu = core2_duo_92w();
//! let dram = stacked::uniform_die("dram32", cpu.width(), cpu.height(), 3.1);
//! let stack = stacked::StackedFloorplan::new(vec![cpu, dram]);
//! stack.validate()?;
//! assert!(stack.total_power() > 95.0);
//! # Ok::<(), stacksim_floorplan::stacked::StackError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
pub mod core2;
mod floorplan;
pub mod fold;
mod geom;
mod grid;
pub mod p4;
pub mod stacked;
pub mod wire;

pub use block::Block;
pub use floorplan::{Floorplan, FloorplanError};
pub use fold::{fold, FoldError, FoldOptions};
pub use geom::Rect;
pub use grid::PowerGrid;
pub use stacked::{uniform_die, worst_case_stack, StackedFloorplan};
pub use wire::RouteSaving;
