//! 3-D stacked-die thermal simulation.
//!
//! Reproduces the thermal methodology of §2.3 of *Die Stacking (3D)
//! Microarchitecture* (Black et al., MICRO 2006): steady-state heat
//! conduction (Eq. 1) over the full die/package/board system of Fig. 2 with
//! convective boundaries (Eq. 2), the Table 2 material constants, and the
//! face-to-face two-die structure of Fig. 1.
//!
//! * [`materials`] — the Table 2 constants.
//! * `stack` — layered stacks: [`LayerStack::planar`] (Fig. 2) and
//!   [`LayerStack::two_die`] (Fig. 1).
//! * `solver` — the finite-volume conduction solver (the paper uses FEM;
//!   both discretise the same conservation law on the same geometry).
//! * `resistor` — a 1-D resistor-stack cross-check model.
//! * [`sweep`] — conductivity sensitivity sweeps (Fig. 3).
//!
//! # Example
//!
//! ```
//! use stacksim_floorplan::PowerGrid;
//! use stacksim_thermal::{solve_with_stats, Boundary, LayerStack, SolverConfig};
//!
//! let mut power = PowerGrid::zero(8, 8, 13.0, 11.0);
//! power.add(2, 2, 40.0);
//! let stack = LayerStack::planar(13.0, 11.0, power);
//! let cfg = SolverConfig::builder().nx(8).ny(8).build();
//! let solution = solve_with_stats(&stack, Boundary::default(), cfg)?;
//! assert!(solution.field.peak() > 40.0);
//! assert!(solution.stats.iterations > 0);
//! # Ok::<(), stacksim_thermal::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod faults;
mod field;
pub mod materials;
pub mod obs;
mod resistor;
mod solver;
mod stack;
pub mod sweep;

pub use field::TemperatureField;
pub use resistor::ResistorStack;
pub use solver::reference;
pub use solver::{
    solve_with_stats, Preconditioner, Solution, SolveError, SolveStats, SolverConfig,
    SolverConfigBuilder, SolverConfigError, System,
};
pub use stack::{Boundary, Layer, LayerStack, DESKTOP_H_TOP};
