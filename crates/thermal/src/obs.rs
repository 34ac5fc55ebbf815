//! Observability instruments of the thermal solver.
//!
//! The declared-name table is the SL060 lint contract: every instrument
//! this crate registers at runtime must appear in [`NAMES`].
//!
//! Timing here never feeds back into the numerics — the solver stays
//! bit-identical with observability on or off.

use std::time::Instant;

/// Component tag of every instrument this crate owns.
pub const COMPONENT: &str = "thermal";

/// CG solves completed (successful only).
pub const CG_SOLVES: &str = "thermal.cg.solves";
/// CG iterations accumulated across solves.
pub const CG_ITERATIONS: &str = "thermal.cg.iterations";
/// Histogram of iterations per solve.
pub const CG_ITERS_PER_SOLVE: &str = "thermal.cg.iters_per_solve";
/// Final relative residual of the most recent solve.
pub const CG_RESIDUAL: &str = "thermal.cg.residual";
/// Wall time spent inside CG solves, microseconds.
pub const CG_SOLVE_US: &str = "thermal.cg.solve_us";
/// Wall time in the matrix-apply (`A·x` / fused `A·p` dot) phase, µs.
pub const PHASE_APPLY_US: &str = "thermal.phase.apply_us";
/// Wall time in the precondition (`z ← M⁻¹·r`) phase, µs.
pub const PHASE_PRECOND_US: &str = "thermal.phase.precond_us";
/// Wall time in the fused vector-update phases, µs.
pub const PHASE_UPDATE_US: &str = "thermal.phase.update_us";
/// Wall time folding reduction partials and scalars, µs.
pub const PHASE_REDUCE_US: &str = "thermal.phase.reduce_us";

/// Every instrument name this crate may register.
pub const NAMES: &[&str] = &[
    CG_SOLVES,
    CG_ITERATIONS,
    CG_ITERS_PER_SOLVE,
    CG_RESIDUAL,
    CG_SOLVE_US,
    PHASE_APPLY_US,
    PHASE_PRECOND_US,
    PHASE_UPDATE_US,
    PHASE_REDUCE_US,
];

/// Names of the structured events this crate emits (`begin`/`end` pairs
/// are spans; the rest are points). Listed for the event-schema docs and
/// the SL060 table.
pub const EVENT_SOLVE: &str = "thermal.cg.solve";
/// Residual-trajectory point event (sampled at iteration 0 and at powers
/// of two).
pub const EVENT_TRAJECTORY: &str = "thermal.cg.trajectory";

/// Phase indices of [`PhaseClock`].
pub(crate) const PH_APPLY: usize = 0;
pub(crate) const PH_PRECOND: usize = 1;
pub(crate) const PH_UPDATE: usize = 2;
pub(crate) const PH_REDUCE: usize = 3;

/// Accumulates per-phase wall time for one solve and flushes it to the
/// `thermal.phase.*` counters on drop (so every early return of the
/// CG loop still reports). Armed only when observability is enabled
/// at solve start; disarmed it never reads the clock again.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    on: bool,
    mark: Instant,
    acc: [u64; 4],
}

impl PhaseClock {
    pub fn new(on: bool) -> Self {
        PhaseClock {
            on,
            mark: Instant::now(),
            acc: [0; 4],
        }
    }

    /// Attribute the wall time since the previous lap to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: usize) {
        if self.on {
            let now = Instant::now();
            self.acc[phase] += now.duration_since(self.mark).as_micros() as u64;
            self.mark = now;
        }
    }
}

impl Drop for PhaseClock {
    fn drop(&mut self) {
        if !self.on {
            return;
        }
        for (name, v) in [
            (PHASE_APPLY_US, self.acc[PH_APPLY]),
            (PHASE_PRECOND_US, self.acc[PH_PRECOND]),
            (PHASE_UPDATE_US, self.acc[PH_UPDATE]),
            (PHASE_REDUCE_US, self.acc[PH_REDUCE]),
        ] {
            stacksim_obs::counter(name).add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in NAMES {
            assert!(seen.insert(name), "duplicate declared name {name}");
            assert!(
                name.starts_with("thermal."),
                "{name} must carry the {COMPONENT} prefix"
            );
        }
    }

    #[test]
    fn disarmed_clock_reports_nothing() {
        let mut c = PhaseClock::new(false);
        c.lap(PH_APPLY);
        assert_eq!(c.acc, [0; 4]);
    }
}
