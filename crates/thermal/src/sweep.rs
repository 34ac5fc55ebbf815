//! Conductivity sensitivity sweeps (Fig. 3 of the paper).

use crate::field::TemperatureField;
use crate::solver::{SolveError, SolveStats, SolverConfig, System};
use crate::stack::{Boundary, LayerStack};

/// Solves one sweep point, warm-starting from the previous point's field
/// when one is available. Consecutive sweep points differ only in one
/// layer's conductivity, so the previous solution is an excellent initial
/// guess and CG converges in a fraction of the cold-start iterations.
fn solve_point(
    stack: &LayerStack,
    bc: Boundary,
    cfg: SolverConfig,
    prev: Option<&TemperatureField>,
) -> Result<crate::solver::Solution, SolveError> {
    let system = System::assemble(stack, bc, cfg)?;
    match prev {
        Some(x0) if cfg.warm_start => system.steady_from(x0),
        _ => system.steady_with_stats(),
    }
}

/// Builds the warm-start guess for the sweep point at conductivity `k`
/// from the (up to two) most recent solutions, oldest first.
///
/// With one prior solution the guess is that field unchanged. With two,
/// the guess is the secant extrapolation in thermal resistance `1/k`: the
/// temperature drop across the swept layer is proportional to its
/// resistance, so each cell temperature is nearly affine in `1/k` and the
/// secant through the last two solutions lands far closer than the last
/// solution alone. On the Fig. 3 sweep this cuts the warm-start CG
/// iterations well below what plain chaining achieves; the converged
/// answer is unchanged up to the solver tolerance because the guess only
/// moves the starting point, never the system being solved.
fn warm_guess(hist: &[(f64, TemperatureField)], k: f64) -> Option<TemperatureField> {
    match hist {
        [] => None,
        [(_, f1)] => Some(f1.clone()),
        [.., (k0, f0), (k1, f1)] => {
            let t = (1.0 / k - 1.0 / k1) / (1.0 / k1 - 1.0 / k0);
            if !t.is_finite() {
                return Some(f1.clone());
            }
            let cells = f1
                .cells()
                .iter()
                .zip(f0.cells())
                .map(|(&a, &b)| t.mul_add(a - b, a))
                .collect();
            let (nx, ny) = f1.dims();
            Some(TemperatureField::from_parts(
                nx,
                ny,
                f1.layer_names().to_vec(),
                cells,
            ))
        }
    }
}

/// Pushes a solved point into the two-deep warm-start history.
fn remember(hist: &mut Vec<(f64, TemperatureField)>, k: f64, field: TemperatureField) {
    if hist.len() == 2 {
        hist.remove(0);
    }
    hist.push((k, field));
}

/// One sweep point: the conductivity tried and the resulting peak
/// temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Conductivity in W/mK.
    pub k: f64,
    /// Peak stack temperature in °C.
    pub peak_c: f64,
}

/// Sweeps one layer's thermal conductivity and records the peak temperature
/// at each point — the Fig. 3 experiment for the "Cu metal layers" and
/// "Bonding layer" curves — together with the accumulated CG statistics
/// of every solve in the sweep.
///
/// # Errors
///
/// Propagates the first solver failure, including
/// [`SolveError::UnknownLayer`] for a bad layer name.
pub fn conductivity_sweep_stats(
    stack: &LayerStack,
    layer: &str,
    ks: &[f64],
    bc: Boundary,
    cfg: SolverConfig,
) -> Result<(Vec<SweepPoint>, SolveStats), SolveError> {
    conductivity_sweep_multi_stats(stack, &[layer], ks, bc, cfg)
}

/// Sweeps several layers' conductivities together — Fig. 3's "Cu metal
/// layers" curve varies the metal stacks of *both* dies at once — and
/// returns the accumulated CG statistics of every solve in the sweep.
///
/// # Errors
///
/// Propagates the first solver failure, including
/// [`SolveError::UnknownLayer`] for a bad layer name.
pub fn conductivity_sweep_multi_stats(
    stack: &LayerStack,
    layers: &[&str],
    ks: &[f64],
    bc: Boundary,
    cfg: SolverConfig,
) -> Result<(Vec<SweepPoint>, SolveStats), SolveError> {
    let mut out = Vec::with_capacity(ks.len());
    let mut stats = SolveStats::default();
    let mut hist: Vec<(f64, TemperatureField)> = Vec::new();
    for &k in ks {
        let mut swept = stack.clone();
        for name in layers {
            swept = swept.with_layer_conductivity(name, k)?;
        }
        let guess = warm_guess(&hist, k);
        let sol = solve_point(&swept, bc, cfg, guess.as_ref())?;
        stats.absorb(sol.stats);
        out.push(SweepPoint {
            k,
            peak_c: sol.field.peak(),
        });
        remember(&mut hist, k, sol.field);
    }
    Ok((out, stats))
}

/// The conductivity grid used by Fig. 3 (60 down to 3 W/mK).
pub fn fig3_conductivities() -> Vec<f64> {
    vec![60.0, 40.0, 30.0, 20.0, 12.0, 9.0, 6.0, 3.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Layer;
    use stacksim_floorplan::PowerGrid;

    fn stack() -> LayerStack {
        let mut g = PowerGrid::zero(4, 4, 10.0, 10.0);
        g.add(1, 1, 30.0);
        let mut s = LayerStack::new(10.0, 10.0);
        s.push(Layer::passive("lid", 1e-3, 200.0));
        s.push(Layer::active("die", 0.5e-3, 120.0, g));
        s.push(Layer::passive("metal", 12e-6, 12.0));
        s.push(Layer::passive("base", 1e-3, 1.0));
        s
    }

    #[test]
    fn lower_conductivity_raises_peak_monotonically() {
        let bc = Boundary {
            h_top: 10.0,
            h_bottom: 2000.0,
            ambient: 40.0,
        };
        // heat must exit through the *bottom*, crossing the swept metal
        let cfg = SolverConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        };
        let (pts, _) =
            conductivity_sweep_stats(&stack(), "metal", &[60.0, 12.0, 3.0], bc, cfg).unwrap();
        assert_eq!(pts.len(), 3);
        assert!(pts[0].peak_c < pts[1].peak_c);
        assert!(pts[1].peak_c < pts[2].peak_c);
    }

    /// Warm-starting each point from the previous field must beat solving
    /// every point cold from ambient.
    #[test]
    fn warm_started_sweep_does_less_cg_work_than_cold_solves() {
        let bc = Boundary {
            h_top: 10.0,
            h_bottom: 2000.0,
            ambient: 40.0,
        };
        let cfg = SolverConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        };
        let ks = [60.0, 40.0, 20.0, 12.0, 6.0, 3.0];
        let (_, warm) = conductivity_sweep_stats(&stack(), "metal", &ks, bc, cfg).unwrap();
        let mut cold = SolveStats::default();
        for &k in &ks {
            let swept = stack().with_layer_conductivity("metal", k).unwrap();
            cold.absorb(
                crate::solver::solve_with_stats(&swept, bc, cfg)
                    .unwrap()
                    .stats,
            );
        }
        assert_eq!(warm.solves, cold.solves);
        assert!(
            warm.iterations < cold.iterations,
            "warm sweep took {} iterations, cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn fig3_grid_spans_60_to_3() {
        let ks = fig3_conductivities();
        assert_eq!(*ks.first().unwrap(), 60.0);
        assert_eq!(*ks.last().unwrap(), 3.0);
        assert!(ks.contains(&12.0), "the actual Cu metal value");
    }
}
