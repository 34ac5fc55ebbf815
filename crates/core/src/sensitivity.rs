//! The Fig. 3 thermal-sensitivity study: peak temperature of a stacked
//! microprocessor as the Cu metal layer or bonding layer conductivity is
//! swept from 60 down to 3 W/mK.

use stacksim_thermal::sweep::{
    conductivity_sweep_multi_stats, conductivity_sweep_stats, fig3_conductivities, SweepPoint,
};
use stacksim_thermal::{Boundary, LayerStack, SolveStats, SolverConfig};

use crate::error::Error;
use crate::logic_logic::folded_p4;

/// The two Fig. 3 curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Data {
    /// Peak temperature vs Cu metal layer conductivity.
    pub cu_metal: Vec<SweepPoint>,
    /// Peak temperature vs bonding layer conductivity.
    pub bond: Vec<SweepPoint>,
}

impl Fig3Data {
    /// Temperature increase along a curve from its best (60 W/mK) to its
    /// worst (3 W/mK) point.
    pub fn span(points: &[SweepPoint]) -> f64 {
        let lo = points
            .iter()
            .map(|p| p.peak_c)
            .fold(f64::INFINITY, f64::min);
        let hi = points
            .iter()
            .map(|p| p.peak_c)
            .fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }
}

/// Runs the Fig. 3 sweep on the Logic+Logic two-die stack (the "stacked
/// microprocessor" of the figure): the far die's heat crosses both metal
/// stacks and the bond, which is what makes the metal curve dominate.
/// Also returns the accumulated CG statistics of every solve across both
/// sweeps. The harness threads its solver configuration (the degradation
/// ladder's rung) through `cfg`; `stacksim bench` uses it to time the
/// sweep end to end.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig3_with(cfg: SolverConfig) -> Result<(Fig3Data, SolveStats), Error> {
    let (stack, bc) = fig3_stack(&cfg)?;
    let ks = fig3_conductivities();
    let mut stats = SolveStats::default();
    // "the traditional metal stack on the two die": both metal layers
    let (cu_metal, s) =
        conductivity_sweep_multi_stats(&stack, &["cu metal 1", "cu metal 2"], &ks, bc, cfg)?;
    stats.absorb(s);
    let (bond, s) = conductivity_sweep_stats(&stack, "bond", &ks, bc, cfg)?;
    stats.absorb(s);
    Ok((Fig3Data { cu_metal, bond }, stats))
}

/// The Fig. 3 sweep with every point solved by the frozen pre-optimization
/// solver ([`stacksim_thermal::reference`]): branchy stencil, unfused CG,
/// cold starts. `stacksim bench` uses this as the baseline every speedup
/// is measured against. Results are identical to [`fig3_with`] up to the
/// solver tolerance.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig3_reference(cfg: SolverConfig) -> Result<(Fig3Data, SolveStats), Error> {
    let (stack, bc) = fig3_stack(&cfg)?;
    let ks = fig3_conductivities();
    let mut stats = SolveStats::default();
    let mut sweep_ref = |layers: &[&str]| -> Result<Vec<SweepPoint>, Error> {
        let mut out = Vec::with_capacity(ks.len());
        for &k in &ks {
            let mut swept = stack.clone();
            for name in layers {
                swept = swept
                    .with_layer_conductivity(name, k)
                    .map_err(Error::from)?;
            }
            let sol = stacksim_thermal::reference::solve_with_stats(&swept, bc, cfg)?;
            stats.absorb(sol.stats);
            out.push(SweepPoint {
                k,
                peak_c: sol.field.peak(),
            });
        }
        Ok(out)
    };
    let cu_metal = sweep_ref(&["cu metal 1", "cu metal 2"])?;
    let bond = sweep_ref(&["bond"])?;
    Ok((Fig3Data { cu_metal, bond }, stats))
}

/// The Fig. 3 sweep with every point solved cold (from ambient) by the
/// *optimized* kernel, ignoring the warm-start chaining [`fig3_with`]
/// uses. `stacksim bench` reports it as the kernel-only leg, isolating the
/// stencil/fusion gains from the warm-start gains.
/// Results are identical to [`fig3_with`] up to the solver tolerance.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig3_cold_with(cfg: SolverConfig) -> Result<(Fig3Data, SolveStats), Error> {
    let (stack, bc) = fig3_stack(&cfg)?;
    let ks = fig3_conductivities();
    let mut stats = SolveStats::default();
    let mut sweep_cold = |layers: &[&str]| -> Result<Vec<SweepPoint>, Error> {
        let mut out = Vec::with_capacity(ks.len());
        for &k in &ks {
            let mut swept = stack.clone();
            for name in layers {
                swept = swept
                    .with_layer_conductivity(name, k)
                    .map_err(Error::from)?;
            }
            let sol = stacksim_thermal::solve_with_stats(&swept, bc, cfg)?;
            stats.absorb(sol.stats);
            out.push(SweepPoint {
                k,
                peak_c: sol.field.peak(),
            });
        }
        Ok(out)
    };
    let cu_metal = sweep_cold(&["cu metal 1", "cu metal 2"])?;
    let bond = sweep_cold(&["bond"])?;
    Ok((Fig3Data { cu_metal, bond }, stats))
}

/// The two-die stack and boundary condition both Fig. 3 sweeps run over.
/// Public so `stacksim bench` can report the grid it timed (layer count,
/// cell count) without duplicating the construction.
pub fn fig3_stack(cfg: &SolverConfig) -> Result<(LayerStack, Boundary), Error> {
    let folded = folded_p4()?;
    let d0 = &folded.dies()[0];
    let d1 = &folded.dies()[1];
    let ny = (cfg.nx * 17 / 20).max(1);
    let planar_area = stacksim_floorplan::p4::pentium4_147w().area();
    let bc = Boundary::performance().scaled_to_area(planar_area, d0.area());
    let stack = LayerStack::two_die(
        d0.width(),
        d0.height(),
        d0.power_grid(cfg.nx, ny),
        d1.power_grid(cfg.nx, ny),
        false,
    );
    Ok((stack, bc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_matches_the_paper() {
        let (data, _) = fig3_with(SolverConfig::default()).unwrap();
        // both curves rise monotonically as conductivity falls
        for curve in [&data.cu_metal, &data.bond] {
            for w in curve.windows(2) {
                assert!(w[0].k > w[1].k, "grid is descending");
                assert!(
                    w[1].peak_c >= w[0].peak_c - 1e-6,
                    "peak rises as k falls: {:?}",
                    curve
                );
            }
        }
        // the metal layer has the stronger temperature impact (Fig. 3's
        // conclusion: "the metal layer has a more significant temperature
        // impact")
        let metal_span = Fig3Data::span(&data.cu_metal);
        let bond_span = Fig3Data::span(&data.bond);
        assert!(
            metal_span > bond_span,
            "metal span {metal_span:.2} vs bond span {bond_span:.2}"
        );
        // the paper's Fig. 3 y-axis spans roughly 82..90 C: a few degrees
        // of sensitivity, not tens
        assert!(
            metal_span > 0.5 && metal_span < 20.0,
            "span {metal_span:.2}"
        );
    }
}
