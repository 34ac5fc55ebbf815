//! The thermal sub-experiments `stacksim explore` registers on top of
//! the standard registry.
//!
//! A design point needs two ingredients: its memory-side performance
//! (CPMA and off-die bandwidth, which the standard `fig5:<bench>`
//! experiments already produce — explore shares their memo cache with
//! every other caller) and its thermal operating point (peak temperature
//! and scaled die power, which depend on the stack option, boundary and
//! V/f scale but not on the benchmark). This module contributes the
//! thermal half: one [`ThermalPointExp`] per `(option, boundary, vf)`
//! combination, named so close V/f values can never collide.

use stacksim_core::harness::{Artifact, Ctx, Digest, Experiment, ParamSensitivity, Registry};
use stacksim_core::memory_logic::thermal_stack_scaled;
use stacksim_core::{Error, StackOption};
use stacksim_power::OperatingPoint;
use stacksim_thermal::{solve_with_stats, SolverConfig};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::space::{BoundaryChoice, SpaceSpec};

/// Version of the explore experiment family's digest schema. Bump when
/// the thermal-point computation changes meaning.
const EXPLORE_SCHEMA_VERSION: u64 = 1;

/// The short, name-safe slug of a stack option.
pub fn option_slug(option: StackOption) -> &'static str {
    match option {
        StackOption::Planar4M => "2d4",
        StackOption::Sram12M => "3d12",
        StackOption::Dram32M => "3d32",
        StackOption::Dram64M => "3d64",
    }
}

/// The registry name of the memory-side experiment a point depends on —
/// the standard per-benchmark Fig. 5 point, so exploration hits the same
/// cache entries as `stacksim run fig5`.
pub fn mem_point_name(bench: RmsBenchmark) -> String {
    format!("fig5:{}", bench.name())
}

/// The registry name of the thermal-side experiment for one
/// `(option, boundary, vf)` combination. The V/f scale is embedded as
/// its `f64` bit pattern, so distinct-but-close values get distinct
/// names (the registry panics on duplicates).
pub fn thermal_point_name(option: StackOption, boundary: BoundaryChoice, vf: f64) -> String {
    format!(
        "explore:thermal:{}:{}:vf{:016x}",
        option_slug(option),
        boundary.label(),
        vf.to_bits()
    )
}

/// The standard registry extended with every thermal combination of
/// `spec`. The registry is fixed at `Sim` construction, so all
/// combinations are registered up front; random and evolutionary
/// searches simply touch a subset.
pub fn registry_for(spec: &SpaceSpec) -> Registry {
    let mut registry = Registry::standard();
    for &option in &spec.options {
        for &boundary in &spec.boundaries {
            for &vf in &spec.vf {
                registry.add(std::sync::Arc::new(ThermalPointExp::new(
                    option, boundary, vf,
                )));
            }
        }
    }
    registry
}

/// One thermal operating point: the stack of one option solved under
/// one boundary with every power grid scaled by the V/f point's
/// `V² · f` dynamic-power factor. Produces an
/// [`Artifact::ExplorePoint`] with `peak_c` and `power_w`.
#[derive(Debug)]
pub struct ThermalPointExp {
    option: StackOption,
    boundary: BoundaryChoice,
    vf: f64,
    name: String,
}

impl ThermalPointExp {
    /// Builds the experiment for one `(option, boundary, vf)` combo.
    pub fn new(option: StackOption, boundary: BoundaryChoice, vf: f64) -> ThermalPointExp {
        ThermalPointExp {
            option,
            boundary,
            vf,
            name: thermal_point_name(option, boundary, vf),
        }
    }
}

impl Experiment for ThermalPointExp {
    fn name(&self) -> &str {
        &self.name
    }

    fn sensitivity(&self) -> ParamSensitivity {
        // Fixed-input: the result depends only on the combination baked
        // into the experiment, never on the workload parameters.
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let cfg = SolverConfig::default();
        let mut d = Digest::new();
        d.u64(EXPLORE_SCHEMA_VERSION)
            .str(&self.name)
            // semantic solver inputs
            .usize(cfg.nx)
            .usize(cfg.ny)
            .usize(cfg.max_iters)
            .f64(cfg.tolerance)
            // the solver's one preconditioner, kept so digests are unchanged
            .str("jacobi")
            .f64(self.vf)
            .str(self.option.label())
            .str(self.boundary.label());
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let cfg = ctx.solver_config(SolverConfig::default());
        let power_factor = OperatingPoint::scaled_together(self.vf).power_factor();
        let stack = thermal_stack_scaled(self.option, cfg.nx, power_factor);
        let solution = solve_with_stats(&stack, self.boundary.boundary(), cfg)?;
        ctx.record_solver(solution.stats);
        Ok(Artifact::ExplorePoint {
            metrics: vec![
                ("peak_c".to_string(), solution.field.peak()),
                (
                    "power_w".to_string(),
                    self.option.total_power() * power_factor,
                ),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_names_are_unique_across_the_default_space() {
        let spec = SpaceSpec::default_space();
        // registry_for panics on duplicate names; reaching here proves
        // uniqueness across all 48 combinations (plus the standard set)
        let registry = registry_for(&spec);
        let explore_names = registry
            .names()
            .iter()
            .filter(|n| n.starts_with("explore:thermal:"))
            .count();
        assert_eq!(explore_names, 4 * 2 * 6);
    }

    #[test]
    fn close_vf_values_get_distinct_names() {
        let a = thermal_point_name(StackOption::Planar4M, BoundaryChoice::Desktop, 1.0);
        let b = thermal_point_name(
            StackOption::Planar4M,
            BoundaryChoice::Desktop,
            1.0 + f64::EPSILON,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn digest_ignores_workload_params_but_tracks_vf() {
        let exp = ThermalPointExp::new(StackOption::Sram12M, BoundaryChoice::Desktop, 1.05);
        let d1 = exp.params_digest(&WorkloadParams::test());
        let d2 = exp.params_digest(&WorkloadParams::paper());
        assert_eq!(d1, d2, "fixed-input experiment");
        let other = ThermalPointExp::new(StackOption::Sram12M, BoundaryChoice::Desktop, 1.10);
        assert_ne!(d1, other.params_digest(&WorkloadParams::test()));
    }

    /// The digest-coverage audit (`SL050`/`SL051`) accepts the whole
    /// explore-extended registry — declarations match digest behaviour.
    #[test]
    fn digest_audit_passes_on_the_extended_registry() {
        let registry = registry_for(&SpaceSpec::default_space());
        let report = stacksim_core::harness::digest_audit(&registry, &WorkloadParams::test());
        assert!(!report.has_errors(), "{}", report.render_pretty());
    }
}
