//! Parameter passes: workload, issue-engine and thermal-solver
//! configurations. These delegate to the config types' own `validate`
//! methods — the same ones the builders call — so the constraints are
//! written exactly once.

use crate::diag::Report;
use crate::model::Model;
use crate::pass::Pass;

/// `SL040`: workload parameters (threads, interleave chunk) must be usable.
pub struct WorkloadParamsValid;

impl Pass for WorkloadParamsValid {
    fn id(&self) -> &'static str {
        "params-workload"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL040"]
    }

    fn description(&self) -> &'static str {
        "workload parameters must pass WorkloadParams::validate"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for (path, p) in &model.workloads {
            if let Err(e) = p.validate() {
                report.error("SL040", path.clone(), e.to_string());
            }
        }
    }
}

/// `SL041`: issue-engine configuration must be usable (non-zero window and
/// issue interval).
pub struct EngineConfigValid;

impl Pass for EngineConfigValid {
    fn id(&self) -> &'static str {
        "params-engine"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL041"]
    }

    fn description(&self) -> &'static str {
        "issue-engine configuration must pass EngineConfig::validate"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for (path, c) in &model.engines {
            if let Err(e) = c.validate() {
                report.error("SL041", path.clone(), e.to_string());
            }
        }
    }
}

/// `SL042`: thermal-solver configuration must be usable (non-empty grid,
/// iterations, positive tolerance).
pub struct SolverConfigValid;

impl Pass for SolverConfigValid {
    fn id(&self) -> &'static str {
        "params-solver"
    }

    fn codes(&self) -> &'static [&'static str] {
        &["SL042"]
    }

    fn description(&self) -> &'static str {
        "thermal-solver configuration must pass SolverConfig::validate"
    }

    fn run(&self, model: &Model, report: &mut Report) {
        for (path, c) in &model.solvers {
            if let Err(e) = c.validate() {
                report.error("SL042", path.clone(), e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_mem::EngineConfig;
    use stacksim_thermal::SolverConfig;
    use stacksim_workloads::WorkloadParams;

    fn run(pass: &dyn Pass, model: &Model) -> Report {
        let mut r = Report::new();
        pass.run(model, &mut r);
        r
    }

    #[test]
    fn sl040_fires_on_zero_threads() {
        let mut p = WorkloadParams::default();
        p.threads = 0;
        let model = Model {
            workloads: vec![("fx".into(), p)],
            ..Model::new()
        };
        let r = run(&WorkloadParamsValid, &model);
        assert!(r.has_code("SL040"), "{}", r.render_pretty());
    }

    #[test]
    fn sl041_fires_on_zero_window() {
        let mut c = EngineConfig::default();
        c.window = 0;
        let model = Model {
            engines: vec![("fx".into(), c)],
            ..Model::new()
        };
        assert!(run(&EngineConfigValid, &model).has_code("SL041"));
    }

    #[test]
    fn sl042_fires_on_nan_tolerance() {
        let mut c = SolverConfig::default();
        c.tolerance = f64::NAN;
        let model = Model {
            solvers: vec![("fx".into(), c)],
            ..Model::new()
        };
        assert!(run(&SolverConfigValid, &model).has_code("SL042"));
    }

    #[test]
    fn default_configs_are_clean() {
        let model = Model {
            workloads: vec![("w".into(), WorkloadParams::default())],
            engines: vec![("e".into(), EngineConfig::default())],
            solvers: vec![("s".into(), SolverConfig::default())],
            ..Model::new()
        };
        for pass in crate::passes::all() {
            let r = run(pass.as_ref(), &model);
            assert!(r.is_clean(), "{}: {}", pass.id(), r.render_pretty());
        }
    }
}
