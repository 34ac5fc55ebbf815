//! The standard experiment registry: every table and figure of the paper.

use std::sync::Arc;

use stacksim_thermal::SolverConfig;
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use super::artifact::Artifact;
use super::digest::Digest;
use super::experiment::{Ctx, Experiment, ParamSensitivity};
use crate::error::Error;
use crate::logic_logic;
use crate::memory_logic::{self, Fig5Data};
use crate::sensitivity;
use crate::stacking::StackOption;

/// Bump when an artifact's meaning or encoding changes, so stale cache
/// entries from older code cannot be mistaken for valid results.
const SCHEMA_VERSION: u64 = 1;

/// The PRNG seed the Table 4 experiment uses (matches the headline
/// driver's historical choice).
const TABLE4_SEED: u64 = 7;

fn base_digest(name: &str) -> Digest {
    let mut d = Digest::new();
    d.u64(SCHEMA_VERSION).str(name);
    d
}

fn absorb_workload(d: &mut Digest, params: &WorkloadParams) {
    d.u64(params.pick(0, 1) as u64)
        .u64(params.seed)
        .usize(params.threads)
        .usize(params.chunk);
}

/// The solver configuration the thermal experiments run under: the
/// default, with the runner's degradation ladder applied on retry attempts
/// after non-convergence.
fn solver_config(ctx: &Ctx) -> SolverConfig {
    ctx.solver_config(SolverConfig::default())
}

fn absorb_solver(d: &mut Digest) {
    let cfg = SolverConfig::default();
    // "jacobi" names the solver's one preconditioner; it stays absorbed so
    // every digest (and every cache entry) from before it was the only
    // one still matches.
    d.usize(cfg.nx)
        .usize(cfg.ny)
        .usize(cfg.max_iters)
        .f64(cfg.tolerance)
        .str("jacobi");
}

/// How many µops per workload class Table 4 simulates at each scale.
fn table4_uops(params: &WorkloadParams) -> usize {
    params.pick(10_000, 60_000)
}

/// A named collection of experiments with dependency edges.
///
/// Cloning is cheap: experiments are shared behind [`Arc`]s.
#[derive(Clone)]
pub struct Registry {
    experiments: Vec<Arc<dyn Experiment>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("experiments", &self.names())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            experiments: Vec::new(),
        }
    }

    /// Every experiment of the paper: `fig3`, twelve `fig5:<bench>`
    /// points, the `fig5` aggregate, `fig6`, `fig8`, `fig11`, `table4`,
    /// `table5` and `headline`.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        r.add(Arc::new(Fig3Exp));
        for bench in RmsBenchmark::all() {
            r.add(Arc::new(Fig5BenchExp {
                bench,
                name: fig5_point_name(bench),
            }));
        }
        r.add(Arc::new(Fig5Exp));
        r.add(Arc::new(Fig6Exp));
        r.add(Arc::new(Fig8Exp));
        r.add(Arc::new(Fig11Exp));
        r.add(Arc::new(Table4Exp));
        r.add(Arc::new(Table5Exp));
        r.add(Arc::new(HeadlineExp));
        r
    }

    /// Registers an experiment.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken — two experiments sharing a
    /// name would silently shadow each other in the cache.
    pub fn add(&mut self, exp: Arc<dyn Experiment>) {
        assert!(
            self.get(exp.name()).is_none(),
            "duplicate experiment name '{}'",
            exp.name()
        );
        self.experiments.push(exp);
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.experiments.iter().map(|e| e.name()).collect()
    }

    /// Looks up an experiment by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Experiment>> {
        self.experiments.iter().find(|e| e.name() == name).cloned()
    }

    /// All experiments, in registration order.
    pub fn experiments(&self) -> &[Arc<dyn Experiment>] {
        &self.experiments
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

/// The name of the per-benchmark Fig. 5 experiment.
fn fig5_point_name(bench: RmsBenchmark) -> String {
    format!("fig5:{}", bench.name())
}

fn wrong_kind(experiment: &str, dep: &str, wanted: &str, actual: &Artifact) -> Error {
    Error::ArtifactKind {
        experiment: experiment.to_string(),
        artifact: dep.to_string(),
        expected: wanted.to_string(),
        actual: actual.kind().to_string(),
    }
}

struct Fig3Exp;

impl Experiment for Fig3Exp {
    fn name(&self) -> &str {
        "fig3"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_solver(&mut d);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let (data, stats) = sensitivity::fig3_with(solver_config(ctx))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig3(data))
    }
}

struct Fig5BenchExp {
    bench: RmsBenchmark,
    name: String,
}

impl Experiment for Fig5BenchExp {
    fn name(&self) -> &str {
        &self.name
    }

    fn params_digest(&self, params: &WorkloadParams) -> String {
        let mut d = base_digest(&self.name);
        absorb_workload(&mut d, params);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let (row, telemetry) = memory_logic::run_benchmark_instrumented(self.bench, &ctx.params)?;
        for (option, t) in StackOption::all().into_iter().zip(telemetry) {
            ctx.record_mem(format!("{}/{}", self.bench.name(), option.label()), t);
        }
        Ok(Artifact::Fig5Row(row))
    }
}

struct Fig5Exp;

impl Experiment for Fig5Exp {
    fn name(&self) -> &str {
        "fig5"
    }

    fn deps(&self) -> Vec<String> {
        RmsBenchmark::all()
            .into_iter()
            .map(fig5_point_name)
            .collect()
    }

    fn params_digest(&self, params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_workload(&mut d, params);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let mut rows = Vec::new();
        for bench in RmsBenchmark::all() {
            let dep = fig5_point_name(bench);
            match ctx.dep(&dep)? {
                Artifact::Fig5Row(row) => rows.push(row.clone()),
                other => return Err(wrong_kind(self.name(), &dep, "fig5_row", other)),
            }
        }
        Ok(Artifact::Fig5(Fig5Data { rows }))
    }
}

struct HeadlineExp;

impl Experiment for HeadlineExp {
    fn name(&self) -> &str {
        "headline"
    }

    fn deps(&self) -> Vec<String> {
        vec!["fig5".to_string()]
    }

    fn params_digest(&self, params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_workload(&mut d, params);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        match ctx.dep("fig5")? {
            Artifact::Fig5(data) => Ok(Artifact::Headline(data.headline())),
            other => Err(wrong_kind(self.name(), "fig5", "fig5", other)),
        }
    }
}

struct Fig6Exp;

impl Experiment for Fig6Exp {
    fn name(&self) -> &str {
        "fig6"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_solver(&mut d);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let ((power, field), stats) = memory_logic::fig6_with(solver_config(ctx))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig6 { power, field })
    }
}

struct Fig8Exp;

impl Experiment for Fig8Exp {
    fn name(&self) -> &str {
        "fig8"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_solver(&mut d);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let (points, stats) = memory_logic::fig8_with(solver_config(ctx))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig8(points))
    }
}

struct Fig11Exp;

impl Experiment for Fig11Exp {
    fn name(&self) -> &str {
        "fig11"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_solver(&mut d);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let (points, stats) = logic_logic::fig11_with(solver_config(ctx))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig11(points))
    }
}

struct Table4Exp;

impl Experiment for Table4Exp {
    fn name(&self) -> &str {
        "table4"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::scale_only()
    }

    fn params_digest(&self, params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        d.usize(table4_uops(params)).u64(TABLE4_SEED);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let t = logic_logic::table4(table4_uops(&ctx.params), TABLE4_SEED)?;
        Ok(Artifact::Table4(t))
    }
}

struct Table5Exp;

impl Experiment for Table5Exp {
    fn name(&self) -> &str {
        "table5"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        let mut d = base_digest(self.name());
        absorb_solver(&mut d);
        d.hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let (rows, stats) = logic_logic::table5_with(solver_config(ctx))?;
        ctx.record_solver(stats);
        Ok(Artifact::Table5(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_names_and_deps_resolve() {
        let r = Registry::standard();
        let names = r.names();
        // fig3 + 12 fig5 points + fig5 + headline + fig6/fig8/fig11/table4/table5
        assert_eq!(names.len(), 1 + 12 + 1 + 1 + 5);
        for required in [
            "fig3", "fig5", "fig6", "fig8", "fig11", "table4", "table5", "headline",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        // every dependency edge points at a registered experiment
        for exp in r.experiments() {
            for dep in exp.deps() {
                assert!(r.get(&dep).is_some(), "{} -> missing {dep}", exp.name());
            }
        }
    }

    #[test]
    fn digests_separate_scales_and_experiments() {
        let r = Registry::standard();
        let exp = r.get("fig5:gauss").expect("registered");
        let test = exp.params_digest(&WorkloadParams::test());
        let paper = exp.params_digest(&WorkloadParams::paper());
        assert_ne!(test, paper, "scale must change the cache key");
        assert_eq!(test, exp.params_digest(&WorkloadParams::test()));

        let other = r.get("fig5:conj").expect("registered");
        assert_ne!(
            test,
            other.params_digest(&WorkloadParams::test()),
            "different experiments must never share keys"
        );

        // thermal experiments ignore workload scale entirely
        let fig8 = r.get("fig8").expect("registered");
        assert_eq!(
            fig8.params_digest(&WorkloadParams::test()),
            fig8.params_digest(&WorkloadParams::paper())
        );
    }

    #[test]
    fn seed_changes_the_fig5_digest() {
        let r = Registry::standard();
        let exp = r.get("fig5:gauss").expect("registered");
        let a = exp.params_digest(&WorkloadParams::test());
        let b = exp.params_digest(&WorkloadParams::builder().seed(99).build());
        assert_ne!(a, b);
    }
}
