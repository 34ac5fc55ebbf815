//! Integration: deterministic fault injection and the harness's
//! resilience layer — the solver degradation ladder, transient retry,
//! cache quarantine, per-experiment deadlines and the machine-readable
//! failure report — spanning `stacksim-faults`, `stacksim-core` and
//! `stacksim-thermal`.
//!
//! A plan is a value owned by one session, never process-global state, so
//! these tests run in parallel.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stacksim::core::harness::{
    Artifact, Ctx, Digest, Experiment, FailureReport, MemoCache, ParamSensitivity, Registry,
    Resilience, RunOutcome, Sim,
};
use stacksim::core::{sensitivity, Error, Headline};
use stacksim::faults::{self, Fault, FaultPlan, FaultRule, Faults};
use stacksim::thermal::SolverConfig;
use stacksim::workloads::WorkloadParams;

/// Golden fig3 artifact digest (see `tests/golden_digests.rs`): the
/// default nx=20 ny=17 configuration. The ladder's raised-iters rung only
/// lifts the iteration cap, so a run it recovers must reproduce this
/// digest.
const GOLDEN_FIG3: &str = "96e4ca5a7dc6bc4f";

/// A seed-0 plan of `rules`.
fn plan(rules: Vec<FaultRule>) -> FaultPlan {
    FaultPlan { seed: 0, rules }
}

/// A seed-0 plan of `rules`, armed.
fn armed(rules: Vec<FaultRule>) -> Faults {
    Faults::new(plan(rules))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one custom experiment through a one-worker session under a
/// policy and an optional fault plan.
fn run_session(
    plan: Option<FaultPlan>,
    exp: Arc<dyn Experiment>,
    cache: MemoCache,
    resilience: Resilience,
) -> RunOutcome {
    let name = exp.name().to_string();
    let mut registry = Registry::new();
    registry.add(exp);
    Sim::builder()
        .registry(registry)
        .jobs(1)
        .cache(cache)
        .resilience(resilience)
        .fault_plan(plan)
        .build()
        .run(&[name])
        .expect("selection is valid")
}

/// Runs one custom experiment through the harness under a policy.
fn run_custom(exp: Arc<dyn Experiment>, cache: MemoCache, resilience: Resilience) -> RunOutcome {
    run_session(None, exp, cache, resilience)
}

/// [`run_custom`] with `plan` as the session's plan.
fn run_faulted(
    plan: FaultPlan,
    exp: Arc<dyn Experiment>,
    cache: MemoCache,
    resilience: Resilience,
) -> RunOutcome {
    run_session(Some(plan), exp, cache, resilience)
}

/// Fig3 on the 20×17 grid — the experiment the fault plans below knock
/// over so the ladder has somewhere to fall.
struct SmallFig3;

impl Experiment for SmallFig3 {
    fn name(&self) -> &str {
        "fig3-small"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str("fig3-small").hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let base = SolverConfig::builder().nx(20).ny(17).build();
        let (data, stats) = sensitivity::fig3_with(ctx.solver_config(base))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig3(data))
    }
}

/// A trivially cheap experiment for exercising dispatch and cache faults.
struct Tiny {
    name: &'static str,
}

impl Experiment for Tiny {
    fn name(&self) -> &str {
        self.name
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str(self.name).hex()
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
        Ok(Artifact::Headline(Headline {
            mean_cpma_reduction: 2.0,
            peak_cpma_reduction: 3.0,
            bandwidth_reduction_factor: 3.0,
            bus_power_saving_w: 0.5,
            baseline_bus_power_w: 0.6,
        }))
    }
}

#[test]
fn ladder_recovers_nonconvergence_with_bit_identical_artifact() {
    // The first CG solve reports non-convergence; every later solve is
    // untouched, so the ladder's first rung recovers the experiment.
    let faults = plan(vec![FaultRule::always(
        "thermal.cg",
        "jacobi",
        Fault::NoConvergence,
    )
    .times(1)]);
    let outcome = run_faulted(
        faults,
        Arc::new(SmallFig3),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert_eq!(
        entry.attempts, 2,
        "as-configured, then the raised-iters rung"
    );
    assert_eq!(
        entry.fallback.as_deref(),
        Some("raised-iters"),
        "provenance of the recovery lives in the report"
    );
    let artifact = outcome.artifacts.get("fig3-small").expect("recovered");
    assert_eq!(
        Digest::new().str(&artifact.encode()).hex(),
        GOLDEN_FIG3,
        "the degraded run must be bit-identical to an uninjected run"
    );
}

#[test]
fn ladder_exhaustion_surfaces_the_solve_error() {
    // Every solve is knocked over: every rung fails and the ladder runs dry.
    let faults = plan(vec![FaultRule::always(
        "thermal.cg",
        "",
        Fault::NoConvergence,
    )]);
    let outcome = run_faulted(
        faults,
        Arc::new(SmallFig3),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert_eq!(outcome.errors.len(), 1);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 3, "as-configured plus two rungs");
    assert_eq!(entry.error_kind.as_deref(), Some("solve"));
    assert!(entry.fallback.is_none(), "no rung succeeded");
    assert!(outcome.artifacts.is_empty());
}

#[test]
fn transient_dispatch_faults_are_retried_to_success() {
    // One injected panic, then one injected transient I/O error: the
    // default budget of two retries absorbs both.
    let faults = plan(vec![
        FaultRule::always("harness.dispatch", "tiny", Fault::Panic).times(1),
        FaultRule {
            after: 1,
            ..FaultRule::always("harness.dispatch", "tiny", Fault::IoTransient)
        }
        .times(1),
    ]);
    let outcome = run_faulted(
        faults,
        Arc::new(Tiny { name: "tiny" }),
        MemoCache::disabled(),
        Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        },
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 3, "panic, transient, success");
    assert!(entry.error.is_none());
    assert!(outcome.artifacts.contains_key("tiny"));
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recomputed() {
    let dir = scratch_dir("quarantine");
    let cache = MemoCache::at(&dir);

    // Populate the cache uninjected.
    let first = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );
    assert!(!first.report.entries[0].cached);

    // The next load is corrupted in memory; the on-disk entry is moved to
    // quarantine and the experiment recomputes.
    let faults = plan(vec![FaultRule::always(
        "harness.cache.load",
        "tiny",
        Fault::Corrupt,
    )
    .times(1)]);
    let second = run_faulted(
        faults,
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    let entry = &second.report.entries[0];
    assert!(entry.quarantined, "the corrupt entry was set aside");
    assert!(!entry.cached, "quarantine forces a recompute");
    assert!(second.artifacts.contains_key("tiny"));
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir exists")
        .count();
    assert_eq!(quarantined, 1, "the poisoned file survives for forensics");

    // The recomputed entry serves the third run from cache as usual.
    let third = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache,
        Resilience::default(),
    );
    assert!(third.report.entries[0].cached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_cache_entries_are_a_plain_miss() {
    let dir = scratch_dir("truncate");
    let cache = MemoCache::at(&dir);
    run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );

    // A 0-byte read is the cache's own miss-and-delete path: no
    // quarantine, no error, just a recompute.
    let faults = plan(vec![FaultRule::always(
        "harness.cache.load",
        "tiny",
        Fault::Truncate,
    )
    .times(1)]);
    let outcome = run_faulted(
        faults,
        Arc::new(Tiny { name: "tiny" }),
        cache,
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert!(!entry.cached);
    assert!(!entry.quarantined, "truncation is a miss, not a quarantine");
    assert_eq!(entry.attempts, 1);
    assert!(outcome.artifacts.contains_key("tiny"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_cache_loads_are_delayed_then_served() {
    let dir = scratch_dir("stall");
    let cache = MemoCache::at(&dir);
    run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );
    let digest = Tiny { name: "tiny" }.params_digest(&WorkloadParams::paper());

    let faults = armed(vec![FaultRule::always(
        "harness.cache.load",
        "tiny",
        Fault::Stall { ms: 150 },
    )]);
    let start = Instant::now();
    let hit = faults::scope(Some(&faults), || cache.load("tiny", &digest));
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "the stall delays the load by at least its ms"
    );
    assert!(
        matches!(hit, Ok(Some(_))),
        "a stall is not an error: the entry is still served"
    );
    assert_eq!(faults.injected(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failure_reports_are_byte_identical_across_runs_of_the_same_plan() {
    let plan = FaultPlan {
        seed: 7,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "doomed",
            Fault::Panic,
        )],
    };
    let run_once = || {
        let outcome = run_faulted(
            plan.clone(),
            Arc::new(Tiny { name: "doomed" }),
            MemoCache::disabled(),
            Resilience {
                backoff_ms: 1,
                ..Resilience::default()
            },
        );
        FailureReport::from_outcome(&outcome)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.failures.len(), 1);
    assert_eq!(a.failures[0].kind, "worker-panic");
    assert_eq!(a.failures[0].attempts, 3, "the full retry budget was spent");
    assert_eq!(
        a.encode(),
        b.encode(),
        "same plan and seed must reproduce the same failure report"
    );
    let back = FailureReport::validate(&a.encode()).expect("round-trips");
    assert_eq!(back, a);
}

#[test]
fn deadlines_bound_the_recovery_loop() {
    // An endless transient with a huge retry budget: only the deadline
    // stops the loop, and the failure is classified as such.
    let faults = plan(vec![FaultRule::always(
        "harness.dispatch",
        "stuck",
        Fault::IoTransient,
    )]);
    let outcome = run_faulted(
        faults,
        Arc::new(Tiny { name: "stuck" }),
        MemoCache::disabled(),
        Resilience {
            retries: 10_000,
            backoff_ms: 1,
            deadline_s: Some(0.05),
        },
    );
    assert_eq!(outcome.errors.len(), 1);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.error_kind.as_deref(), Some("deadline"));
    assert!(entry.attempts >= 1);
    assert!(outcome.artifacts.is_empty());
}

#[test]
fn unarmed_runs_see_no_faults() {
    // a plan that would fail this run, armed but never put in scope
    let faults = armed(vec![FaultRule::always(
        "harness.dispatch",
        "tiny",
        Fault::IoTransient,
    )]);
    let outcome = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty());
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 1);
    assert!(entry.fallback.is_none());
    assert_eq!(faults.injected(), 0);
}

#[test]
fn runner_workers_run_under_the_callers_plan() {
    // eight experiments over four workers: each one's first dispatch is
    // injected, so every worker that ran anything saw the session's plan
    const NAMES: [&str; 8] = ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"];
    let mut registry = Registry::new();
    for name in NAMES {
        registry.add(Arc::new(Tiny { name }));
    }
    let sim = Sim::builder()
        .registry(registry)
        .jobs(4)
        .resilience(Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        })
        .fault_plan(plan(vec![FaultRule::always(
            "harness.dispatch",
            "w*",
            Fault::IoTransient,
        )
        .times(1)]))
        .build();
    let names: Vec<String> = NAMES.iter().map(|n| n.to_string()).collect();
    let outcome = sim.run(&names).expect("selection is valid");
    let faults = sim.faults().expect("the session holds its plan");
    assert_eq!(outcome.report.jobs, 4);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    for entry in &outcome.report.entries {
        assert_eq!(
            entry.attempts, 2,
            "'{}': injected, then retried",
            entry.name
        );
    }
    assert_eq!(faults.injected(), NAMES.len() as u64);
}

/// An experiment that reads another's artifact.
struct After {
    name: &'static str,
    dep: &'static str,
}

impl Experiment for After {
    fn name(&self) -> &str {
        self.name
    }

    fn deps(&self) -> Vec<String> {
        vec![self.dep.to_string()]
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str(self.name).hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        Tiny { name: self.name }.run(ctx)
    }
}

/// A row skipped because its dependency failed still names the
/// configuration it would have run: its digest is the experiment's
/// `params_digest`, in the report and in the failure report alike.
#[test]
fn dependency_failed_rows_carry_their_digest() {
    let after = After {
        name: "after",
        dep: "doomed",
    };
    let digest = after.params_digest(&WorkloadParams::paper());
    let mut registry = Registry::new();
    registry.add(Arc::new(Tiny { name: "doomed" }));
    registry.add(Arc::new(after));
    let sim = Sim::builder()
        .registry(registry)
        .jobs(1)
        .resilience(Resilience {
            retries: 0,
            ..Resilience::default()
        })
        .fault_plan(plan(vec![FaultRule::always(
            "harness.dispatch",
            "doomed",
            Fault::Panic,
        )]))
        .build();
    let outcome = sim.run(&["after".to_string()]).expect("selection is valid");
    let row = &outcome.report.entries[1];
    assert_eq!(row.name, "after");
    assert_eq!(row.error_kind.as_deref(), Some("dependency-failed"));
    assert_eq!(row.digest, digest);
    let failures = FailureReport::from_outcome(&outcome);
    let skipped: Vec<&str> = failures
        .failures
        .iter()
        .filter(|f| f.name == "after")
        .map(|f| f.digest.as_str())
        .collect();
    assert_eq!(skipped, [digest.as_str()]);
}
