//! Integration: the experiment harness — registry fan-out, disk
//! memoization, telemetry and parallel/serial determinism — spanning
//! `stacksim-core`, `stacksim-thermal`, `stacksim-mem` and
//! `stacksim-workloads`.

use std::path::PathBuf;

use stacksim::core::harness::{Artifact, MemoCache, Registry, Sim};
use stacksim::workloads::WorkloadParams;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-harness-{tag}-{}", std::process::id()));
    // a stale dir from a crashed run must not poison the test
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(params: WorkloadParams, jobs: usize, cache: MemoCache) -> Sim {
    Sim::builder()
        .params(params)
        .jobs(jobs)
        .cache(cache)
        .preflight(true)
        .build()
}

#[test]
fn memoization_same_digest_is_a_cache_hit_with_zero_solver_work() {
    let dir = scratch_dir("memo");
    let params = WorkloadParams::test();

    let first = session(params, 1, MemoCache::at(&dir))
        .run(&["fig8".into()])
        .unwrap();
    let e1 = &first.report.entries[0];
    assert!(!e1.cached, "cold cache must actually run");
    assert!(
        e1.telemetry.solver.iterations > 0,
        "fig8 performs CG solves when it runs"
    );

    let second = session(params, 1, MemoCache::at(&dir))
        .run(&["fig8".into()])
        .unwrap();
    let e2 = &second.report.entries[0];
    assert!(e2.cached, "same digest must hit the cache");
    assert_eq!(
        e2.telemetry.solver.iterations, 0,
        "a cache hit does zero solver work"
    );
    assert_eq!(e1.digest, e2.digest);

    // the cached artifact is bit-identical to the fresh one
    let a = first.artifacts.get("fig8").unwrap();
    let b = second.artifacts.get("fig8").unwrap();
    assert_eq!(a.encode(), b.encode());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memoization_changed_config_is_a_miss_and_reruns() {
    let dir = scratch_dir("digest");
    let params = WorkloadParams::test();

    let first = session(params, 1, MemoCache::at(&dir))
        .run(&["fig5:gauss".into()])
        .unwrap();
    assert!(!first.report.entries[0].cached);

    // a different trace seed is a different experiment point: the digest
    // must change and the cache must not serve the stale artifact
    let mut reseeded = params;
    reseeded.seed ^= 0xdead_beef;
    let second = session(reseeded, 1, MemoCache::at(&dir))
        .run(&["fig5:gauss".into()])
        .unwrap();
    let (e1, e2) = (&first.report.entries[0], &second.report.entries[0]);
    assert_ne!(e1.digest, e2.digest, "seed is part of the digest");
    assert!(!e2.cached, "changed config must re-run");
    assert!(
        e2.telemetry.trace_records() > 0,
        "the re-run simulates the trace again"
    );

    // and the original point still hits
    let third = session(params, 1, MemoCache::at(&dir))
        .run(&["fig5:gauss".into()])
        .unwrap();
    assert!(third.report.entries[0].cached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_fig5_artifacts_are_bit_identical() {
    let params = WorkloadParams::test();
    let serial = session(params, 1, MemoCache::disabled())
        .run(&["fig5".into()])
        .unwrap();
    let parallel = session(params, 4, MemoCache::disabled())
        .run(&["fig5".into()])
        .unwrap();
    assert!(serial.errors.is_empty() && parallel.errors.is_empty());

    // every per-benchmark point and the aggregate must match byte-for-byte
    assert_eq!(serial.artifacts.len(), parallel.artifacts.len());
    assert_eq!(serial.artifacts.len(), 13, "12 points + the aggregate");
    for (name, artifact) in &serial.artifacts {
        let other = parallel
            .artifacts
            .get(name)
            .unwrap_or_else(|| panic!("parallel run missing {name}"));
        assert_eq!(
            artifact.encode(),
            other.encode(),
            "{name} differs between serial and parallel"
        );
    }
}

#[test]
fn dependencies_run_before_dependents_and_artifacts_flow() {
    let outcome = session(WorkloadParams::test(), 2, MemoCache::disabled())
        .run(&["headline".into()])
        .unwrap();
    assert!(outcome.errors.is_empty());
    // headline pulls in fig5 which pulls in all twelve points
    assert_eq!(outcome.artifacts.len(), 1 + 1 + 12);
    let headline = outcome.artifacts.get("headline").unwrap();
    match headline.as_ref() {
        Artifact::Headline(h) => assert!(h.bandwidth_reduction_factor > 0.0),
        other => panic!("expected headline artifact, got {}", other.kind()),
    }
}

#[test]
fn unknown_experiment_is_an_error_not_a_panic() {
    let err = session(WorkloadParams::test(), 1, MemoCache::disabled())
        .run(&["fig99".into()])
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fig99"), "error names the experiment: {msg}");
}

/// An experiment with fixed dependency edges that must never run.
struct Edges(&'static str, &'static [&'static str]);

impl stacksim::core::harness::Experiment for Edges {
    fn name(&self) -> &str {
        self.0
    }

    fn deps(&self) -> Vec<String> {
        self.1.iter().map(|d| d.to_string()).collect()
    }

    fn sensitivity(&self) -> stacksim::core::harness::ParamSensitivity {
        stacksim::core::harness::ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        stacksim::core::harness::Digest::new().str(self.0).hex()
    }

    fn run(&self, _ctx: &stacksim::core::harness::Ctx) -> Result<Artifact, stacksim::core::Error> {
        panic!("'{}' ran in a graph that should have been refused", self.0)
    }
}

/// Broken graphs are refused before anything runs: a cycle and a
/// dangling edge are typed errors from `Sim::run` and `Sim::submit`
/// alike, and nothing is left in flight.
#[test]
fn cyclic_and_dangling_graphs_are_refused() {
    use stacksim::core::harness::{ExperimentRequest, Sim};
    let mut registry = Registry::new();
    registry.add(std::sync::Arc::new(Edges("a", &["b"])));
    registry.add(std::sync::Arc::new(Edges("b", &["a"])));
    registry.add(std::sync::Arc::new(Edges("c", &["gone"])));
    let sim = Sim::builder().registry(registry).build();
    fn kind<T>(r: Result<T, stacksim::core::Error>) -> &'static str {
        r.map(|_| ()).unwrap_err().kind()
    }
    assert_eq!(kind(sim.run(&["a".into()])), "dependency-cycle");
    assert_eq!(kind(sim.run(&["c".into()])), "missing-dependency");

    assert_eq!(
        kind(sim.submit(&ExperimentRequest::new("b"))),
        "dependency-cycle"
    );
    assert_eq!(
        kind(sim.submit(&ExperimentRequest::new("c"))),
        "missing-dependency"
    );
    assert_eq!(sim.stats().inflight, 0);
}

/// `Sim::run` reports its closure's rows in registration order, and
/// `report.jobs` is the session's workers capped by the closure size.
#[test]
fn run_reports_the_closure_in_registration_order() {
    let sim = session(WorkloadParams::test(), 8, MemoCache::disabled());
    let outcome = sim.run(&["headline".into()]).unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let rows: Vec<&str> = outcome
        .report
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    let registered: Vec<&str> = sim
        .registry()
        .names()
        .into_iter()
        .filter(|n| rows.contains(n))
        .collect();
    assert_eq!(rows.len(), 14, "headline, fig5 and its twelve points");
    assert_eq!(rows, registered);
    assert_eq!(outcome.report.jobs, 8);

    let fig3 = sim.run(&["fig3".into()]).unwrap();
    assert_eq!(fig3.report.jobs, 1, "one experiment keeps one worker busy");
}
