//! Integration: the `Sim` session facade — request deduplication,
//! parameterised variants, warm-cache serving and graceful shutdown —
//! spanning `stacksim-core`'s session, executor and cache layers.

use std::path::PathBuf;

use stacksim::core::prelude::*;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// N identical in-flight requests coalesce onto one slot: same id, one
/// execution, one artifact — the solver ran exactly once.
#[test]
fn identical_inflight_requests_run_exactly_once() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let request = ExperimentRequest::new("fig5:gauss");
    let handles: Vec<_> = (0..5).map(|_| sim.submit(&request).unwrap()).collect();

    // all five share the first submission's slot
    for h in &handles {
        assert_eq!(h.id(), handles[0].id());
        assert_eq!(h.digest(), handles[0].digest());
        assert_eq!(h.status(), RequestStatus::Queued);
    }
    let stats = sim.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.dedup_hits, 4, "four submissions deduplicated");
    assert_eq!(stats.inflight, 1, "one slot of real work");

    sim.resume();
    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    for o in &outcomes {
        assert!(o.is_ok(), "{:?}", o.report.error);
        // every handle sees the *same* outcome object, not a re-run
        assert!(std::sync::Arc::ptr_eq(o, &outcomes[0]));
    }
    assert_eq!(outcomes[0].report.attempts, 1, "one clean execution");
    assert_eq!(sim.stats().completed, 1);
}

/// Parameterised variants are first-class: an override folds into the
/// digest, so variants neither deduplicate nor share cache entries.
#[test]
fn parameter_overrides_split_the_digest() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let base = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    let variant = sim
        .submit(&ExperimentRequest::new("fig5:gauss").seed(0xdead_beef))
        .unwrap();
    assert_ne!(base.id(), variant.id(), "a variant is not a duplicate");
    assert_ne!(
        base.digest(),
        variant.digest(),
        "seed is part of the digest"
    );
    assert_eq!(sim.stats().dedup_hits, 0);

    // resubmitting the same variant *does* deduplicate
    let again = sim
        .submit(&ExperimentRequest::new("fig5:gauss").seed(0xdead_beef))
        .unwrap();
    assert_eq!(again.id(), variant.id());
    assert_eq!(sim.stats().dedup_hits, 1);

    sim.resume();
    let (b, v) = (base.wait(), variant.wait());
    assert!(b.is_ok() && v.is_ok());
    // distinct digests mean distinct executions: neither came from the
    // other's work (no cache is configured here)
    assert!(!b.report.cached && !v.report.cached);
    assert_eq!(b.report.attempts, 1);
    assert_eq!(v.report.attempts, 1);
}

/// A second submission after the first completed is *not* a dedup hit —
/// it is served from the session's warm cache with zero solver work.
#[test]
fn completed_request_resubmission_hits_the_cache() {
    let dir = scratch_dir("warm");
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .cache(MemoCache::builder().dir(&dir).shards(4).build())
        .build();
    let first = sim.submit(&ExperimentRequest::new("fig8")).unwrap().wait();
    assert!(first.is_ok(), "{:?}", first.report.error);
    assert!(!first.report.cached, "cold cache actually runs");
    assert!(first.report.telemetry.solver.iterations > 0);

    let second = sim.submit(&ExperimentRequest::new("fig8")).unwrap().wait();
    assert!(second.report.cached, "the warm cache serves the re-run");
    assert_eq!(
        second.report.telemetry.solver.iterations, 0,
        "a cache hit does zero CG iterations"
    );
    assert_eq!(first.report.digest, second.report.digest);
    // bit-identical artifact through the cache round-trip
    assert_eq!(
        first.artifact.as_ref().unwrap().encode(),
        second.artifact.as_ref().unwrap().encode()
    );
    assert_eq!(sim.stats().dedup_hits, 0, "not a dedup: the first finished");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The embedded `Sim` path produces byte-for-byte the artifact the
/// plain `run_one` path produces — the embed-or-serve split does not
/// perturb results.
#[test]
fn sim_artifact_matches_run_one_bit_for_bit() {
    let params = WorkloadParams::test();
    let direct = run_one("fig5:conj", params).unwrap();

    let sim = Sim::builder().params(params).build();
    let outcome = sim
        .submit(&ExperimentRequest::new("fig5:conj"))
        .unwrap()
        .wait();
    let via_sim = outcome.artifact.as_ref().unwrap();
    assert_eq!(direct.encode(), via_sim.encode());
}

/// Requests written before the solver lost its thread knob still decode
/// and replay. A journal line or serve body carrying `"solver_threads":2`
/// recovers with the field dropped, and the recovered request is the
/// same work as one that never carried it: same digest, one slot.
#[test]
fn a_journal_line_with_solver_threads_still_replays() {
    use stacksim::core::harness::json::Json;
    use stacksim::core::harness::RequestJournal;

    let old = r#"{"experiment":"fig6","solver_threads":2}"#;
    let body = ExperimentRequest::from_json(&Json::parse(old).unwrap()).unwrap();
    assert_eq!(body.to_json().encode(), r#"{"experiment":"fig6"}"#);

    let dir = scratch_dir("old-journal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("requests.jsonl");
    std::fs::write(
        &path,
        format!(
            "{{\"schema\":\"stacksim-journal/1\",\"ev\":\"accepted\",\"id\":0,\"request\":{old}}}\n"
        ),
    )
    .unwrap();
    let recovery = RequestJournal::recover(&path).unwrap();
    assert_eq!(recovery.corrupt_skipped, 0);
    assert_eq!(
        recovery.unfinished.len(),
        1,
        "the old line is unfinished work"
    );
    let replayed = &recovery.unfinished[0];
    assert_eq!(replayed.to_json().encode(), r#"{"experiment":"fig6"}"#);

    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .journal(std::sync::Arc::new(recovery.journal))
        .start_paused(true)
        .build();
    let old_handle = sim.submit(replayed).unwrap();
    let new_handle = sim.submit(&ExperimentRequest::new("fig6")).unwrap();
    assert_eq!(old_handle.id(), new_handle.id(), "one slot of work");
    sim.resume();
    let outcome = old_handle.wait();
    assert!(outcome.is_ok(), "{:?}", outcome.report.error);
    sim.shutdown();
    drop(sim);

    // the replay recorded its completion: nothing is left to recover
    let again = RequestJournal::recover(&path).unwrap();
    assert!(again.unfinished.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shutdown drains: requests submitted before (even to a paused session)
/// still complete, and later submissions are refused.
#[test]
fn shutdown_drains_submitted_work() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let handle = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert_eq!(handle.status(), RequestStatus::Queued);
    // never resumed: shutdown itself must release and finish the queue
    sim.shutdown();
    let outcome = handle.try_outcome().expect("drained on shutdown");
    assert!(outcome.is_ok(), "{:?}", outcome.report.error);
    assert!(sim.submit(&ExperimentRequest::new("fig3")).is_err());
}

/// Structural failures surface per-request: an unknown experiment is
/// refused at submit time with a typed error.
#[test]
fn unknown_experiment_is_refused_at_submit() {
    let sim = Sim::builder().params(WorkloadParams::test()).build();
    let err = sim.submit(&ExperimentRequest::new("fig99")).unwrap_err();
    assert_eq!(err.kind(), "unknown-experiment");
    // invalid overrides are refused too
    let err = sim
        .submit(&ExperimentRequest::new("fig3").threads(0))
        .unwrap_err();
    assert!(err.to_string().contains("thread count"), "{err}");
}

/// Admission control: past `max_pending` queued+running requests, new
/// distinct submissions are shed with a typed `overloaded` error — but
/// duplicates of in-flight work still coalesce (a dedup costs nothing),
/// and completions release slots for shed callers to retry into.
#[test]
fn admission_bound_sheds_and_releases() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .max_pending(2)
        .build();
    let first = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    let _second = sim.submit(&ExperimentRequest::new("fig5:pcg")).unwrap();
    // at the bound: a distinct third submission is shed...
    let err = sim
        .submit(&ExperimentRequest::new("fig5:conj"))
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert!(err.to_string().contains("limit of 2"), "{err}");
    // ...but a duplicate of in-flight work is still admitted
    let dup = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert_eq!(dup.id(), first.id());

    // completion releases slots: the shed request is admitted on retry
    sim.resume();
    sim.wait_idle();
    let retried = sim.submit(&ExperimentRequest::new("fig5:conj")).unwrap();
    assert!(retried.wait().is_ok());
}

/// A request's `deadline_ms` tightens the resilience policy for its own
/// batch: recovery stops at the request's deadline instead of spending
/// the retry budget, and the deadline is part of the dedup key.
#[test]
fn request_deadline_bounds_recovery() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let plan = FaultPlan {
        seed: 7,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:gauss",
            Fault::IoTransient,
        )],
    };
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .fault_plan(plan)
        .resilience(Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        })
        .start_paused(true)
        .build();
    let doomed = sim
        .submit(
            &ExperimentRequest::new("fig5:gauss")
                .faults(true)
                .deadline_ms(1),
        )
        .unwrap();
    let relaxed = sim
        .submit(
            &ExperimentRequest::new("fig5:gauss")
                .faults(true)
                .deadline_ms(60_000),
        )
        .unwrap();
    assert_ne!(doomed.id(), relaxed.id(), "deadline splits the dedup key");

    sim.resume();
    let d = doomed.wait();
    assert!(!d.is_ok());
    // the 1 ms deadline trips as soon as a failed attempt lands past it
    assert_eq!(d.report.error_kind.as_deref(), Some("deadline"));
    assert!(
        d.report.attempts <= 2,
        "the deadline pre-empts the full retry budget (attempts={})",
        d.report.attempts
    );
    // a roomy deadline never fires: the always-on fault exhausts the
    // retry budget instead and surfaces as the transient error it is
    let r = relaxed.wait();
    assert!(!r.is_ok());
    assert_eq!(r.report.error_kind.as_deref(), Some("io"));
    assert!(r.report.attempts > 1, "the retry budget was spent");
}

/// `wait_timeout` is a bounded wait: `None` while the work cannot
/// finish, the outcome once it does — the serve long-poll building
/// block.
#[test]
fn wait_timeout_is_bounded() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let handle = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert!(
        handle
            .wait_timeout(std::time::Duration::from_millis(30))
            .is_none(),
        "paused work cannot finish inside the timeout"
    );
    sim.resume();
    let outcome = handle
        .wait_timeout(std::time::Duration::from_secs(60))
        .expect("resumed work finishes");
    assert!(outcome.is_ok(), "{:?}", outcome.report.error);
}

/// A fault-injected panic inside the runner's dispatch neither wedges
/// the scheduler nor leaks into clean work: every queued handle
/// resolves, the doomed request reports `worker-panic` after its full
/// retry budget, the clean twin of the same experiment succeeds, and
/// the session keeps serving afterwards.
#[test]
fn injected_dispatch_panic_resolves_every_handle() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let plan = FaultPlan {
        seed: 11,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:sMVM",
            Fault::Panic,
        )],
    };
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .fault_plan(plan)
        .resilience(Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        })
        .start_paused(true)
        .build();
    let doomed = sim
        .submit(&ExperimentRequest::new("fig5:sMVM").faults(true))
        .unwrap();
    let clean = sim.submit(&ExperimentRequest::new("fig5:sMVM")).unwrap();
    assert_ne!(
        doomed.id(),
        clean.id(),
        "fault opt-in never dedups against clean"
    );
    let other = sim.submit(&ExperimentRequest::new("fig5:pcg")).unwrap();

    sim.resume();
    let d = doomed.wait();
    let c = clean.wait();
    let o = other.wait();
    assert!(!d.is_ok(), "the injected panic fails the request");
    assert_eq!(d.report.error_kind.as_deref(), Some("worker-panic"));
    assert!(d.report.attempts > 1, "the retry budget was spent");
    assert!(c.is_ok(), "clean twin unaffected: {:?}", c.report.error);
    assert!(
        o.is_ok(),
        "unrelated request unaffected: {:?}",
        o.report.error
    );

    // the scheduler thread survived the panicking batch: the session
    // still accepts and completes new work
    let after = sim
        .submit(&ExperimentRequest::new("fig5:pcg"))
        .unwrap()
        .wait();
    assert!(after.is_ok(), "{:?}", after.report.error);
    // `wait()` resolves on slot completion; the scheduler's batch
    // bookkeeping (the `running` gauge) settles at idle
    sim.wait_idle();
    assert_eq!(sim.stats().inflight, 0, "nothing left queued or running");
}

/// An experiment that holds its batch open between two rendezvous with
/// the test, so another session can run while this one's plan is in
/// force.
struct Gate(std::sync::Arc<std::sync::Barrier>);

impl stacksim::core::harness::Experiment for Gate {
    fn name(&self) -> &str {
        "gate"
    }

    fn sensitivity(&self) -> stacksim::core::harness::ParamSensitivity {
        stacksim::core::harness::ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        stacksim::core::harness::Digest::new().str("gate").hex()
    }

    fn run(&self, _ctx: &stacksim::core::harness::Ctx) -> Result<Artifact, Error> {
        self.0.wait(); // entered
        self.0.wait(); // released
        Ok(Artifact::Headline(stacksim::core::Headline {
            mean_cpma_reduction: 2.0,
            peak_cpma_reduction: 3.0,
            bandwidth_reduction_factor: 3.0,
            bus_power_saving_w: 0.5,
            baseline_bus_power_w: 0.6,
        }))
    }
}

/// While one request holds a worker, a request under other parameters
/// runs on the other worker instead of queueing behind it.
#[test]
fn a_held_request_does_not_block_other_params() {
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let mut registry = Registry::standard();
    registry.add(std::sync::Arc::new(Gate(barrier.clone())));
    let sim = Sim::builder()
        .registry(registry)
        .params(WorkloadParams::test())
        .jobs(2)
        .build();
    let held = sim.submit(&ExperimentRequest::new("gate")).unwrap();
    barrier.wait(); // the gate holds one worker

    let other = sim
        .submit(&ExperimentRequest::new("fig5:gauss").seed(0xfeed))
        .unwrap()
        .wait_timeout(std::time::Duration::from_secs(5));
    barrier.wait(); // release the gate before any assertion can unwind
    let other = other.expect("the free worker finished the other request");
    assert!(other.is_ok(), "{:?}", other.report.error);
    assert!(held.wait().is_ok());
}

/// An experiment whose digest follows the seed and which records how
/// many of its runs overlap.
struct Counting {
    running: std::sync::atomic::AtomicUsize,
    peak: std::sync::atomic::AtomicUsize,
    runs: std::sync::atomic::AtomicUsize,
}

impl stacksim::core::harness::Experiment for Counting {
    fn name(&self) -> &str {
        "counting"
    }

    fn sensitivity(&self) -> stacksim::core::harness::ParamSensitivity {
        stacksim::core::harness::ParamSensitivity {
            seed: true,
            ..stacksim::core::harness::ParamSensitivity::none()
        }
    }

    fn params_digest(&self, params: &WorkloadParams) -> String {
        stacksim::core::harness::Digest::new()
            .str("counting")
            .u64(params.seed)
            .hex()
    }

    fn run(&self, _ctx: &stacksim::core::harness::Ctx) -> Result<Artifact, Error> {
        use std::sync::atomic::Ordering::SeqCst;
        let now = self.running.fetch_add(1, SeqCst) + 1;
        self.peak.fetch_max(now, SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(20));
        self.running.fetch_sub(1, SeqCst);
        self.runs.fetch_add(1, SeqCst);
        Ok(Artifact::Headline(stacksim::core::Headline {
            mean_cpma_reduction: 2.0,
            peak_cpma_reduction: 3.0,
            bandwidth_reduction_factor: 3.0,
            bus_power_saving_w: 0.5,
            baseline_bus_power_w: 0.6,
        }))
    }
}

/// `jobs` bounds the executor: eight distinct requests on a two-worker
/// session never have more than two runs in flight.
#[test]
fn jobs_bounds_the_runs_in_flight() {
    use std::sync::atomic::Ordering::SeqCst;
    let counting = std::sync::Arc::new(Counting {
        running: 0.into(),
        peak: 0.into(),
        runs: 0.into(),
    });
    let mut registry = Registry::new();
    registry.add(counting.clone());
    let sim = Sim::builder()
        .registry(registry)
        .params(WorkloadParams::test())
        .jobs(2)
        .build();
    let handles: Vec<_> = (0..8)
        .map(|seed| {
            sim.submit(&ExperimentRequest::new("counting").seed(seed))
                .unwrap()
        })
        .collect();
    for h in &handles {
        assert!(h.wait().is_ok());
    }
    assert_eq!(counting.runs.load(SeqCst), 8, "eight distinct digests");
    let peak = counting.peak.load(SeqCst);
    assert!(peak <= 2, "{peak} runs in flight on two workers");
}

/// A session's fault plan never reaches another session in the same
/// process: while session A runs an opted-in batch under a plan that
/// fails every `fig3` dispatch, a plan-less session B runs `fig3`
/// without retries and succeeds.
#[test]
fn a_fault_plan_does_not_leak_into_other_sessions() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let mut registry = Registry::new();
    registry.add(std::sync::Arc::new(Gate(barrier.clone())));
    let a = Sim::builder()
        .registry(registry)
        .params(WorkloadParams::test())
        .fault_plan(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::always(
                "harness.dispatch",
                "fig3",
                Fault::IoTransient,
            )],
        })
        .build();
    let held = a
        .submit(&ExperimentRequest::new("gate").faults(true))
        .unwrap();
    barrier.wait(); // A's opted-in batch is running

    let b = Sim::builder()
        .params(WorkloadParams::test())
        .resilience(Resilience {
            retries: 0,
            ..Resilience::default()
        })
        .build();
    let clean = b.submit(&ExperimentRequest::new("fig3")).map(|h| h.wait());
    barrier.wait(); // release A before any assertion can unwind
    let clean = clean.unwrap();
    assert!(clean.is_ok(), "{:?}", clean.report.error);
    assert_eq!(clean.report.attempts, 1);
    assert!(held.wait().is_ok());
    assert_eq!(a.faults().map(|f| f.injected()), Some(0));
}

/// A session arms its plan once: `times`/`after` windows count over the
/// session's lifetime, not per batch, so a `times(1)` rule fails exactly
/// one of two sequential opted-in requests.
#[test]
fn one_fault_schedule_spans_the_session() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let plan = FaultPlan {
        seed: 5,
        rules: vec![
            FaultRule::always("harness.dispatch", "fig5:gauss", Fault::IoTransient).times(1),
        ],
    };
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .fault_plan(plan)
        .resilience(Resilience {
            retries: 0,
            ..Resilience::default()
        })
        .build();
    let ok: Vec<bool> = [1, 2]
        .iter()
        .map(|&seed| {
            let request = ExperimentRequest::new("fig5:gauss").seed(seed).faults(true);
            sim.submit(&request).unwrap().wait().is_ok()
        })
        .collect();
    assert_eq!(ok, [false, true], "only the first request is injected");
    assert_eq!(sim.faults().map(|f| f.injected()), Some(1));
}

/// `Sim::run` shares the session's in-flight work: a request submitted
/// to a paused session, then selected by `run` from another thread, runs
/// exactly once after `resume`.
#[test]
fn run_shares_a_request_already_in_flight() {
    use std::sync::atomic::Ordering::SeqCst;
    let counting = std::sync::Arc::new(Counting {
        running: 0.into(),
        peak: 0.into(),
        runs: 0.into(),
    });
    let mut registry = Registry::new();
    registry.add(counting.clone());
    let sim = Sim::builder()
        .registry(registry)
        .params(WorkloadParams::test())
        .jobs(2)
        .start_paused(true)
        .build();
    let handle = sim.submit(&ExperimentRequest::new("counting")).unwrap();
    let outcome = std::thread::scope(|s| {
        let run = s.spawn(|| sim.run(&["counting".to_string()]));
        // `run` has attached once its submission counts as a dedup hit
        while sim.stats().dedup_hits == 0 && !run.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let runs_while_paused = counting.runs.load(SeqCst);
        sim.resume();
        (runs_while_paused, run.join().expect("run thread"))
    });
    let (runs_while_paused, outcome) = (outcome.0, outcome.1.unwrap());
    assert_eq!(runs_while_paused, 0, "nothing runs while paused");
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.report.entries.len(), 1);
    assert_eq!(outcome.report.entries[0].attempts, 1);
    assert!(handle.wait().is_ok());
    assert_eq!(counting.runs.load(SeqCst), 1, "one execution for both");
}
