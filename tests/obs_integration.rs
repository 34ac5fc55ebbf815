//! End-to-end observability: run a real experiment through the harness
//! with metrics and an event log on, then validate both artifacts the
//! way `stacksim stats` does — schema-checked snapshot, balanced span
//! log, and counter values consistent with the run report.

use std::sync::Arc;

use stacksim::core::harness::json::Json;
use stacksim::core::harness::{obs_audit, obs_report, MemoCache, Sim, SimBuilder};
use stacksim::workloads::WorkloadParams;

/// The enable flag, registry and sink are process-global; tests touching
/// them must not interleave.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn run_with_observability_produces_valid_artifacts() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let snapshot_path = dir.join("metrics.json");

    stacksim::obs::reset();
    stacksim::obs::enable();
    let sink = stacksim::obs::JsonlSink::create(&events_path).unwrap();
    stacksim::obs::set_sink(Some(Arc::new(sink)));

    let outcome = Sim::builder()
        .params(WorkloadParams::test())
        .jobs(1)
        .cache(MemoCache::at(dir.join("cache")))
        .preflight(true)
        .build()
        .run(&["fig5:gauss".to_string()])
        .unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);

    stacksim::obs::set_sink(None);
    obs_report::write_snapshot(&snapshot_path).unwrap();
    stacksim::obs::disable();

    let text = std::fs::read_to_string(&snapshot_path).unwrap();
    let summary = obs_report::validate_snapshot(&text).unwrap();
    assert!(summary.counters > 0, "no counters in snapshot");
    assert!(summary.histograms > 0, "no histograms in snapshot");

    let doc = Json::parse(&text).unwrap();
    let counters = doc.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    let records = outcome.report.total_trace_records();
    assert!(records > 0);
    // the counter sees every issued record including warmup; telemetry
    // reports only the measured window, so the counter dominates it
    assert!(counter("mem.engine.records") >= records);
    assert!(counter("mem.accesses") > 0);
    assert!(counter("mem.bus.bytes") > 0);
    assert_eq!(counter("harness.experiments"), 1);
    assert_eq!(counter("harness.cache_misses"), 1);
    assert_eq!(counter("harness.cache_hits"), 0);
    assert!(counter("harness.cache.bytes_written") > 0);

    let events = std::fs::read_to_string(&events_path).unwrap();
    let es = obs_report::validate_events(&events).unwrap();
    assert!(
        es.spans >= 2,
        "expected run + experiment spans, got {}",
        es.spans
    );
    // one generation span for the point, one replay span per stack option
    let ends = |name: &str| {
        let name = format!("\"name\":\"{name}\"");
        events
            .lines()
            .filter(|l| l.contains("\"ev\":\"end\"") && l.contains(&name))
            .count()
    };
    assert_eq!(ends("workloads.generate"), 1);
    assert_eq!(ends("mem.replay"), 4);
    let generate_end = events
        .lines()
        .find(|l| l.contains("\"ev\":\"end\"") && l.contains("\"name\":\"workloads.generate\""))
        .unwrap();
    for field in [
        "\"bench\":\"gauss\"",
        "\"records\":",
        "\"count_us\":",
        "\"wall_us\":",
    ] {
        assert!(
            generate_end.contains(field),
            "{field} missing: {generate_end}"
        );
    }
    assert!(events.contains("\"option\":\"3D 32MB\""));

    let rendered = obs_report::render_snapshot(&text).unwrap();
    assert!(rendered.contains("mem.accesses"));
    assert!(rendered.contains("harness.experiments"));

    // the runtime half of SL060: everything registered is declared
    let report = obs_audit();
    assert!(!report.has_errors(), "{}", report.render_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A second identical run served from the memo cache reports a hit and
/// simulates nothing — the cache counters make that visible.
#[test]
fn cache_hit_shows_up_in_metrics() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let options = || -> SimBuilder {
        Sim::builder()
            .params(WorkloadParams::test())
            .jobs(1)
            .cache(MemoCache::at(dir.join("cache")))
            .preflight(true)
    };

    // seed the cache without metrics
    options().build().run(&["fig5:svm".to_string()]).unwrap();

    stacksim::obs::reset();
    stacksim::obs::enable();
    let outcome = options().build().run(&["fig5:svm".to_string()]).unwrap();
    let snapshot = stacksim::obs::registry().snapshot();
    stacksim::obs::disable();

    assert!(outcome.report.entries[0].cached);
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("harness.cache_hits"), 1);
    assert_eq!(counter("harness.cache_misses"), 0);
    assert_eq!(
        counter("mem.engine.records"),
        0,
        "a cache hit simulates nothing"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hits answered at admission are counted and traced as a worker's hits
/// were: each bumps `harness.experiments` and `harness.cache_hits`,
/// records a wall time, and closes a `harness.experiment` span with
/// `"cached":true` — before `submit` returns.
#[test]
fn admission_hits_are_counted_and_traced_like_worker_hits() {
    use stacksim::core::harness::{ExperimentRequest, RequestStatus};
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-admit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .jobs(1)
        .cache(MemoCache::at(dir.join("cache")))
        .build();
    let request = ExperimentRequest::new("fig5:svm");
    assert!(sim.submit(&request).unwrap().wait().is_ok());

    stacksim::obs::reset();
    stacksim::obs::enable();
    let sink = stacksim::obs::JsonlSink::create(&events_path).unwrap();
    stacksim::obs::set_sink(Some(Arc::new(sink)));
    let hits = [sim.submit(&request).unwrap(), sim.submit(&request).unwrap()];
    let done = hits.iter().all(|h| h.status() == RequestStatus::Done);
    stacksim::obs::set_sink(None);
    let snapshot = stacksim::obs::registry().snapshot();
    stacksim::obs::disable();

    assert!(done, "both hits are done at submit");
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("harness.experiments"), 2);
    assert_eq!(counter("harness.cache_hits"), 2);
    assert_eq!(counter("harness.cache_misses"), 0);
    let walls = snapshot
        .histograms
        .iter()
        .find(|h| h.name == "harness.experiment.wall_us")
        .map_or(0, |h| h.count);
    assert_eq!(walls, 2, "one wall-time sample per hit");

    let events = std::fs::read_to_string(&events_path).unwrap();
    obs_report::validate_events(&events).unwrap();
    let cached_spans = events
        .lines()
        .filter(|l| {
            l.contains("\"ev\":\"end\"")
                && l.contains("\"name\":\"harness.experiment\"")
                && l.contains("\"experiment\":\"fig5:svm\"")
                && l.contains("\"cached\":true")
        })
        .count();
    assert_eq!(cached_spans, 2, "{events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission counts a hit only when it hands the step out: a submission
/// that deduplicates onto an identical request in flight counts none of
/// the dependency hits its probe found.
#[test]
fn a_deduplicated_submission_counts_no_hits() {
    use stacksim::core::harness::ExperimentRequest;
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-dedup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = |paused| {
        Sim::builder()
            .params(WorkloadParams::test())
            .jobs(1)
            .cache(MemoCache::at(&dir))
            .start_paused(paused)
            .build()
    };
    let warm = build(false);
    assert!(warm.run(&["fig5".to_string()]).unwrap().errors.is_empty());
    drop(warm);

    // `headline` misses and waits for the paused worker; `fig5` and its
    // twelve dependencies hit
    let sim = build(true);
    stacksim::obs::reset();
    stacksim::obs::enable();
    let request = ExperimentRequest::new("headline");
    let first = sim.submit(&request).unwrap();
    let second = sim.submit(&request).unwrap();
    let snapshot = stacksim::obs::registry().snapshot();
    stacksim::obs::disable();
    sim.resume();
    assert!(first.wait().is_ok());

    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(second.id(), first.id(), "the second submission dedups");
    assert_eq!(counter("serve.dedup_hits"), 1);
    assert_eq!(counter("harness.cache_hits"), 13, "counted once");
    assert_eq!(counter("harness.experiments"), 13);
    let _ = std::fs::remove_dir_all(&dir);
}
