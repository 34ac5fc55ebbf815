//! Zero-cost-when-disabled observability for stacksim.
//!
//! The crate follows the `log`-crate pattern: a process-global registry
//! plus a global *enabled* flag, so instrumented crates (`mem`,
//! `thermal`, `core`) depend only on `stacksim-obs` — never on each
//! other — and an uninstrumented binary pays nothing.
//!
//! # Overhead contract
//!
//! Every hot-path recording method ([`Counter::add`], [`Gauge::set`],
//! [`Histogram::record`], [`span`], [`event`](fn@event)) starts with a branch on a
//! single relaxed atomic load ([`enabled`]). While observability is
//! disabled — the default — that branch is the *entire* cost: no locks,
//! no allocation, no time-stamping, and crucially no floating-point
//! work, so simulation results are bit-identical with the layer enabled
//! or disabled (the golden-digest tests in the root crate pin this).
//!
//! # Shape
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — cheap `Arc`-backed handles
//!   resolved once from the [`Registry`] (typically at component
//!   construction time) and then touched lock-free on the hot path.
//! * [`span`] / [`event`](fn@event) — structured records pushed to an installed
//!   [`EventSink`] (e.g. [`JsonlSink`]) with monotonic microsecond
//!   timestamps. Spans emit paired `begin` / `end` lines.
//! * [`Registry::snapshot`] — a deterministic, schema-stable JSON
//!   snapshot (`schema = "stacksim-obs/1"`) of every registered
//!   instrument, sorted by name.
//!
//! Instruments are process-global aggregates: two clones of an
//! instrumented component share the same cells. Callers that want a
//! clean slate (the CLI, tests) call [`reset`] first.

pub mod event;
mod json;
pub mod metrics;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use event::{event, set_sink, span, EventSink, FieldValue, JsonlSink, Span};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramBatch, HistogramSnapshot, Registry, Snapshot,
};

/// Version tag written into every metrics snapshot; bump on any change
/// to the snapshot layout.
pub const SNAPSHOT_SCHEMA: &str = "stacksim-obs/1";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is the observability layer recording? Relaxed load; this is the
/// branch every instrumentation site pays when disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on. Also anchors the monotonic event clock so the
/// first event does not pay for clock initialisation.
pub fn enable() {
    event::init_clock();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. Instruments keep their accumulated values (take
/// a [`Registry::snapshot`] before or after; it reads the same cells).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// The process-global instrument registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolve (registering on first use) a counter by name.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Resolve (registering on first use) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Resolve (registering on first use) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

/// Zero every registered instrument (names stay registered).
pub fn reset() {
    registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Global-state tests must not interleave; each one holds this.
    pub(crate) fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[derive(Default)]
    pub(crate) struct CaptureSink {
        pub lines: Mutex<Vec<String>>,
    }

    impl EventSink for CaptureSink {
        fn line(&self, s: &str) {
            self.lines
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(s.to_string());
        }
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let _g = global_lock();
        disable();
        reset();
        let c = counter("test.disabled_counter");
        let g = gauge("test.disabled_gauge");
        let h = histogram("test.disabled_hist");
        c.add(7);
        g.set(3.5);
        h.record(12);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0.0);
        let snap = registry().snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.disabled_hist")
            .map(|h| h.count);
        assert_eq!(hs, Some(0));
    }

    #[test]
    fn enabled_instruments_accumulate() {
        let _g = global_lock();
        reset();
        enable();
        let c = counter("test.counter");
        c.add(3);
        c.inc();
        let g = gauge("test.gauge");
        g.set(1.25);
        let h = histogram("test.hist");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(1024);
        disable();
        assert_eq!(c.value(), 4);
        assert_eq!(g.value(), 1.25);
        let snap = registry().snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.hist")
            .cloned()
            .unwrap();
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 1030);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1024);
        // 0 → bucket 0; 1 → bucket 1; 5 → bucket 3 ([4,7]); 1024 → bucket 11.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (3, 1), (11, 1)]);
        reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn handles_share_cells_by_name() {
        let _g = global_lock();
        reset();
        enable();
        let a = counter("test.shared");
        let b = counter("test.shared");
        a.add(2);
        b.add(3);
        disable();
        assert_eq!(a.value(), 5);
        assert_eq!(b.value(), 5);
    }

    #[test]
    fn snapshot_is_sorted_and_schema_tagged() {
        let _g = global_lock();
        reset();
        counter("test.z_last");
        counter("test.a_first");
        let snap = registry().snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let text = snap.encode();
        assert!(text.starts_with("{\"schema\":\"stacksim-obs/1\""));
        assert!(text.contains("\"test.a_first\""));
    }

    #[test]
    fn spans_emit_paired_begin_end_lines() {
        let _g = global_lock();
        reset();
        let sink = Arc::new(CaptureSink::default());
        set_sink(Some(sink.clone()));
        enable();
        {
            let mut s = span("test.span");
            s.field("answer", 42u64);
            s.field("label", "x");
        }
        event("test.point", &[("ok", FieldValue::from(true))]);
        disable();
        set_sink(None);
        let lines = sink.lines.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"ev\":\"begin\"") && lines[0].contains("\"name\":\"test.span\"")
        );
        assert!(lines[1].contains("\"ev\":\"end\"") && lines[1].contains("\"answer\":42"));
        assert!(lines[1].contains("\"label\":\"x\""));
        assert!(lines[2].contains("\"ev\":\"point\"") && lines[2].contains("\"ok\":true"));
        // begin and end carry the same span id.
        let id = |l: &str| {
            l.split("\"span\":")
                .nth(1)
                .and_then(|t| t.split(',').next())
                .map(str::to_string)
        };
        assert_eq!(id(&lines[0]), id(&lines[1]));
        assert!(id(&lines[0]).is_some());
    }

    #[test]
    fn spans_are_inert_when_disabled_or_sinkless() {
        let _g = global_lock();
        disable();
        let sink = Arc::new(CaptureSink::default());
        set_sink(Some(sink.clone()));
        {
            let mut s = span("test.noop");
            s.field("k", 1u64);
        }
        set_sink(None);
        // Enabled but no sink installed: also inert.
        enable();
        drop(span("test.noop2"));
        disable();
        assert!(sink
            .lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty());
    }
}
