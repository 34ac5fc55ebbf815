//! Golden digest-stability tests for the fig3 and fig8 artifacts.
//!
//! Each test runs the real experiment, serializes the artifact through its
//! canonical JSON codec, and hashes the bytes. The hex constants below were
//! captured from a known-good run; they pin the solver's *exact* floating
//! point behaviour, so any change to summation order, stencil layout,
//! partitioning, or warm-start logic that moves a single bit shows up here.
//!
//! If a deliberate numeric change lands (new reduction order, different
//! convergence path), re-capture the constants from the failure message.

use stacksim::core::harness::{Artifact, Digest};
use stacksim::core::{memory_logic, sensitivity};
use stacksim::thermal::SolverConfig;

/// Digest of the encoded artifact: length-prefixed FNV-1a over the
/// canonical JSON text.
fn digest(artifact: &Artifact) -> String {
    Digest::new().str(&artifact.encode()).hex()
}

/// A reduced grid keeps the debug-profile runtime reasonable while still
/// exercising the full sweep (warm starts, multi-layer sweeps, both
/// curves). nx=20 -> ny=17, 14 layers.
fn cfg() -> SolverConfig {
    SolverConfig::builder().nx(20).ny(17).build()
}

const GOLDEN_FIG3: &str = "96e4ca5a7dc6bc4f";
const GOLDEN_FIG8: &str = "bbc49dedf247dddf";

#[test]
fn fig3_artifact_digest_is_stable() {
    let (data, _) = sensitivity::fig3_with(cfg()).unwrap();
    let d = digest(&Artifact::Fig3(data));
    assert_eq!(d, GOLDEN_FIG3, "fig3 digest moved: got {d}");
}

#[test]
fn fig8_artifact_digest_is_stable() {
    let (points, _) = memory_logic::fig8_with(cfg()).unwrap();
    let d = digest(&Artifact::Fig8(points));
    assert_eq!(d, GOLDEN_FIG8, "fig8 digest moved: got {d}");
}

/// The observability contract (DESIGN.md §10): with metrics live and an
/// event sink installed, the solver produces bit-identical artifacts —
/// instrumentation reads the simulation, never feeds back into it.
#[test]
fn fig3_digest_is_identical_with_observability_enabled() {
    struct Capture(std::sync::Mutex<Vec<String>>);
    impl stacksim::obs::EventSink for Capture {
        fn line(&self, s: &str) {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(s.to_string());
        }
    }
    let sink = std::sync::Arc::new(Capture(std::sync::Mutex::new(Vec::new())));
    stacksim::obs::enable();
    stacksim::obs::set_sink(Some(sink.clone()));
    let (data, _) = sensitivity::fig3_with(cfg()).unwrap();
    stacksim::obs::set_sink(None);
    stacksim::obs::disable();

    let d = digest(&Artifact::Fig3(data));
    assert_eq!(
        d, GOLDEN_FIG3,
        "observability moved the fig3 digest: got {d}"
    );

    let lines = sink
        .0
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(
        lines.iter().any(|l| l.contains("thermal.cg.solve")),
        "no solve events captured"
    );
    // every instrument the run registered is statically declared (SL060)
    let report = stacksim::core::harness::obs_audit();
    assert!(!report.has_errors(), "{}", report.render_pretty());
}
