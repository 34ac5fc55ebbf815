//! stacksim-modelcheck: exhaustive interleaving checks for the
//! workspace's hand-rolled synchronisation.
//!
//! The container has no `loom`, so this crate carries a small
//! stand-alone explorer ([`explore`](mod@explore)) and a hand-translated
//! model of the coordination the static auditor (SA004/SA005) can only
//! approximate structurally: [`dedup::DedupModel`], the session executor's
//! dedup-slot state machine, including proof that the check-then-insert
//! in `submit()` must stay under one lock and that a worker must sweep a
//! slot from the in-flight table before it publishes the outcome.
//!
//! Fast configurations run as ordinary unit tests; `cargo xtask loom`
//! runs the full sweep below and is wired into CI next to the audit job.

#![forbid(unsafe_code)]

pub mod dedup;
pub mod explore;

pub use explore::{explore, Model, Stats, Step};

use dedup::DedupModel;

/// Runs the full model sweep: every checked-in model at the largest
/// configuration that still explores in seconds. Returns a one-line
/// summary per model, or the first counterexample found.
pub fn run_all() -> Result<String, String> {
    let mut lines = Vec::new();

    let model = DedupModel {
        atomic_submit: true,
        sweep_first: true,
    };
    let stats = explore(&model)?;
    lines.push(summary(model_name(&model), stats));

    // Negative controls: the explorer must still find the split
    // check-then-insert (digest in flight twice) and the publish-before-
    // sweep completion (a dedup hit on a finished slot).
    for (variant, atomic_submit, sweep_first, symptom) in [
        ("split submit", false, true, "execution"),
        ("publish before sweep", true, false, "finished slot"),
    ] {
        let buggy = DedupModel {
            atomic_submit,
            sweep_first,
        };
        match explore(&buggy) {
            Err(e) if e.contains(symptom) => lines.push(format!(
                "{} [{variant}]: counterexample found as expected",
                model_name(&buggy)
            )),
            Err(e) => return Err(format!("{variant} model failed for the wrong reason: {e}")),
            Ok(_) => {
                return Err(format!(
                    "{variant} dedup variant explored clean; the explorer is unsound"
                ))
            }
        }
    }

    Ok(lines.join("\n"))
}

fn model_name<M: Model>(m: &M) -> &'static str {
    m.name()
}

fn summary(name: &str, stats: Stats) -> String {
    format!(
        "{name}: OK — {} states, {} transitions, {} terminal(s)",
        stats.states, stats.transitions, stats.terminals
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_clean() {
        let summary = run_all().expect("sweep clean");
        assert!(summary.contains("dedup"), "{summary}");
        assert!(
            summary.contains("counterexample found as expected"),
            "{summary}"
        );
    }
}
