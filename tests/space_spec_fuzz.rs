//! Seeded mutation fuzzing of the design-space decoder that both
//! `stacksim explore --spec` and `POST /v1/explore` go through:
//! `SpaceSpec::parse`.
//!
//! Valid specs — `vf` ramps and arrays among them — are mutated with byte
//! flips, inserts, deletes and truncations under a fixed seed, so any
//! failure reproduces exactly. Every input must be parsed or refused with
//! `Err`, without a panic or an abort; every accepted spec must keep its
//! `vf` axis within [`MAX_VF_POINTS`] and survive `to_json().encode()` →
//! `parse` unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stacksim::explore::{SpaceSpec, MAX_VF_POINTS};
use stacksim_rng::StdRng;

mod fuzz;
use fuzz::mutate;

const CASES: usize = 20_000;

/// Valid specs covering every axis, both `vf` forms and the cap's edge.
const CORPUS: &[&str] = &[
    r#"{}"#,
    r#"{"vf":{"min":0.9,"max":1.1,"steps":3}}"#,
    r#"{"vf":{"min":0.5,"max":1.5,"steps":64}}"#,
    r#"{"vf":[0.85,0.9,1,1.05]}"#,
    r#"{"options":["2D 4MB","3D 32MB"],"benchmarks":["conj","gauss"],"boundaries":["desktop"],"vf":{"min":0.8,"max":1.2,"steps":5}}"#,
    r#"{"benchmarks":["svm"],"boundaries":["performance","desktop"],"vf":[1e0,2.5e-1]}"#,
    r#"{ "options" : [ "3D 64MB" ] , "vf" : { "steps" : 2 , "max" : 9 , "min" : 1 } }"#,
];

/// Parses one spec; `Ok(None)` when it is refused, `Err` with the broken
/// invariant otherwise.
fn check(text: &str) -> Result<Option<SpaceSpec>, String> {
    let parsed = catch_unwind(AssertUnwindSafe(|| SpaceSpec::parse(text)))
        .map_err(|_| "parsing panicked".to_string())?;
    let Ok(spec) = parsed else {
        return Ok(None);
    };
    if spec.vf.len() > MAX_VF_POINTS {
        return Err(format!("accepted a vf axis of {} values", spec.vf.len()));
    }
    let encoded = spec.to_json().encode();
    let again =
        SpaceSpec::parse(&encoded).map_err(|e| format!("re-encoding {encoded} is refused: {e}"))?;
    if again != spec {
        return Err(format!("{encoded} parses back as {again:?}"));
    }
    Ok(Some(spec))
}

#[test]
fn mutated_specs_parse_or_refuse_without_panicking() {
    for text in CORPUS {
        assert!(
            matches!(check(text), Ok(Some(_))),
            "corpus spec is valid: {text}"
        );
    }
    let mut rng = StdRng::seed_from_u64(0x5bac_e5ed);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let seed = CORPUS[rng.gen_range(0..CORPUS.len())].as_bytes();
        let bytes = mutate(&mut rng, seed);
        let text = String::from_utf8_lossy(&bytes);
        match check(&text) {
            Ok(Some(_)) => accepted += 1,
            Ok(None) => refused += 1,
            Err(broken) => panic!("case {case}, spec {text:?}: {broken}"),
        }
    }
    // the corpus reaches both sides of the decoder
    assert!(accepted > CASES / 20, "{accepted} accepted");
    assert!(refused > CASES / 20, "{refused} refused");
}
