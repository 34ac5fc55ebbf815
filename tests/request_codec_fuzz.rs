//! Seeded mutation fuzzing of the experiment-request decoder that both
//! `stacksim serve` submissions and journal recovery go through:
//! `Json::parse` then `ExperimentRequest::from_json`.
//!
//! Valid bodies are mutated with byte flips, inserts, deletes and
//! truncations under a fixed seed, so any failure reproduces exactly.
//! Every input must be decoded or refused without a panic, and every
//! accepted request must survive `to_json` → `from_json` byte for byte.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stacksim::core::harness::json::Json;
use stacksim::core::harness::ExperimentRequest;
use stacksim_rng::StdRng;

mod fuzz;
use fuzz::mutate;

const CASES: usize = 20_000;

/// Valid bodies covering every field, as clients and the journal write
/// them.
const CORPUS: &[&str] = &[
    r#"{"experiment":"fig3"}"#,
    r#"{"experiment":"fig5:gauss","seed":7,"scale":"test"}"#,
    // `solver_threads` is no longer a request field; older clients and
    // journals still send it, so it stays here as an unknown field.
    r#"{"experiment":"fig8","scale":"paper","threads":4,"chunk":64,"solver_threads":2}"#,
    r#"{"experiment":"table4","faults":true,"deadline_ms":1500}"#,
    r#"{"experiment":"headline","seed":18446744073709551615,"faults":false}"#,
    r#"{ "experiment" : "fig5:sMVM" , "threads" : 2 , "extra" : [1, {"a": null}] }"#,
    r#"{"experiment":"fig3","seed":1e3,"chunk":0}"#,
];

/// Decodes one body; `Ok(None)` when it is refused, `Err` with the
/// broken invariant otherwise.
fn check(body: &str) -> Result<Option<ExperimentRequest>, String> {
    let decoded = catch_unwind(AssertUnwindSafe(|| {
        Json::parse(body)
            .ok()
            .map(|doc| ExperimentRequest::from_json(&doc))
    }))
    .map_err(|_| "decoding panicked".to_string())?;
    let Some(Ok(request)) = decoded else {
        return Ok(None);
    };
    let encoded = request.to_json().encode();
    let again = Json::parse(&encoded)
        .map_err(|e| format!("re-encoding {encoded} does not parse: {e}"))
        .and_then(|doc| ExperimentRequest::from_json(&doc))
        .map_err(|e| format!("re-encoding {encoded} is refused: {e}"))?;
    let reencoded = again.to_json().encode();
    if reencoded != encoded {
        return Err(format!("{encoded} re-encodes as {reencoded}"));
    }
    Ok(Some(request))
}

#[test]
fn mutated_requests_decode_or_refuse_without_panicking() {
    for body in CORPUS {
        assert!(
            matches!(check(body), Ok(Some(_))),
            "corpus body is valid: {body}"
        );
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let seed = CORPUS[rng.gen_range(0..CORPUS.len())].as_bytes();
        let bytes = mutate(&mut rng, seed);
        let body = String::from_utf8_lossy(&bytes);
        match check(&body) {
            Ok(Some(_)) => accepted += 1,
            Ok(None) => refused += 1,
            Err(broken) => panic!("case {case}, body {body:?}: {broken}"),
        }
    }
    // the corpus reaches both sides of the decoder
    assert!(accepted > CASES / 20, "{accepted} accepted");
    assert!(refused > CASES / 20, "{refused} refused");
}

#[test]
fn refusals_name_the_offending_field() {
    let refusal = |body: &str| {
        ExperimentRequest::from_json(&Json::parse(body).expect("valid JSON")).unwrap_err()
    };
    assert_eq!(
        refusal(r#"{"seed":1}"#),
        "body needs a string 'experiment' field"
    );
    assert_eq!(
        refusal(r#"{"experiment":"fig3","scale":"huge"}"#),
        "'scale' must be \"test\" or \"paper\""
    );
    assert_eq!(
        refusal(r#"{"experiment":"fig3","threads":-1}"#),
        "'threads' must be an unsigned integer"
    );
    assert_eq!(
        refusal(r#"{"experiment":"fig3","faults":1}"#),
        "'faults' must be a boolean"
    );
    assert_eq!(
        refusal(r#"{"experiment":"fig3","deadline_ms":0.5}"#),
        "'deadline_ms' must be a positive integer"
    );
}
