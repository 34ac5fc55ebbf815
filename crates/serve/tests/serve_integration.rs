//! Integration: the daemon end-to-end over real sockets — liveness,
//! submit/status/artifact, the bit-identity contract between the direct,
//! embedded and HTTP paths, warm-cache serving with visible counters,
//! refusal of an oversized explore spec, and a clean drain when the
//! shutdown flag flips.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{run_one, ExperimentRequest, MemoCache};
use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-serve-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends one close-after-response request; returns (status, body).
fn request(addr: &SocketAddr, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let message = format!(
        "{head}\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default()
        .to_string();
    (status, body)
}

#[test]
fn daemon_serves_bit_identical_artifacts_and_drains_cleanly() {
    let dir = scratch_dir();
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.cache = MemoCache::at(&dir);
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let sim = server.sim().clone();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    // liveness
    let (code, body) = request(&addr, "GET /healthz HTTP/1.1", "");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // the reference result: the plain in-process path, no service at all
    let direct = run_one("fig3", WorkloadParams::test()).expect("direct fig3");

    // submit over HTTP, wait, and fetch the artifact
    let (code, body) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig3\"}",
    );
    assert_eq!(code, 200, "{body}");
    let doc = Json::parse(&body).expect("submission response is JSON");
    let id = doc.get("id").and_then(Json::as_u64).expect("id");
    assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig3"));
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();

    let (code, body) = request(
        &addr,
        &format!("GET /v1/experiments/{id}?wait=1 HTTP/1.1"),
        "",
    );
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("status response is JSON");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    let report = doc
        .get("report")
        .expect("finished status embeds the report");
    assert_eq!(report.get("cached").and_then(Json::as_bool), Some(false));

    let (code, via_http) = request(
        &addr,
        &format!("GET /v1/experiments/{id}/artifact HTTP/1.1"),
        "",
    );
    assert_eq!(code, 200);
    assert_eq!(
        via_http,
        direct.encode(),
        "HTTP artifact must be bit-identical to the direct path"
    );

    // the embedded path on the same session: same bytes, warm cache
    let embedded = sim
        .submit(&ExperimentRequest::new("fig3"))
        .expect("embedded submit")
        .wait();
    assert!(embedded.is_ok(), "{:?}", embedded.report.error);
    assert_eq!(
        embedded.artifact.as_ref().expect("artifact").encode(),
        via_http,
        "embedded artifact must be bit-identical to the HTTP path"
    );
    assert!(
        embedded.report.cached,
        "second run is served from the cache"
    );

    // a second HTTP submission of the same experiment: new id, cache hit
    let (code, body) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig3\"}",
    );
    assert_eq!(code, 200);
    let id2 = Json::parse(&body)
        .expect("JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    assert_ne!(id2, id, "the first request finished, so no dedup");
    let (_, body) = request(
        &addr,
        &format!("GET /v1/experiments/{id2}?wait=1 HTTP/1.1"),
        "",
    );
    assert!(body.contains("\"cached\":true"), "{body}");

    // the cache hits and request counts are visible in /metrics
    let (code, body) = request(&addr, "GET /metrics HTTP/1.1", "");
    assert_eq!(code, 200);
    let doc = Json::parse(&body).expect("metrics are JSON");
    let counters = doc.get("counters").expect("counters object");
    let requests = counters
        .get("serve.requests")
        .and_then(Json::as_u64)
        .expect("serve.requests counter");
    assert!(requests >= 3, "two HTTP + one embedded, got {requests}");
    let hits = counters
        .get("harness.cache_hits")
        .and_then(Json::as_u64)
        .expect("harness.cache_hits counter");
    assert!(hits >= 2, "embedded + second HTTP were hits, got {hits}");
    assert!(body.contains("\"serve.inflight\""), "{body}");

    // the artifact is the memo entry's bytes: with the entry gone the
    // endpoint answers a typed 410, never other bytes
    let entry = MemoCache::at(&dir)
        .path_for("fig3", &digest)
        .expect("digest is hex")
        .expect("cache is enabled");
    std::fs::remove_file(&entry).expect("remove the entry");
    let (code, body) = request(
        &addr,
        &format!("GET /v1/experiments/{id}/artifact HTTP/1.1"),
        "",
    );
    assert_eq!(code, 410, "{body}");
    assert!(body.contains("\"kind\":\"cache-entry-changed\""), "{body}");

    // error surfaces
    let (code, body) = request(&addr, "GET /v1/experiments/9999 HTTP/1.1", "");
    assert_eq!(code, 404);
    assert!(body.contains("\"kind\":\"unknown-id\""), "{body}");
    let (code, _) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig99\"}",
    );
    assert_eq!(code, 404);
    let (code, _) = request(&addr, "GET /nowhere HTTP/1.1", "");
    assert_eq!(code, 404);
    let (code, _) = request(&addr, "DELETE /healthz HTTP/1.1", "");
    assert_eq!(code, 405);

    // an explore `vf` ramp far past the axis cap is refused before it is
    // built (at `steps: 1e17` the allocation once aborted the daemon),
    // and the daemon keeps serving
    for steps in ["1e17", "20000"] {
        let (code, body) = request(
            &addr,
            "POST /v1/explore HTTP/1.1",
            &format!(r#"{{"spec":{{"vf":{{"min":0.8,"max":1.2,"steps":{steps}}}}}}}"#),
        );
        assert_eq!(code, 400, "{body}");
        assert!(body.contains("'vf' ramp"), "{body}");
    }
    let (code, _) = request(&addr, "GET /healthz HTTP/1.1", "");
    assert_eq!(code, 200);

    // clean drain: flip the flag, the accept loop exits, workers join,
    // and the session shuts down without error
    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
