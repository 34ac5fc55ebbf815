//! Integration: admission control under load — with `--max-pending N`,
//! N in-flight requests hold their slots and every further distinct
//! submission is shed with `503 + Retry-After`, counted in `serve.shed`;
//! completions release slots and shed callers succeed on retry.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters (this file asserts exact
//! counts, so it must be the only serve traffic in the process).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stacksim_core::harness::json::Json;
use stacksim_faults::{Fault, FaultPlan, FaultRule};
use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

/// Sends one close-after-response request; returns (status, full text).
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
    (status, text)
}

fn counter(addr: &SocketAddr, name: &str) -> u64 {
    let (code, text) = request(addr, "GET /metrics HTTP/1.1", "");
    assert_eq!(code, 200);
    let body = text.split_once("\r\n\r\n").expect("metrics body").1;
    Json::parse(body)
        .expect("metrics are JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn submissions_past_the_pending_bound_shed_deterministically() {
    const MAX_PENDING: usize = 2;
    const SHED: u64 = 3;
    // a stall at dispatch pins the admitted requests' slots long enough
    // that the whole submission burst happens at the bound
    let plan = FaultPlan {
        seed: 3,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:gauss",
            Fault::Stall { ms: 1500 },
        )],
    };
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.fault_plan = Some(plan);
    options.max_pending = MAX_PENDING;
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    // fill the admission window: two distinct stalled submissions
    let mut admitted = Vec::new();
    for seed in 0..MAX_PENDING as u64 {
        let (code, text) = request(
            &addr,
            "POST /v1/experiments HTTP/1.1",
            &format!("{{\"experiment\":\"fig5:gauss\",\"faults\":true,\"seed\":{seed}}}"),
        );
        assert_eq!(code, 200, "{text}");
        let body = text.split_once("\r\n\r\n").expect("body").1;
        let id = Json::parse(body)
            .expect("JSON")
            .get("id")
            .and_then(Json::as_u64)
            .expect("id");
        admitted.push(id);
    }

    // every further distinct submission is shed: 503, Retry-After, and
    // nothing was enqueued
    for seed in 0..SHED {
        let (code, text) = request(
            &addr,
            "POST /v1/experiments HTTP/1.1",
            &format!("{{\"experiment\":\"fig5:pcg\",\"seed\":{seed}}}"),
        );
        assert_eq!(code, 503, "{text}");
        assert!(text.contains("Retry-After: 1"), "{text}");
        assert!(text.contains("overloaded"), "{text}");
    }
    assert_eq!(
        counter(&addr, "serve.shed"),
        SHED,
        "exactly the over-bound submissions were shed"
    );

    // a duplicate of in-flight work is admitted even at the bound: it
    // coalesces onto the existing slot instead of consuming one
    let (code, text) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig5:gauss\",\"faults\":true,\"seed\":0}",
    );
    assert_eq!(code, 200, "{text}");
    let body = text.split_once("\r\n\r\n").expect("body").1;
    let dup = Json::parse(body)
        .expect("JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    assert_eq!(dup, admitted[0], "dedup, not a new slot");
    assert_eq!(counter(&addr, "serve.shed"), SHED, "the dedup was not shed");

    // every admitted request completes despite the overload burst
    for id in &admitted {
        let mut done = false;
        for _ in 0..20 {
            let (code, text) = request(
                &addr,
                &format!("GET /v1/experiments/{id}?wait=1&timeout_ms=5000 HTTP/1.1"),
                "",
            );
            if code == 200 && text.contains("\"status\":\"done\"") {
                assert!(text.contains("\"ok\":true"), "{text}");
                done = true;
                break;
            }
            assert_eq!(code, 202, "long-poll timeout answers 202: {text}");
        }
        assert!(done, "request {id} never completed");
    }

    // completions released the slots: a shed request now admits and runs
    let (code, text) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig5:pcg\",\"seed\":0}",
    );
    assert_eq!(code, 200, "{text}");
    assert_eq!(counter(&addr, "serve.shed"), SHED, "no further shedding");

    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
