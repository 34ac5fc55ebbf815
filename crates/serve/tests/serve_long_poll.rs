//! Integration: long-polls never queue other clients behind them — with
//! two `?wait=1` long-polls blocked on a stalled experiment, `GET
//! /healthz` still answers at once, because every connection runs on its
//! own thread.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[test]
fn healthz_answers_while_long_polls_wait() {
    // the stall keeps the experiment, and so both long-polls, pending
    let plan = FaultPlan {
        seed: 7,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:gauss",
            Fault::Stall { ms: 3000 },
        )],
    };
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.fault_plan = Some(plan);
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    let (code, text) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig5:gauss\",\"faults\":true}",
    );
    assert_eq!(code, 200, "{text}");
    let body = text.split_once("\r\n\r\n").expect("response body").1;
    let id = Json::parse(body)
        .expect("JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");

    let polls: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                request(
                    &addr,
                    &format!("GET /v1/experiments/{id}?wait=1&timeout_ms=5000 HTTP/1.1"),
                    "",
                )
            })
        })
        .collect();
    // let both long-polls reach the server and block
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let (code, text) = request(&addr, "GET /healthz HTTP/1.1", "");
    let waited = started.elapsed();
    assert_eq!(code, 200, "{text}");
    assert!(
        waited < Duration::from_secs(1),
        "healthz waited {waited:?} behind the long-polls"
    );

    for poll in polls {
        let (code, text) = poll.join().expect("long-poll thread");
        assert_eq!(code, 200, "the stalled experiment finishes: {text}");
        assert!(text.contains("\"status\":\"done\""), "{text}");
    }

    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
