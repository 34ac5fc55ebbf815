//! Integration: the SIGTERM drain window — while in-flight work finishes,
//! the socket keeps answering: late connections get an immediate
//! `503 + Retry-After` instead of a hung connect, `serve.draining`
//! flags the window in the metrics, and the gauge drops back to zero
//! once the drain completes.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn gauge(name: &str) -> f64 {
    stacksim_obs::registry()
        .snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(f64::NAN)
}

#[test]
fn connections_during_the_drain_window_get_an_immediate_503() {
    // a stalled in-flight experiment keeps the drain window open long
    // enough to probe it
    let plan = FaultPlan {
        seed: 5,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:gauss",
            Fault::Stall { ms: 2000 },
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
    assert_eq!(gauge("serve.draining"), 0.0, "not draining while serving");

    // flip the flag and give the accept loop a beat to hand over to the
    // drain rejector
    shutdown.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(gauge("serve.draining"), 1.0, "the drain window is flagged");

    // a late client is answered at once, not left hanging on connect
    let (code, text) = request(&addr, "GET /healthz HTTP/1.1", "");
    assert_eq!(code, 503, "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");
    assert!(text.contains("draining"), "{text}");

    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
    assert_eq!(gauge("serve.draining"), 0.0, "the gauge resets after drain");
}
