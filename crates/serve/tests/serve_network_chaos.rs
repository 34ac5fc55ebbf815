//! Integration: network chaos — the daemon's fault plan is in scope on
//! the accept loop and the connection workers for the daemon's whole
//! lifetime, so `serve.*` rules fire without any request opting in, and
//! their `times` windows count over the daemon's lifetime.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stacksim_faults::{Fault, FaultPlan, FaultRule};
use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

/// Sends one `GET /healthz`; returns whatever arrived before the server
/// hung up (empty for a dropped connection).
fn healthz(addr: &SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    let mut text = String::new();
    let _ = stream.read_to_string(&mut text);
    text
}

#[test]
fn network_rules_fire_on_accept_and_write_without_opt_in() {
    let plan = FaultPlan {
        seed: 1,
        rules: vec![
            FaultRule::always("serve.accept", "conn", Fault::IoTransient).times(1),
            FaultRule::always("serve.write", "200", Fault::Truncate).times(1),
        ],
    };
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.fault_plan = Some(plan);
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let faults = server.sim().faults().cloned().expect("the plan is armed");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    // 1. dropped at accept: no response at all
    assert_eq!(healthz(&addr), "", "the first connection never happened");
    // 2. served, but the body is cut in half on the wire
    let truncated = healthz(&addr);
    assert!(truncated.starts_with("HTTP/1.1 200"), "{truncated:?}");
    assert!(!truncated.contains("\"status\":\"ok\"}"), "{truncated:?}");
    // 3. both windows are spent: the daemon is healthy again
    let healthy = healthz(&addr);
    assert!(healthy.contains("\"status\":\"ok\"}"), "{healthy:?}");
    assert_eq!(faults.injected(), 2);

    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
