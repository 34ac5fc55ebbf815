//! Integration: an idle daemon answers a new connection at once. The
//! accept loop blocks in `accept` instead of polling it, so a client that
//! arrives while the daemon idles waits for no sleep to run out.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

#[test]
fn an_idle_daemon_answers_healthz_within_a_few_ms() {
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    // each request comes after the daemon has idled for longer than any
    // poll interval, so a polling loop would be asleep when it connects
    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(15));
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(addr).expect("connect to daemon");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                .expect("send request");
            let mut text = String::new();
            stream.read_to_string(&mut text).expect("read response");
            assert!(text.starts_with("HTTP/1.1 200"), "{text}");
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(3),
        "median /healthz round trip {median:?} (all: {round_trips:?})"
    );

    // the watcher wakes the blocked accept, so shutdown still drains
    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
