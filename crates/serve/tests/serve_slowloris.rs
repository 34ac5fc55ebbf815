//! Integration: slowloris defense — clients that drip-feed headers,
//! stall mid-body, or never read their response are bounded by the
//! per-socket timeout and the whole-request read deadline, and shed
//! without poisoning the connection workers: the daemon answers healthy
//! traffic promptly throughout.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Reads until EOF with a hard cap, tolerating timeouts: what a shed
/// client sees before the server hangs up.
fn drain(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(_) => break,
        }
    }
    text
}

#[test]
fn slow_and_stuck_clients_are_shed_without_poisoning_workers() {
    const IO_TIMEOUT: Duration = Duration::from_millis(400);
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.io_timeout = IO_TIMEOUT;
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    let (code, _) = request(&addr, "GET /healthz HTTP/1.1", "");
    assert_eq!(code, 200, "baseline liveness");

    // 1. header drip-feed: one byte at a time, forever under the socket
    //    timeout per byte — the whole-request deadline sheds it anyway
    let started = Instant::now();
    let mut dripper = TcpStream::connect(addr).expect("connect");
    for chunk in ["GET /heal", "thz HT", "TP/1.1\r\n", "Host: sl", "ow\r\n"] {
        if dripper.write_all(chunk.as_bytes()).is_err() {
            break; // already shed: the server hung up mid-drip
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    let answer = drain(&mut dripper);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the dripper was bounded, not serviced at its own pace"
    );
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "a shed dripper sees a 400 or a hangup, got {answer:?}"
    );

    // 2. stalled body: Content-Length promises bytes that never arrive
    let mut staller = TcpStream::connect(addr).expect("connect");
    staller
        .write_all(b"POST /v1/experiments HTTP/1.1\r\nHost: t\r\nContent-Length: 512\r\n\r\n{\"exp")
        .expect("send partial body");
    let answer = drain(&mut staller);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "a stalled body is shed, got {answer:?}"
    );

    // 3. mute connection: opens and never writes a byte
    let mut mute = TcpStream::connect(addr).expect("connect");
    let answer = drain(&mut mute);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "a mute connection is shed, got {answer:?}"
    );

    // with every worker having just chewed through an abusive socket,
    // honest traffic is still served promptly — no worker was poisoned
    let started = Instant::now();
    let (code, text) = request(&addr, "GET /healthz HTTP/1.1", "");
    assert_eq!(code, 200, "{text}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "healthz answered promptly after the slowloris burst"
    );

    // and real work still runs end to end
    let (code, text) = request(
        &addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig5:gauss\"}",
    );
    assert_eq!(code, 200, "{text}");

    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
