//! Integration: the connection cap — each accepted connection gets its
//! own thread, at most `max_conns` at a time. With the cap reached,
//! further connections are answered `429 + Retry-After` at accept and
//! counted in `serve.conns_rejected`, no thread is started for them, and
//! a held connection frees its place when it closes or times out. A
//! rejected client cannot hold the accept loop by trickling bytes.
//!
//! The tests run one at a time under [`serial`]: the metrics registry
//! and the thread count are process-global, so concurrent tests would
//! race them (this file asserts exact counts).

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

/// Sends one close-after-response request; returns (status, full text).
fn request(addr: &SocketAddr, head: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(format!("{head}\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    (status, text)
}

/// Reads until EOF with a hard cap, tolerating timeouts.
fn drain(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    text
}

fn counter(name: &str) -> u64 {
    stacksim_obs::registry()
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Holds the file's test lock for the caller's lifetime.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Binds a daemon on a free port and serves it on a thread.
fn start(
    max_conns: usize,
    io_timeout: Duration,
) -> (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.max_conns = max_conns;
    options.io_timeout = io_timeout;
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));
    (addr, shutdown, daemon)
}

/// The process's thread count, where `/proc/self/status` exists.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn connections_past_the_cap_get_429_and_no_thread() {
    const MAX_CONNS: usize = 3;
    const IO_TIMEOUT: Duration = Duration::from_millis(1500);
    let _serial = serial();
    let (addr, shutdown, daemon) = start(MAX_CONNS, IO_TIMEOUT);

    let (code, text) = request(&addr, "GET /healthz HTTP/1.1");
    assert_eq!(code, 200, "{text}");
    // the healthz connection's thread may still be on its way out
    std::thread::sleep(Duration::from_millis(100));
    let baseline = threads();
    let rejected_before = counter("serve.conns_rejected");

    // three idle connections take every place: the accept loop serves
    // them in order, so they are live before any later connection
    let mut held: Vec<TcpStream> = (0..MAX_CONNS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    const REJECTED: u64 = 2;
    for _ in 0..REJECTED {
        let started = Instant::now();
        let (code, text) = request(&addr, "GET /healthz HTTP/1.1");
        assert_eq!(code, 429, "{text}");
        assert!(text.contains("Retry-After: 1"), "{text}");
        assert!(text.contains("too many connections"), "{text}");
        assert!(
            started.elapsed() < IO_TIMEOUT,
            "the rejection is immediate, not a wait for a place"
        );
    }
    assert_eq!(
        counter("serve.conns_rejected") - rejected_before,
        REJECTED,
        "exactly the turned-away connections are counted"
    );
    if let (Some(baseline), Some(now)) = (baseline, threads()) {
        assert!(
            now <= baseline + MAX_CONNS + 1,
            "{now} threads with {MAX_CONNS} connections held, {baseline} before"
        );
    }

    // closing two held sockets frees their places at once ...
    held.truncate(1);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (code, text) = request(&addr, "GET /healthz HTTP/1.1");
        if code == 200 {
            break;
        }
        assert_eq!(code, 429, "{text}");
        assert!(
            Instant::now() < deadline,
            "closed sockets never freed a place"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // ... and the last one is shed by the I/O timeout. Its place is free
    // by the time the socket closes, so with two fresh idle connections
    // held, healthz gets the third place at once
    let mut idle = held.pop().expect("one held socket left");
    let answer = drain(&mut idle);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 400"),
        "an idle connection times out, got {answer:?}"
    );
    let _fresh: Vec<TcpStream> = (0..MAX_CONNS - 1)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let (code, text) = request(&addr, "GET /healthz HTTP/1.1");
    assert_eq!(code, 200, "a timed-out socket kept its place: {text}");

    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}

/// A rejected client that sends a byte every 300 ms keeps its socket
/// open for as long as it likes; the accept loop stops draining it after
/// a bounded time, so the next client's `429` is prompt.
#[test]
fn a_trickling_rejected_client_does_not_hold_the_accept_loop() {
    let _serial = serial();
    let (addr, shutdown, daemon) = start(1, Duration::from_secs(30));
    // the only place goes to an idle connection, accepted first
    let held = TcpStream::connect(addr).expect("connect");
    let mut trickler = TcpStream::connect(addr).expect("connect");
    let stop = Arc::new(AtomicBool::new(false));
    let trickling = stop.clone();
    let drip = std::thread::spawn(move || {
        for _ in 0..20 {
            if trickling.load(Ordering::SeqCst) || trickler.write_all(b"G").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    // by now the accept loop has turned the trickler away and is draining
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let (code, text) = request(&addr, "GET /healthz HTTP/1.1");
    let waited = started.elapsed();
    stop.store(true, Ordering::SeqCst);
    drip.join().expect("trickler thread");
    assert_eq!(code, 429, "{text}");
    assert!(
        waited < Duration::from_secs(1),
        "the 429 took {waited:?} behind a trickling client"
    );

    drop(held);
    shutdown.store(true, Ordering::SeqCst);
    let outcome = daemon.join().expect("daemon thread must not panic");
    assert!(outcome.is_ok(), "{outcome:?}");
}
