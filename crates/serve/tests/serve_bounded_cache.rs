//! Integration: a daemon on a byte-budgeted cache keeps serving the
//! artifacts of finished requests after the budget evicted their
//! entries, byte-identical to the direct path.
//!
//! One test function on purpose: the metrics registry is process-global,
//! so concurrent tests would race its counters.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{run_one, MemoCache};
use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::WorkloadParams;

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

/// Submits `experiment`, waits for it, and returns its id.
fn finish(addr: &SocketAddr, experiment: &str) -> u64 {
    let (code, body) = request(
        addr,
        "POST /v1/experiments HTTP/1.1",
        &format!("{{\"experiment\":\"{experiment}\"}}"),
    );
    assert_eq!(code, 200, "{body}");
    let id = Json::parse(&body)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .expect("submission answer has an id");
    let (code, body) = request(
        addr,
        &format!("GET /v1/experiments/{id}?wait=1 HTTP/1.1"),
        "",
    );
    assert!(code == 200 && body.contains("\"ok\":true"), "{code} {body}");
    id
}

/// The budget holds `fig5:gauss`'s entry but not `fig6`'s: storing
/// `fig6` evicts `fig5:gauss` (the least recently used) and then `fig6`
/// itself. Both requests still answer their artifact GET with the
/// direct path's bytes.
#[test]
fn artifacts_outlive_their_entries_on_a_bounded_cache() {
    let dir = std::env::temp_dir().join(format!("stacksim-serve-bounded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gauss = run_one("fig5:gauss", WorkloadParams::test())
        .expect("direct fig5:gauss")
        .encode();
    let fig6 = run_one("fig6", WorkloadParams::test())
        .expect("direct fig6")
        .encode();
    assert!(fig6.len() > gauss.len() + 16);

    let mut options = ServeOptions::default();
    options.addr = "127.0.0.1:0".to_string();
    options.jobs = 1;
    options.params = WorkloadParams::test();
    options.cache = MemoCache::builder()
        .dir(&dir)
        .max_bytes(gauss.len() as u64 + 16)
        .build();
    let server = Server::bind(options).expect("bind on a free port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let daemon = std::thread::spawn(move || server.run(&flag));

    let gauss_id = finish(&addr, "fig5:gauss");
    let fig6_id = finish(&addr, "fig6");
    let entries = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(entries, 0, "the budget evicted both entries");

    for (id, expected) in [(gauss_id, &gauss), (fig6_id, &fig6)] {
        let (code, body) = request(
            &addr,
            &format!("GET /v1/experiments/{id}/artifact HTTP/1.1"),
            "",
        );
        assert_eq!(code, 200, "{body}");
        assert_eq!(&body, expected, "request {id}");
    }

    shutdown.store(true, Ordering::SeqCst);
    daemon.join().expect("daemon thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}
