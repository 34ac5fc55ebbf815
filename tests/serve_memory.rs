//! Integration: a long-running daemon's memory stays flat. The real
//! binary serves a few thousand test-scale cache hits from four clients
//! that each send theirs one after another, each hit a new request id.
//! A finished request keeps only its report and the memo entry's length
//! and digest, and at most `RETAINED_FINISHED` finished records are
//! kept, so the daemon's peak RSS (VmHWM) stays under a fixed bound
//! however many requests it has answered.

#![cfg(target_os = "linux")]

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use stacksim::core::harness::json::Json;

/// Hits the daemon serves, from [`CLIENTS`] clients that each send
/// theirs one after another, cycling over [`HOT`]: a 271 kB `fig6`
/// artifact, then three small `fig3` ones.
const HITS: usize = 2000;
const CLIENTS: usize = 4;
const HOT: [&str; 4] = ["fig6", "fig3", "fig3", "fig3"];
/// The bound on the daemon's VmHWM, in kB, checked every
/// [`CHECK_EVERY`] hits of each client. A debug build holds about 9 MB
/// throughout; a daemon that pinned each hit's decoded artifact (about
/// 136 kB per `fig6`) passed it at about the 800th hit.
const VMHWM_BOUND_KB: u64 = 32 * 1024;
const CHECK_EVERY: usize = 50;

/// Kills the daemon on drop so a failing assertion can't leak it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(cache_dir: &PathBuf) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--test-scale",
            "--jobs",
            "1",
        ])
        .arg("--no-journal")
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stacksim serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = banner
        .rsplit("http://")
        .next()
        .expect("listen banner has an address")
        .trim()
        .to_string();
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Daemon { child, addr }
}

/// Sends one close-after-response request; returns (status, body).
fn request(addr: &str, head: &str, body: &str) -> (u16, String) {
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

/// One submit → artifact cycle, waiting in between unless the submit
/// answered `done`; returns the id and the artifact.
fn cycle(addr: &str, experiment: &str) -> (u64, String) {
    let body = format!("{{\"experiment\":\"{experiment}\"}}");
    let (code, resp) = request(addr, "POST /v1/experiments HTTP/1.1", &body);
    assert_eq!(code, 200, "{resp}");
    let id = Json::parse(&resp)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .expect("submission answer has an id");
    if !resp.contains("\"status\":\"done\"") {
        let (code, resp) = request(
            addr,
            &format!("GET /v1/experiments/{id}?wait=1 HTTP/1.1"),
            "",
        );
        assert!(code == 200 && resp.contains("\"ok\":true"), "{code} {resp}");
    }
    let (code, artifact) = request(
        addr,
        &format!("GET /v1/experiments/{id}/artifact HTTP/1.1"),
        "",
    );
    assert_eq!(code, 200, "{artifact}");
    (id, artifact)
}

/// The daemon's peak resident set, in kB.
fn vmhwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

#[test]
fn thousands_of_hits_keep_the_daemon_vmhwm_bounded() {
    let dir = std::env::temp_dir().join(format!("stacksim-serve-mem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = spawn_daemon(&dir.join("cache"));
    let pid = daemon.child.id();

    let primed: Vec<(u64, String)> = HOT.iter().map(|e| cycle(&daemon.addr, e)).collect();
    let first = primed[0].0;
    let addr = daemon.addr.as_str();
    let primed = primed.as_slice();
    let last = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut last = 0;
                    for i in 1..=HITS / CLIENTS {
                        let k = (i + c) % HOT.len();
                        let (id, artifact) = cycle(addr, HOT[k]);
                        assert_eq!(artifact.len(), primed[k].1.len(), "hit {i} of client {c}");
                        last = last.max(id);
                        if i % CHECK_EVERY == 0 {
                            assert_eq!(artifact, primed[k].1, "hit {i} of client {c}");
                            let peak = vmhwm_kb(pid);
                            assert!(
                                peak < VMHWM_BOUND_KB,
                                "daemon VmHWM {peak} kB after {} hits exceeds {VMHWM_BOUND_KB} kB",
                                i * CLIENTS
                            );
                        }
                    }
                    last
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .max()
            .unwrap_or(first)
    });

    // the oldest records were evicted: a typed 410, distinct from the
    // 404 of an id never handed out
    for path in [format!("{first}"), format!("{first}/artifact")] {
        let (code, body) = request(
            &daemon.addr,
            &format!("GET /v1/experiments/{path} HTTP/1.1"),
            "",
        );
        assert_eq!(code, 410, "{body}");
        assert!(body.contains("\"kind\":\"evicted\""), "{body}");
    }
    let (code, body) = request(
        &daemon.addr,
        &format!("GET /v1/experiments/{} HTTP/1.1", last + 1000),
        "",
    );
    assert_eq!(code, 404, "{body}");
    assert!(body.contains("\"kind\":\"unknown-id\""), "{body}");
    let (code, _) = request(
        &daemon.addr,
        &format!("GET /v1/experiments/{last}/artifact HTTP/1.1"),
        "",
    );
    assert_eq!(code, 200, "the newest record is kept");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
