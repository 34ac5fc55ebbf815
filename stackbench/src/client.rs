//! A minimal HTTP/1.1 client and the `stacksim serve` daemon it talks to.
//!
//! The daemon answers one request per connection (`Connection: close`),
//! so every call opens a fresh loopback connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Generous per-call socket timeout: a `?wait=1` poll may block behind a
/// paper-scale batch.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request and returns `(status, body)`.
pub fn call(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    parse_response(&raw).ok_or_else(|| format!("malformed response to {method} {path}"))
}

/// Splits a raw response into its status code and body.
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let body = String::from_utf8(raw[head_end + 4..].to_vec()).ok()?;
    Some((status, body))
}

/// A spawned `stacksim serve` process on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's closing banner never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon and waits for its listen banner.
    pub fn spawn(
        stacksim: &Path,
        cache_dir: &Path,
        jobs: usize,
        pool: usize,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(stacksim)
            .args(["serve", "--addr", "127.0.0.1:0", "--test-scale"])
            .args(["--jobs", &jobs.to_string(), "--pool", &pool.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", stacksim.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let banner = stdout.read_line(&mut line);
        let addr = match banner {
            Ok(_) => line
                .trim()
                .strip_prefix("stacksim serve listening on http://")
                .map(str::to_string),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report its address (got {line:?})"));
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        match call(&daemon.addr, "GET", "/healthz", "") {
            Ok((200, _)) => Ok(daemon),
            other => Err(format!("daemon health check failed: {other:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: SIGTERM (the daemon drains), then SIGKILL if it has
    /// not exited within ten seconds. Always reaps the process.
    pub fn stop(mut self) {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // reached only on an error path that skipped `stop`
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"error\":\"x\"}";
        assert_eq!(
            parse_response(raw),
            Some((503, "{\"error\":\"x\"}".to_string()))
        );
        assert_eq!(parse_response(b"garbage"), None);
    }
}
