//! A minimal, dependency-free HTTP/1.1 subset: enough to parse the
//! daemon's request shapes (method + path + optional JSON body) and to
//! write plain responses. Not a general web server — requests are
//! size-capped, connections are close-after-response, and anything
//! outside the subset is rejected with a 4xx.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::resilience::{SITE_SERVE_READ, SITE_SERVE_WRITE};
use stacksim_faults::Fault;

/// Longest accepted request head (request line + headers), bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Longest accepted request body, bytes.
const MAX_BODY: usize = 256 * 1024;
/// Default per-connection socket timeout (see
/// [`ServeOptions::io_timeout`](crate::ServeOptions)).
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string included (e.g. `/v1/x?wait=1`).
    pub target: String,
    /// The body, when a `Content-Length` was present.
    pub body: String,
}

impl Request {
    /// The target's path without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Whether the query string contains `key=1` or a bare `key`.
    pub fn query_flag(&self, key: &str) -> bool {
        let Some(query) = self.target.split_once('?').map(|(_, q)| q) else {
            return false;
        };
        query
            .split('&')
            .any(|kv| kv == key || kv == format!("{key}=1") || kv == format!("{key}=true"))
    }

    /// The value of `key=value` in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let query = self.target.split_once('?').map(|(_, q)| q)?;
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Why a request could not be parsed; [`reject`] maps this to a 4xx.
#[derive(Debug)]
pub enum ParseError {
    /// Socket error or the peer hung up mid-request.
    Io(std::io::Error),
    /// The bytes were not the HTTP subset this server speaks.
    Malformed(&'static str),
    /// The head or body exceeded its size cap.
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o: {e}"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge => write!(f, "request too large"),
        }
    }
}

/// Reads one request from the stream, with two layered timeouts: a
/// per-read socket timeout (a silent peer blocks at most one `timeout`)
/// and an overall deadline of the same budget for the *whole* request
/// (a drip-feeding slowloris peer cannot reset the clock byte by byte —
/// the connection is shed once the total read time exceeds `timeout`).
///
/// # Errors
///
/// [`ParseError`] on socket failure or timeout, malformed framing, or a
/// request exceeding the size caps.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, ParseError> {
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    match stacksim_faults::check(SITE_SERVE_READ, "conn") {
        Some(Fault::IoTransient) => {
            return Err(ParseError::Io(std::io::Error::new(
                ErrorKind::ConnectionReset,
                "injected read fault",
            )));
        }
        Some(Fault::Truncate) => {
            return Err(ParseError::Malformed("connection closed mid-head"));
        }
        _ => {}
    }
    parse_request(stream, Some(Instant::now() + timeout))
}

/// Parses one request from any byte source — the transport-free core of
/// [`read_request`], directly unit-testable against in-memory bytes
/// (pass `None` for the deadline).
///
/// Framing rules beyond the obvious: at most one `Content-Length`
/// header is accepted (duplicates are rejected even when they agree —
/// request-smuggling shapes are not worth disambiguating), and a
/// declared length over [`MAX_BODY`] is rejected *before* any body byte
/// is read, so an oversized upload costs the server nothing. A head
/// longer than [`MAX_HEAD`] is rejected too, and the body is read up to
/// its declared length and no further, so no request makes the parser
/// read more than `MAX_HEAD + MAX_BODY` bytes.
///
/// # Errors
///
/// [`ParseError`] on read failure, malformed framing, or a request
/// exceeding the size caps.
fn parse_request<R: Read>(
    stream: &mut R,
    deadline: Option<Instant>,
) -> Result<Request, ParseError> {
    let overdue = || {
        ParseError::Io(std::io::Error::new(
            ErrorKind::TimedOut,
            "request read exceeded its deadline",
        ))
    };
    // read until the blank line separating head from body, scanning each
    // byte about once: a terminator split across reads starts at most 3
    // bytes before the newest read
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut scan_from = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf[scan_from..]).map(|p| scan_from + p) {
            if pos + 4 > MAX_HEAD {
                return Err(ParseError::TooLarge);
            }
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(ParseError::TooLarge);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(overdue());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ParseError::Malformed("connection closed mid-head")),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        scan_from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("request line has no target"))?
        .to_string();

    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                if content_length.is_some() {
                    return Err(ParseError::Malformed("duplicate content-length"));
                }
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| ParseError::Malformed("bad content-length"))?,
                );
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge);
    }

    // body bytes already buffered past the head, then the remainder —
    // never more than the remainder, so a request costs at most
    // `MAX_HEAD + MAX_BODY` bytes of reading
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(overdue());
        }
        let want = (content_length - body.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(ParseError::Malformed("connection closed mid-body")),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        target,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response and flushes. Connections are close-after-response,
/// so this is the terminal act on the stream.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    respond_with(stream, status, content_type, &[], body);
}

/// [`respond`] with extra response headers.
fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");

    let mut truncate_body = false;
    match stacksim_faults::check(SITE_SERVE_WRITE, &status.to_string()) {
        // the peer sees a connection reset before any byte arrives
        Some(Fault::IoTransient) => return,
        Some(Fault::Truncate) => truncate_body = true,
        _ => {}
    }

    // the peer may already be gone; a failed write only affects them
    let _ = stream.write_all(head.as_bytes());
    let payload = if truncate_body {
        &body.as_bytes()[..body.len() / 2]
    } else {
        body.as_bytes()
    };
    let _ = stream.write_all(payload);
    let _ = stream.flush();
}

/// Maps a parse failure to its 4xx response.
pub fn reject(stream: &mut TcpStream, err: &ParseError) {
    match err {
        ParseError::TooLarge => error_response(stream, 413, "request too large"),
        other => error_response(stream, 400, &other.to_string()),
    }
}

/// Writes a `{"error": detail}` JSON response. The load-shedding
/// statuses, `429` and `503`, carry a `Retry-After: 1` hint.
pub fn error_response(stream: &mut TcpStream, status: u16, detail: &str) {
    error_body(
        stream,
        status,
        vec![("error", Json::Str(detail.to_string()))],
    );
}

/// Writes a `{"error": detail, "kind": kind}` JSON response: an error a
/// client tells apart by its stable `kind`, not by parsing `detail`.
pub fn typed_error(stream: &mut TcpStream, status: u16, kind: &str, detail: &str) {
    error_body(
        stream,
        status,
        vec![
            ("error", Json::Str(detail.to_string())),
            ("kind", Json::Str(kind.to_string())),
        ],
    );
}

fn error_body(stream: &mut TcpStream, status: u16, fields: Vec<(&str, Json)>) {
    let retry: &[(&str, &str)] = match status {
        429 | 503 => &[("Retry-After", "1")],
        _ => &[],
    };
    let body = Json::obj(fields);
    respond_with(stream, status, "application/json", retry, &body.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        parse_request(&mut Cursor::new(raw.as_bytes().to_vec()), None)
    }

    #[test]
    fn well_formed_request_round_trips() {
        let r = parse("POST /v1/explore HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\":1}\r\n")
            .expect("parses");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path(), "/v1/explore");
        assert_eq!(r.body, "{\"a\":1}\r\n");
        // no content-length means an empty body
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(r.body, "");
    }

    /// Regression: a second `Content-Length` used to silently overwrite
    /// the first (last-one-wins), the classic request-smuggling shape.
    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        assert!(
            matches!(parse(raw), Err(ParseError::Malformed(m)) if m.contains("duplicate")),
            "duplicate headers are rejected even when they agree"
        );
    }

    /// Regression: conflicting lengths used to take the *last* value, so
    /// a large declared body could sneak under the cap check.
    #[test]
    fn conflicting_content_length_is_rejected() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 999999\r\nContent-Length: 4\r\n\r\nbody";
        assert!(matches!(
            parse(raw),
            Err(ParseError::Malformed("duplicate content-length"))
        ));
    }

    /// An over-cap declared length is rejected before any body byte is
    /// read: the request below carries no body at all, so reaching the
    /// body loop would fail with "closed mid-body", not `TooLarge`.
    #[test]
    fn oversized_content_length_is_rejected_before_the_body() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(ParseError::TooLarge)));
    }

    #[test]
    fn unparseable_content_length_is_rejected() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: over9000\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(ParseError::Malformed("bad content-length"))
        ));
        // negative lengths are not lengths
        let raw = "POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n";
        assert!(matches!(parse(raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        assert!(matches!(
            parse("\r\n\r\n"),
            Err(ParseError::Malformed("empty request line"))
        ));
        assert!(matches!(
            parse("GET\r\n\r\n"),
            Err(ParseError::Malformed("request line has no target"))
        ));
        // EOF before the head terminator
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\n"),
            Err(ParseError::Malformed("connection closed mid-head"))
        ));
    }

    #[test]
    fn query_flags_parse() {
        let r = Request {
            method: "GET".into(),
            target: "/v1/experiments/3?wait=1&x=2".into(),
            body: String::new(),
        };
        assert_eq!(r.path(), "/v1/experiments/3");
        assert!(r.query_flag("wait"));
        assert!(!r.query_flag("nope"));
        let bare = Request {
            method: "GET".into(),
            target: "/x?wait".into(),
            body: String::new(),
        };
        assert!(bare.query_flag("wait"));
    }

    #[test]
    fn query_params_parse() {
        let r = Request {
            method: "GET".into(),
            target: "/v1/experiments/3?wait=1&timeout_ms=250".into(),
            body: String::new(),
        };
        assert_eq!(r.query_param("timeout_ms"), Some("250"));
        assert_eq!(r.query_param("wait"), Some("1"));
        assert_eq!(r.query_param("nope"), None);
        let bare = Request {
            method: "GET".into(),
            target: "/x".into(),
            body: String::new(),
        };
        assert_eq!(bare.query_param("timeout_ms"), None);
    }

    /// An exceeded overall deadline is an I/O-class rejection even when
    /// the source keeps producing bytes — the slowloris defence.
    #[test]
    fn an_expired_deadline_sheds_the_request() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let already_past = Instant::now() - Duration::from_millis(1);
        let err = parse_request(
            &mut Cursor::new(raw.as_bytes().to_vec()),
            Some(already_past),
        )
        .expect_err("deadline in the past must shed");
        assert!(matches!(err, ParseError::Io(_)), "{err}");
    }

    /// Seeded mutation fuzzing of [`parse_request`]: valid request heads
    /// and bodies are mutated with byte flips, inserts, deletes and
    /// truncations under a fixed seed, so any failure reproduces exactly.
    mod fuzz {
        use super::*;
        use stacksim_rng::StdRng;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        const CASES: usize = 2_000;

        /// Bytes likely to change how the parser frames a request.
        const INTERESTING: &[u8] = b"\r\n: ?&=/0123456789-+ \tGETPOSTContent-Length\x00\xff";

        /// Valid requests as clients send them, plus two at the size caps.
        fn corpus() -> Vec<Vec<u8>> {
            let mut corpus: Vec<Vec<u8>> = [
                "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n",
                "GET /metrics HTTP/1.1\r\n\r\n",
                "GET /v1/experiments/3?wait=1&timeout_ms=250 HTTP/1.1\r\nHost: x\r\n\r\n",
                "GET /v1/experiments/12/artifact HTTP/1.1\r\nAccept: */*\r\n\r\n",
                "POST /v1/experiments HTTP/1.1\r\nHost: x\r\nContent-Length: 21\r\n\r\n\
                 {\"experiment\":\"fig3\"}",
                "POST /v1/experiments?x=1 HTTP/1.1\r\ncontent-length: 36\r\n\r\n\
                 {\"experiment\":\"fig5:gauss\",\"seed\":7}",
                "POST /v1/explore HTTP/1.1\r\nContent-Type: application/json\r\n\
                 Content-Length: 29\r\n\r\n{\"mode\":\"random\",\"budget\":20}",
            ]
            .iter()
            .map(|r| r.as_bytes().to_vec())
            .collect();
            // heads of exactly `MAX_HEAD` bytes, the second with a
            // `MAX_BODY` body
            for (line, body) in [("GET /healthz", 0), ("POST /v1/explore", MAX_BODY)] {
                let head = format!("{line} HTTP/1.1\r\nContent-Length: {body}\r\nX-Pad: ");
                let mut bytes = head.into_bytes();
                bytes.resize(MAX_HEAD - 4, b'a');
                bytes.extend_from_slice(b"\r\n\r\n");
                bytes.resize(MAX_HEAD + body, b' ');
                corpus.push(bytes);
            }
            corpus
        }

        fn mutate(rng: &mut StdRng, input: &[u8]) -> Vec<u8> {
            let mut bytes = input.to_vec();
            for _ in 0..rng.gen_range(1usize..5) {
                let at = rng.gen_range(0..bytes.len() + 1);
                match rng.gen_range(0u32..4) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0u32..8),
                    1 => {
                        let byte = if rng.gen_bool(0.5) {
                            INTERESTING[rng.gen_range(0..INTERESTING.len())]
                        } else {
                            rng.gen_range(0u8..=255)
                        };
                        bytes.insert(at, byte);
                    }
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            bytes
        }

        /// The request bytes, then either EOF or an endless run of
        /// filler (a peer that keeps sending), handed out at most `step`
        /// bytes per read. Counts every byte it hands out.
        struct Source<'a> {
            bytes: &'a [u8],
            endless: bool,
            step: usize,
            read: usize,
        }

        impl Read for Source<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let want = buf.len().min(self.step);
                let left = &self.bytes[self.read.min(self.bytes.len())..];
                let n = if !left.is_empty() {
                    let n = want.min(left.len());
                    buf[..n].copy_from_slice(&left[..n]);
                    n
                } else if self.endless {
                    buf[..want].fill(b'x');
                    want
                } else {
                    0
                };
                self.read += n;
                Ok(n)
            }
        }

        /// The `Content-Length` a head declares, if its one such header
        /// parses.
        fn declared_length(head: &[u8]) -> Option<usize> {
            let head = String::from_utf8_lossy(head);
            let mut lengths = head
                .split("\r\n")
                .skip(1)
                .filter_map(|line| line.split_once(':'))
                .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"));
            let length = lengths
                .next()
                .map_or(Some(0), |(_, v)| v.trim().parse().ok());
            if lengths.next().is_some() {
                return None;
            }
            length
        }

        /// Parses one source; `Ok(true)` when accepted, `Ok(false)` when
        /// refused, `Err` with the broken invariant otherwise.
        fn check(mut src: Source<'_>) -> Result<bool, String> {
            let parsed = catch_unwind(AssertUnwindSafe(|| parse_request(&mut src, None)))
                .map_err(|_| "parsing panicked".to_string())?;
            if src.read > MAX_HEAD + MAX_BODY {
                return Err(format!("read {} bytes past the caps", src.read));
            }
            let request = match parsed {
                Ok(request) => request,
                Err(e) if e.to_string().is_empty() => return Err("a silent ParseError".into()),
                Err(_) => return Ok(false),
            };
            // everything the parser was handed, filler included
            let mut seen = src.bytes[..src.read.min(src.bytes.len())].to_vec();
            seen.resize(src.read, b'x');
            let head_end =
                find_head_end(&seen).ok_or("accepted a request without a head terminator")?;
            let length = declared_length(&seen[..head_end])
                .ok_or("accepted a request without one valid Content-Length")?;
            if length > MAX_BODY {
                return Err(format!("accepted a {length}-byte body"));
            }
            // the body is the `length` bytes after the head, read in
            // full; invalid UTF-8 in it is replaced, not dropped
            let raw = seen
                .get(head_end + 4..head_end + 4 + length)
                .ok_or("accepted a body it never read")?;
            if request.body != String::from_utf8_lossy(raw) {
                return Err(format!(
                    "body of {} bytes for a Content-Length of {length}",
                    request.body.len()
                ));
            }
            Ok(true)
        }

        #[test]
        fn mutated_requests_parse_or_refuse_within_the_caps() {
            let corpus = corpus();
            for (i, bytes) in corpus.iter().enumerate() {
                let src = Source {
                    bytes,
                    endless: false,
                    step: usize::MAX,
                    read: 0,
                };
                assert_eq!(check(src), Ok(true), "corpus request {i} is valid");
            }
            let mut rng = StdRng::seed_from_u64(0x4e77_9a55);
            let (mut accepted, mut refused) = (0, 0);
            for case in 0..CASES {
                // the two entries at the caps cost ~100x a small one, and an endless
                // source ~20x
                let seed = if rng.gen_bool(0.05) {
                    &corpus[rng.gen_range(corpus.len() - 2..corpus.len())]
                } else {
                    &corpus[rng.gen_range(0..corpus.len() - 2)]
                };
                let bytes = mutate(&mut rng, seed);
                let short = rng.gen_bool(0.3);
                let src = Source {
                    bytes: &bytes,
                    endless: rng.gen_bool(0.25),
                    step: if short {
                        rng.gen_range(1usize..8)
                    } else {
                        usize::MAX
                    },
                    read: 0,
                };
                match check(src) {
                    Ok(true) => accepted += 1,
                    Ok(false) => refused += 1,
                    Err(broken) => {
                        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]);
                        panic!("case {case}, request {shown:?}...: {broken}")
                    }
                }
            }
            // the corpus reaches both sides of the parser
            assert!(accepted > CASES / 20, "{accepted} accepted");
            assert!(refused > CASES / 20, "{refused} refused");
        }
    }
}
