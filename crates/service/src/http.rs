//! A deliberately small HTTP/1.1 implementation over `std::net` — enough
//! for a JSON API with `Connection: close` semantics, and nothing more.
//! No keep-alive, no chunked encoding, no TLS; requests and responses are
//! bounded, bodies are UTF-8 JSON.
//!
//! Both sides live here: [`read_request_with`]/[`respond`] for the
//! daemon, [`call`]/[`call_with`] for the client. Sharing the parser
//! keeps the two ends honest with each other.
//!
//! **Deadlines.** Every socket carries three ([`Deadlines`]): a per-read
//! idle deadline, a write deadline, and a *total* request deadline
//! enforced across the whole read loop. The per-read deadline catches a
//! peer that goes silent; the total deadline catches the slow-loris
//! shape — a peer that drips one byte per poll, resetting the idle timer
//! forever while holding a connection (and its thread) hostage. Elapsed
//! deadlines surface as the typed [`ServiceError::Timeout`], never as a
//! bare I/O error.

use crate::error::ServiceError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on header block + body we accept (a defensive cap, not a
/// protocol limit; Explicit graph adjacencies are the largest legit body).
const MAX_MESSAGE: usize = 16 * 1024 * 1024;

/// Default socket read/write deadline on both ends.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Default whole-request deadline (the slow-loris bound).
pub const TOTAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-request I/O deadlines. `read` and `write` bound a single stalled
/// syscall; `total` bounds the entire request — progress does not reset
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// Longest a single read may sit idle.
    pub read: Duration,
    /// Longest a single write may block.
    pub write: Duration,
    /// Longest the whole request (headers + body) may take, regardless
    /// of how steadily bytes trickle in.
    pub total: Duration,
}

impl Default for Deadlines {
    fn default() -> Deadlines {
        Deadlines {
            read: IO_TIMEOUT,
            write: IO_TIMEOUT,
            total: TOTAL_TIMEOUT,
        }
    }
}

impl Deadlines {
    /// All three deadlines set to `d` — the drills' way of making a
    /// daemon impatient.
    pub fn uniform(d: Duration) -> Deadlines {
        Deadlines {
            read: d,
            write: d,
            total: d,
        }
    }
}

/// Whether an I/O error is a socket deadline elapsing. `WouldBlock` is
/// included because some platforms report read-timeout that way on
/// nonblocking-style timeouts.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Map an I/O failure from a `read` on `stream` into the typed error.
fn read_err(e: std::io::Error, after: Duration) -> ServiceError {
    if is_timeout(&e) {
        ServiceError::Timeout {
            what: "read",
            after,
        }
    } else {
        ServiceError::Io(e)
    }
}

/// Tracks the total-request deadline across a read loop.
struct Clock {
    deadline: Instant,
    total: Duration,
    per_read: Duration,
}

impl Clock {
    fn start(deadlines: Deadlines) -> Clock {
        Clock {
            deadline: Instant::now() + deadlines.total,
            total: deadlines.total,
            per_read: deadlines.read,
        }
    }

    /// Arm the socket for the next read: the per-read deadline, clipped
    /// so the read can never outlive the total one. Errors with the typed
    /// timeout once the total deadline has passed.
    fn arm(&self, stream: &TcpStream) -> Result<(), ServiceError> {
        let remaining = self
            .deadline
            .checked_duration_since(Instant::now())
            .filter(|r| !r.is_zero())
            .ok_or(ServiceError::Timeout {
                what: "request",
                after: self.total,
            })?;
        // `set_read_timeout` rejects zero; a floor of 1ms can overshoot
        // the total deadline by at most that much.
        let next = self.per_read.min(remaining).max(Duration::from_millis(1));
        stream.set_read_timeout(Some(next))?;
        Ok(())
    }
}

/// A parsed request line + body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// The query string after `?`, undecoded (empty when absent).
    pub query: String,
    /// Raw body (empty when no `Content-Length`).
    pub body: String,
}

/// Read one HTTP/1.1 request from `stream` under the default deadlines.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServiceError> {
    read_request_with(stream, Deadlines::default())
}

/// Read one HTTP/1.1 request from `stream`, enforcing `deadlines`.
pub fn read_request_with(
    stream: &mut TcpStream,
    deadlines: Deadlines,
) -> Result<Request, ServiceError> {
    let clock = Clock::start(deadlines);
    stream.set_write_timeout(Some(deadlines.write))?;
    let (head, mut rest) = read_until_blank_line(stream, &clock)?;

    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ServiceError::Protocol("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServiceError::Protocol("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ServiceError::Protocol("missing request target".into()))?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ServiceError::Protocol(format!("bad content-length {value}")))?;
            }
        }
    }
    if content_length > MAX_MESSAGE {
        return Err(ServiceError::Protocol(format!(
            "body of {content_length} bytes exceeds the {MAX_MESSAGE} cap"
        )));
    }
    while rest.len() < content_length {
        clock.arm(stream)?;
        let mut buf = [0u8; 8192];
        let got = stream
            .read(&mut buf)
            .map_err(|e| read_err(e, deadlines.read))?;
        if got == 0 {
            return Err(ServiceError::Protocol("connection closed mid-body".into()));
        }
        rest.extend_from_slice(&buf[..got]);
    }
    rest.truncate(content_length);
    let body =
        String::from_utf8(rest).map_err(|_| ServiceError::Protocol("body is not UTF-8".into()))?;
    Ok(Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        body,
    })
}

/// Read until the `\r\n\r\n` header terminator; returns (header block
/// without the terminator, any body bytes already read past it).
fn read_until_blank_line(
    stream: &mut TcpStream,
    clock: &Clock,
) -> Result<(String, Vec<u8>), ServiceError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        if let Some(pos) = find_terminator(&buf) {
            let head = String::from_utf8(buf[..pos].to_vec())
                .map_err(|_| ServiceError::Protocol("headers are not UTF-8".into()))?;
            return Ok((head, buf[pos + 4..].to_vec()));
        }
        if buf.len() > MAX_MESSAGE {
            return Err(ServiceError::Protocol("header block too large".into()));
        }
        clock.arm(stream)?;
        let mut chunk = [0u8; 8192];
        let got = stream
            .read(&mut chunk)
            .map_err(|e| read_err(e, clock.per_read))?;
        if got == 0 {
            return Err(ServiceError::Protocol(
                "connection closed before headers ended".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..got]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one JSON response and close the write side.
pub fn respond(stream: &mut TcpStream, status: u16, json_body: &str) -> std::io::Result<()> {
    respond_with(stream, status, "application/json", json_body)
}

/// Write one response with an explicit content type (the `/metrics`
/// endpoint serves Prometheus text, not JSON) and close the write side.
pub fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Client side with default timeouts: one request, one response,
/// connection closed.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), ServiceError> {
    call_with(addr, method, path, body, IO_TIMEOUT, IO_TIMEOUT)
}

/// Client side with explicit connect and read/write deadlines. Stalls
/// surface as the typed [`ServiceError::Timeout`]: `"connect"` when the
/// peer never accepts, `"read"` when the response stops arriving.
pub fn call_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<(u16, String), ServiceError> {
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout).map_err(|e| {
        if is_timeout(&e) {
            ServiceError::Timeout {
                what: "connect",
                after: connect_timeout,
            }
        } else {
            ServiceError::Io(e)
        }
    })?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let send = |e: std::io::Error| {
        if is_timeout(&e) {
            ServiceError::Timeout {
                what: "write",
                after: io_timeout,
            }
        } else {
            ServiceError::Io(e)
        }
    };
    stream.write_all(head.as_bytes()).map_err(send)?;
    stream.write_all(body.as_bytes()).map_err(send)?;
    stream.flush().map_err(send)?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| read_err(e, io_timeout))?;
    let pos = find_terminator(&raw)
        .ok_or_else(|| ServiceError::Protocol("response without header terminator".into()))?;
    let head = String::from_utf8(raw[..pos].to_vec())
        .map_err(|_| ServiceError::Protocol("response headers are not UTF-8".into()))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServiceError::Protocol(format!("bad status line in {head:?}")))?;
    let body = String::from_utf8(raw[pos + 4..].to_vec())
        .map_err(|_| ServiceError::Protocol("response body is not UTF-8".into()))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            assert_eq!(req.query, "q=1");
            respond(&mut stream, 200, &req.body).unwrap();
        });
        let (status, body) = call(addr, "POST", "/echo?q=1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"x\":1}");
        server.join().unwrap();
    }

    #[test]
    fn get_without_body_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!((req.method.as_str(), req.body.as_str()), ("GET", ""));
            respond(&mut stream, 404, "{\"error\":\"nope\"}").unwrap();
        });
        let (status, body) = call(addr, "GET", "/missing", None).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("nope"));
        server.join().unwrap();
    }

    #[test]
    fn idle_peer_hits_the_typed_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request_with(&mut stream, Deadlines::uniform(Duration::from_millis(60)))
                .unwrap_err();
            match err {
                ServiceError::Timeout { what, .. } => assert!(what == "read" || what == "request"),
                other => panic!("expected a timeout, got {other}"),
            }
        });
        // Connect, send nothing, keep the socket open past the deadline.
        let stream = TcpStream::connect(addr).unwrap();
        server.join().unwrap();
        drop(stream);
    }

    #[test]
    fn slow_loris_trickle_hits_the_total_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let deadlines = Deadlines {
            read: Duration::from_millis(200),
            write: Duration::from_millis(200),
            total: Duration::from_millis(150),
        };
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request_with(&mut stream, deadlines).unwrap_err();
            match err {
                // Each drip lands within the idle deadline, so only the
                // total-request clock can end this.
                ServiceError::Timeout { what, .. } => assert_eq!(what, "request"),
                other => panic!("expected the total deadline, got {other}"),
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        for byte in b"GET / HTTP/1.1\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                break; // server gave up — exactly the point
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        server.join().unwrap();
    }
}
