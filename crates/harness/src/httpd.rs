//! A hand-rolled `std::net` HTTP/1.0 server — the scrape endpoint for
//! `obsctl watch`, built with zero new dependencies (same offline
//! discipline as the `serde_json`/`rayon` stubs).
//!
//! Scope is deliberately narrow: `GET` over HTTP/1.0 semantics
//! (`Connection: close`, one request per connection), a routing
//! closure mapping paths to responses, and a clean shutdown handle.
//! The accept loop runs on one background thread with a nonblocking
//! listener polled every 20 ms so the stop flag is observed promptly;
//! connections are handled sequentially — a metrics scrape is a few
//! KiB every few hundred ms, not a web workload. Malformed request
//! lines get `400 Bad Request`; an error on one connection never
//! takes down the accept loop.
//!
//! [`http_get`] is the matching client helper used by the e2e tests
//! and the CI smoke job (`obsctl fetch`), so the pipeline needs no
//! `curl` either.

use aarray_obs::ObsReport;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A response from a [`Httpd`] handler: status code plus body, with
/// the content type picked per route.
pub struct Response {
    /// HTTP status code (200, 400, 404, ...).
    pub status: u16,
    /// Media type for the `Content-Type` header.
    pub content_type: &'static str,
    /// Response body, written verbatim.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// A `404 Not Found` naming the missing path.
    pub fn not_found(path: &str) -> Response {
        Response {
            status: 404,
            content_type: "text/plain",
            body: format!("no such endpoint: {}\n", path),
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

/// The `obsctl watch` route table, shared between the binary and the
/// e2e tests. Each request publishes the pool's pending task tallies
/// ([`aarray_core::publish_pool_stats`]) and takes a fresh
/// [`ObsReport::capture`] on the server thread, so no response is older
/// than its request: `/metrics` (Prometheus exposition), `/report.json`
/// (the full schema-versioned report) and `/healthz` (`"status": "ok"`
/// plus the journal and ledger drop counts of the same capture).
pub fn telemetry_handler(path: &str) -> Response {
    let render: fn(&ObsReport) -> Response = match path {
        "/metrics" => |r| Response::ok("text/plain; version=0.0.4", r.to_prometheus()),
        "/report.json" => |r| Response::ok("application/json", r.to_json()),
        "/healthz" => |r| {
            Response::ok(
                "application/json",
                format!(
                    "{{\"status\": \"ok\", \"journal_dropped\": {}, \"ops_dropped\": {}}}\n",
                    r.journal.dropped, r.ops.dropped
                ),
            )
        },
        p => return Response::not_found(p),
    };
    aarray_core::publish_pool_stats();
    render(&ObsReport::capture())
}

/// Handle to a running server; dropping it stops the accept loop and
/// joins the thread.
pub struct Httpd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Httpd {
    /// Bind `addr` (use port 0 for an OS-assigned port, then read
    /// [`Httpd::addr`]) and serve `handler(path)` for every well-formed
    /// `GET`. The handler runs on the server thread, so it must be
    /// `Send` and should return quickly.
    pub fn serve<F>(addr: &str, handler: F) -> std::io::Result<Httpd>
    where
        F: Fn(&str) -> Response + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let t_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("aarray-httpd".into())
            .spawn(move || {
                while !t_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Per-connection failures (reset mid-write,
                            // unreadable request) must not kill the
                            // accept loop.
                            let _ = handle_connection(stream, &handler);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => {
                            // Transient accept error; back off briefly.
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                }
            })?;
        Ok(Httpd {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the server thread (Drop does the
    /// same).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Httpd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one request, route it, write one response, close. Any I/O
/// error is returned (and ignored by the accept loop).
fn handle_connection<F>(mut stream: TcpStream, handler: &F) -> std::io::Result<()>
where
    F: Fn(&str) -> Response,
{
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;

    // Read until the end of the request head (blank line) or a size
    // cap; we never need a body for GET.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n")
                    || buf.windows(2).any(|w| w == b"\n\n")
                    || buf.len() > 8192
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }

    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let response = route_request_line(request_line, handler);
    write_response(&mut stream, &response)
}

/// Parse `GET /path HTTP/1.x` and dispatch. Split out of the
/// connection handler so malformed-request behavior is unit-testable
/// without sockets.
pub fn route_request_line<F>(request_line: &str, handler: &F) -> Response
where
    F: Fn(&str) -> Response,
{
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
        _ => {
            return Response {
                status: 400,
                content_type: "text/plain",
                body: "malformed request line\n".into(),
            }
        }
    };
    if !version.starts_with("HTTP/") || !path.starts_with('/') {
        return Response {
            status: 400,
            content_type: "text/plain",
            body: "malformed request line\n".into(),
        };
    }
    if method != "GET" {
        return Response {
            status: 405,
            content_type: "text/plain",
            body: "only GET is served here\n".into(),
        };
    }
    // Ignore any query string; routes are bare paths.
    let path = path.split('?').next().unwrap_or(path);
    handler(path)
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        r.status,
        status_text(r.status),
        r.content_type,
        r.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(r.body.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP GET client for tests and `obsctl fetch`: one request,
/// read until the server closes or the `Content-Length` body has
/// arrived, return `(status, body)`. A partial response is an error,
/// never a success: a read that times out is `TimedOut`, and a body
/// that ends short of its `Content-Length` is `UnexpectedEof`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    use std::io::{Error, ErrorKind};
    let deadline = Instant::now() + timeout;
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "unresolvable addr"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("GET {} HTTP/1.0\r\nHost: {}\r\n\r\n", path, addr).as_bytes())?;

    let timed_out = || Error::new(ErrorKind::TimedOut, "response did not complete in time");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((start, Some(len))) = response_head(&raw) {
            if raw.len() - start >= len {
                break;
            }
        }
        if Instant::now() > deadline {
            return Err(timed_out());
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(timed_out());
            }
            Err(e) => return Err(e),
        }
    }

    let (start, content_length) = response_head(&raw).unwrap_or((raw.len(), None));
    let mut body = &raw[start..];
    if let Some(len) = content_length {
        if body.len() < len {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                format!("body ended after {} of {} bytes", body.len(), len),
            ));
        }
        body = &body[..len];
    }
    let status = String::from_utf8_lossy(&raw[..start])
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "unparsable status line"))?;
    Ok((status, String::from_utf8_lossy(body).into_owned()))
}

/// Where a response's body starts and its `Content-Length`, once the
/// head's blank line has arrived.
fn response_head(raw: &[u8]) -> Option<(usize, Option<usize>)> {
    let find = |pat: &[u8]| raw.windows(pat.len()).position(|w| w == pat);
    let (end, start) = match find(b"\r\n\r\n") {
        Some(i) => (i, i + 4),
        None => find(b"\n\n").map(|i| (i, i + 2))?,
    };
    let content_length = String::from_utf8_lossy(&raw[..end])
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok());
    Some((start, content_length))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_handler(path: &str) -> Response {
        match path {
            "/hello" => Response::ok("text/plain", "world\n".into()),
            p => Response::not_found(p),
        }
    }

    #[test]
    fn serves_and_stops_cleanly() {
        let server = Httpd::serve("127.0.0.1:0", echo_handler).unwrap();
        let addr = server.addr().to_string();
        let (status, body) = http_get(&addr, "/hello", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "world\n");
        let (status, _) = http_get(&addr, "/nope", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 404);
        server.stop();
        // The port is released once the handle is gone.
        assert!(
            TcpStream::connect_timeout(&addr.parse().unwrap(), Duration::from_millis(200)).is_err()
        );
    }

    #[test]
    fn query_strings_are_ignored_for_routing() {
        let r = route_request_line("GET /hello?window=5 HTTP/1.0", &echo_handler);
        assert_eq!(r.status, 200);
    }

    #[test]
    fn malformed_request_lines_get_400() {
        for line in [
            "",
            "GET",
            "GET /hello",
            "garbage with too many words entirely HTTP/1.0",
            "GET hello HTTP/1.0",
            "GET /hello FTP/1.0",
        ] {
            let r = route_request_line(line, &echo_handler);
            assert_eq!(r.status, 400, "line {:?} should be rejected", line);
        }
        let r = route_request_line("POST /hello HTTP/1.0", &echo_handler);
        assert_eq!(r.status, 405);
    }

    #[test]
    fn partial_responses_are_errors_not_success() {
        use std::io::ErrorKind;
        use std::sync::mpsc;
        // One fake server per case: it reads the request head, writes
        // `reply`, then closes or holds the socket open until released.
        fn fake(
            reply: &'static [u8],
            hold: bool,
        ) -> (String, mpsc::Sender<()>, std::thread::JoinHandle<()>) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let (release, held) = mpsc::channel::<()>();
            let t = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut chunk = [0u8; 256];
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match s.read(&mut chunk).unwrap() {
                        0 => break,
                        n => head.extend_from_slice(&chunk[..n]),
                    }
                }
                s.write_all(reply).unwrap();
                if hold {
                    let _ = held.recv();
                }
            });
            (addr, release, t)
        }
        let short: &[u8] = b"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        for (hold, want) in [
            (true, ErrorKind::TimedOut),
            (false, ErrorKind::UnexpectedEof),
        ] {
            let (addr, release, t) = fake(short, hold);
            let got = http_get(&addr, "/x", Duration::from_millis(300));
            assert_eq!(got.map_err(|e| e.kind()), Err(want), "hold {}", hold);
            let _ = release.send(());
            t.join().unwrap();
        }
        // A whole body is returned without waiting for the server to close.
        let (addr, release, t) = fake(b"HTTP/1.0 200 OK\r\ncontent-length: 3\r\n\r\nabc", true);
        let got = http_get(&addr, "/x", Duration::from_secs(5)).unwrap();
        assert_eq!(got, (200, "abc".to_string()));
        let _ = release.send(());
        t.join().unwrap();
    }

    #[test]
    fn malformed_request_does_not_kill_the_server() {
        let server = Httpd::serve("127.0.0.1:0", echo_handler).unwrap();
        let addr = server.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.0 400"), "got: {}", out);
        drop(s);
        // Server still answers afterwards.
        let (status, body) = http_get(&addr.to_string(), "/hello", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "world\n");
    }
}
