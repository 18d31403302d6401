//! A deliberately tiny HTTP/1.1 subset over `std::net` — just enough
//! for the solve API and its load generator: persistent connections
//! (`Connection: keep-alive`, the HTTP/1.1 default), `Content-Length`
//! request bodies (a `Transfer-Encoding` or two different lengths are
//! refused), ASCII headers, JSON payloads. The server reads each
//! connection through one buffer kept across its requests. Responses
//! may also be `Transfer-Encoding: chunked` — the streaming solve path
//! emits one JSON frame per chunk ([`write_chunked_head`] /
//! [`write_chunk`] / [`finish_chunked`] on the server,
//! [`HttpConnection::request_stream`] on the client).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on accepted request bodies (1 MiB) — a crude protection against
/// a client streaming an unbounded body at the server.
const MAX_BODY: usize = 1 << 20;

/// Cap on a request or response head (start line plus headers).
const MAX_HEAD: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Upper-case method.
    pub method: String,
    /// Path with query string stripped.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Raw body (empty when absent).
    pub body: String,
    /// Whether the client wants the connection kept open after the
    /// response (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

impl HttpRequest {
    /// The value of query parameter `name`, if present
    /// (`last_ms=500&x=1` → `param("last_ms") == Some("500")`).
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// Why [`RequestReader::read_request`] returned no request. Only
/// [`ReadError::Malformed`] is worth an answer (a 400); the others end
/// the connection without one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReadError {
    /// The peer closed or reset the connection between requests.
    Closed,
    /// No byte of a next request arrived within the idle timeout.
    Idle,
    /// A request began but did not arrive whole within its deadline.
    Deadline,
    /// The request cannot be parsed or framed; the text says why. The
    /// connection is off its request boundary and must close.
    Malformed(String),
}

/// The read side of one server connection. Its buffer lives as long as
/// the connection: bytes of a pipelined next request that arrive with
/// this one carry over to the next call, and a request costs one `read`
/// per segment instead of one per byte.
pub(crate) struct RequestReader<'s> {
    reader: BufReader<&'s TcpStream>,
}

impl<'s> RequestReader<'s> {
    /// A reader over `stream`. It sets the socket's read timeout itself,
    /// before each read that can block.
    pub(crate) fn new(stream: &'s TcpStream) -> RequestReader<'s> {
        RequestReader {
            reader: BufReader::new(stream),
        }
    }

    /// Reads the next request. The connection may sit idle for `idle`
    /// before the request's first byte; from that byte on, the whole
    /// request, head and body, must arrive within `whole`.
    pub(crate) fn read_request(
        &mut self,
        idle: Duration,
        whole: Duration,
    ) -> Result<HttpRequest, ReadError> {
        match self.fill(idle) {
            Ok([]) => return Err(ReadError::Closed),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => return Err(ReadError::Idle),
            Err(_) => return Err(ReadError::Closed),
        }
        let deadline = Instant::now() + whole;
        let head = self.read_head(deadline)?;
        let (mut req, content_length) = parse_head(&head).map_err(ReadError::Malformed)?;
        let mut body = Vec::with_capacity(content_length);
        while body.len() < content_length {
            let buf = self.fill_by(deadline)?;
            let take = buf.len().min(content_length - body.len());
            body.extend_from_slice(&buf[..take]);
            self.reader.consume(take);
        }
        req.body = String::from_utf8(body)
            .map_err(|_| ReadError::Malformed("body is not UTF-8".into()))?;
        Ok(req)
    }

    /// The buffered bytes, reading more first when none are left; the
    /// read blocks for at most `wait`. An empty slice means the peer
    /// closed its side.
    fn fill(&mut self, wait: Duration) -> std::io::Result<&[u8]> {
        if self.reader.buffer().is_empty() {
            if wait.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.reader.get_ref().set_read_timeout(Some(wait))?;
        }
        loop {
            match self.reader.fill_buf() {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
                Ok(_) => return Ok(self.reader.buffer()),
            }
        }
    }

    /// [`RequestReader::fill`] inside a request that must be whole by
    /// `deadline`.
    fn fill_by(&mut self, deadline: Instant) -> Result<&[u8], ReadError> {
        match self.fill(deadline.saturating_duration_since(Instant::now())) {
            Ok([]) => Err(ReadError::Malformed("connection closed mid-request".into())),
            Ok(buf) => Ok(buf),
            Err(e) if is_timeout(&e) => Err(ReadError::Deadline),
            Err(e) => Err(ReadError::Malformed(format!("reading request: {e}"))),
        }
    }

    /// Reads through the blank line that ends a request head and
    /// returns the head without it, leaving any bytes after it buffered.
    fn read_head(&mut self, deadline: Instant) -> Result<Vec<u8>, ReadError> {
        let mut head = Vec::with_capacity(256);
        loop {
            let buf = self.fill_by(deadline)?;
            let (had, got) = (head.len(), buf.len());
            head.extend_from_slice(buf);
            // The terminator may straddle two reads.
            let from = had.saturating_sub(3);
            if let Some(at) = head[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                let end = from + at + 4;
                self.reader.consume(end - had);
                head.truncate(end - 4);
                return Ok(head);
            }
            self.reader.consume(got);
            if head.len() > MAX_HEAD {
                return Err(ReadError::Malformed("request head too large".into()));
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Parses a request head (request line and headers) into a request
/// without its body, and the body length its framing declares. Only
/// `Content-Length` framing is read, so a head that declares anything
/// else is refused: its body would otherwise be parsed as the next
/// request.
fn parse_head(head: &[u8]) -> Result<(HttpRequest, usize), String> {
    let head = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // Persistence is the HTTP/1.1 default; HTTP/1.0 must opt in.
    let version = parts.next().unwrap_or("HTTP/1.1");
    let mut keep_alive = !version.eq_ignore_ascii_case("HTTP/1.0");
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                let len = match value.parse::<usize>() {
                    Ok(len) if value.bytes().all(|b| b.is_ascii_digit()) => len,
                    _ => return Err(format!("bad content-length {value:?}")),
                };
                if content_length.is_some_and(|prev| prev != len) {
                    return Err("conflicting content-length headers".into());
                }
                content_length = Some(len);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(format!(
                    "transfer-encoding {value:?} is not supported; send the body with a content-length"
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds the cap"));
    }
    let req = HttpRequest {
        method,
        path,
        query,
        body: String::new(),
        keep_alive,
    };
    Ok((req, content_length))
}

/// Standard reason phrase of the statuses this API emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes. `keep_alive` controls the
/// advertised connection disposition; the caller owns actually keeping
/// the socket open (or not) to match.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_ex(stream, status, body, keep_alive, None)
}

/// [`write_response`] with an optional `Retry-After` header (seconds),
/// used by 503 rejections from an open circuit breaker to tell clients
/// when a retry has a chance of succeeding.
pub fn write_response_ex(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_s: Option<u64>,
) -> std::io::Result<()> {
    let opts = ResponseOptions {
        retry_after_s,
        ..ResponseOptions::default()
    };
    write_response_opts(stream, status, body, keep_alive, &opts)
}

/// Non-default response headers for [`write_response_opts`].
#[derive(Debug, Clone, Default)]
pub struct ResponseOptions {
    /// `Content-Type` override (`application/json` when `None` — the
    /// API's default; `/metrics` sets the Prometheus text type).
    pub content_type: Option<&'static str>,
    /// `Retry-After` seconds, emitted by breaker-open 503s.
    pub retry_after_s: Option<u64>,
    /// Extra `(name, value)` headers, e.g. `X-LDDP-Trace-Id`. Names
    /// and values must be valid ASCII header text; no escaping is
    /// applied.
    pub extra_headers: Vec<(&'static str, String)>,
}

/// The fully general response writer: status, body, connection
/// disposition, plus whatever [`ResponseOptions`] carries.
pub fn write_response_opts(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
    opts: &ResponseOptions,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        status_text(status),
        opts.content_type.unwrap_or("application/json"),
        body.len(),
    );
    if let Some(s) = opts.retry_after_s {
        head.push_str(&format!("Retry-After: {s}\r\n"));
    }
    for (name, value) in &opts.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    ));
    // One write per response: a separate small head write would sit in
    // Nagle's buffer waiting for the peer's delayed ACK (~40 ms on a
    // quiet connection) before the body could follow.
    head.push_str(body);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes the head of a `Transfer-Encoding: chunked` response and
/// flushes. The caller then emits any number of [`write_chunk`]s and
/// finishes with [`finish_chunked`]; the connection stays usable for
/// the next request afterwards when `keep_alive` holds.
pub fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    keep_alive: bool,
    opts: &ResponseOptions,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n",
        status,
        status_text(status),
        opts.content_type.unwrap_or("application/json"),
    );
    if let Some(s) = opts.retry_after_s {
        head.push_str(&format!("Retry-After: {s}\r\n"));
    }
    for (name, value) in &opts.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    ));
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one non-empty chunk (`<hex len>\r\n<data>\r\n`) and flushes
/// immediately — each flush is what turns a band into a wire-visible
/// event rather than a buffered byte. Empty payloads are skipped: a
/// zero-length chunk would terminate the stream early.
pub fn write_chunk(stream: &mut impl Write, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    // Size line, payload, and CRLF go out as one segment: three small
    // writes would let Nagle hold the tail of every band frame until
    // the reader's delayed ACK, turning a live stream into 40 ms beats.
    let mut chunk = format!("{:x}\r\n", data.len());
    chunk.push_str(data);
    chunk.push_str("\r\n");
    stream.write_all(chunk.as_bytes())?;
    stream.flush()
}

/// Terminates a chunked response (`0\r\n\r\n`, no trailers) and
/// flushes, leaving the connection aligned on a request boundary.
pub fn finish_chunked(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Reads one CRLF-terminated line of at most `max` bytes through the
/// connection's buffer, without the CRLF; `what` names the line in
/// errors.
fn read_crlf_line(reader: &mut impl BufRead, max: usize, what: &str) -> Result<String, String> {
    let mut line = Vec::with_capacity(64);
    reader
        .take(max as u64 + 2)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if !line.ends_with(b"\r\n") {
        return Err(if line.len() > max {
            format!("{what} line too long")
        } else {
            format!("connection closed mid-{what}")
        });
    }
    line.truncate(line.len() - 2);
    String::from_utf8(line).map_err(|_| format!("{what} line is not UTF-8"))
}

/// Reads one chunk of a chunked response body: `Some(data)` for a data
/// chunk, `None` once the zero-length terminal chunk (and any trailers)
/// has been consumed and the connection is back on a request boundary.
fn read_chunk(reader: &mut impl BufRead) -> Result<Option<String>, String> {
    let size_line = read_crlf_line(reader, 1024, "chunk")?;
    // Tolerate chunk extensions (`1a;name=value`) by ignoring them.
    let size_hex = size_line.split(';').next().unwrap_or("").trim();
    let size = usize::from_str_radix(size_hex, 16)
        .map_err(|_| format!("malformed chunk-size line {size_line:?}"))?;
    if size > MAX_BODY {
        return Err(format!("chunk of {size} bytes exceeds the cap"));
    }
    if size == 0 {
        // Discard trailers until the blank line that ends the body.
        while !read_crlf_line(reader, 1024, "chunk")?.is_empty() {}
        return Ok(None);
    }
    let mut data = vec![0u8; size + 2];
    reader
        .read_exact(&mut data)
        .map_err(|e| format!("reading chunk data: {e}"))?;
    if !data.ends_with(b"\r\n") {
        return Err("chunk data not CRLF-terminated".into());
    }
    data.truncate(size);
    String::from_utf8(data)
        .map(Some)
        .map_err(|_| "chunk is not UTF-8".into())
}

/// The parts of a response head the client acts on.
struct ResponseHead {
    status: u16,
    content_length: usize,
    chunked: bool,
    retry_after_s: Option<u64>,
}

impl ResponseHead {
    /// Reads a response head through `reader`, up to its blank line.
    fn read(reader: &mut impl BufRead) -> Result<ResponseHead, String> {
        let status_line = read_crlf_line(reader, MAX_HEAD, "response")?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or("response missing status code")?;
        let mut head = ResponseHead {
            status,
            content_length: 0,
            chunked: false,
            retry_after_s: None,
        };
        let mut read = status_line.len();
        loop {
            let line = read_crlf_line(reader, MAX_HEAD, "response")?;
            read += line.len() + 2;
            if read > MAX_HEAD {
                return Err("response head too large".into());
            }
            let Some((name, value)) = line.split_once(':') else {
                if line.is_empty() {
                    return Ok(head);
                }
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value
                    .parse::<usize>()
                    .map_err(|e| format!("bad content-length: {e}"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                head.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("retry-after") {
                // Only the delta-seconds form; an unparseable value
                // (e.g. an HTTP-date) degrades to "no hint".
                head.retry_after_s = value.parse::<u64>().ok();
            }
        }
    }

    /// Reads the `Content-Length` body that follows the head.
    fn read_body(&self, reader: &mut impl BufRead) -> Result<String, String> {
        if self.content_length > MAX_BODY {
            return Err(format!(
                "response of {} bytes exceeds the cap",
                self.content_length
            ));
        }
        let mut payload = vec![0u8; self.content_length];
        reader
            .read_exact(&mut payload)
            .map_err(|e| format!("reading response body: {e}"))?;
        String::from_utf8(payload).map_err(|_| "response is not UTF-8".into())
    }
}

/// What [`HttpConnection::request_stream`] observed: the status, the
/// plain body when the server answered without chunking (rejections
/// stay ordinary JSON responses), and any `Retry-After` hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// HTTP status code.
    pub status: u16,
    /// The full body when the response was *not* chunked; `None` when
    /// the body was streamed through the chunk callback instead.
    pub plain_body: Option<String>,
    /// Parsed `Retry-After` header (whole seconds), when present.
    pub retry_after_s: Option<u64>,
}

/// A persistent client connection: many requests over one TCP stream
/// (`Connection: keep-alive`), reading each response body by its
/// `Content-Length` instead of waiting for EOF. This is what makes a
/// load generator measure solve latency rather than TCP handshakes.
/// Responses are read through one buffer kept across requests, as the
/// server's request reader does, so a head costs a few reads, not one
/// per byte.
#[derive(Debug)]
pub struct HttpConnection {
    reader: BufReader<TcpStream>,
    addr: String,
}

impl HttpConnection {
    /// Dials `addr` and applies `timeout` to reads and writes.
    pub fn connect(addr: &str, timeout: Duration) -> Result<HttpConnection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // A connection whose timeouts failed to apply would hang forever
        // on a stalled peer — refuse it rather than limp along unbounded.
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set read timeout on {addr}: {e}"))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("set write timeout on {addr}: {e}"))?;
        // Nagle would batch our small request/frame segments behind the
        // peer's delayed ACK; this is a latency-measuring client, so
        // send segments as written. Best-effort: a platform that cannot
        // disable it still works, just slower.
        stream.set_nodelay(true).ok();
        Ok(HttpConnection {
            reader: BufReader::new(stream),
            addr: addr.to_string(),
        })
    }

    /// Sends one request and reads its response, leaving the connection
    /// open for the next call. On any error the connection should be
    /// dropped and redialed — a half-read stream is not reusable.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        self.request_ex(method, path, body)
            .map(|(status, body, _)| (status, body))
    }

    /// [`HttpConnection::request`], also returning the parsed
    /// `Retry-After` header (whole seconds) when the server sent one —
    /// how backpressure rejections (429/503) tell clients when a retry
    /// has a chance.
    pub fn request_ex(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String, Option<u64>), String> {
        let head = self.send(method, path, body)?;
        let payload = head.read_body(&mut self.reader)?;
        Ok((head.status, payload, head.retry_after_s))
    }

    /// Sends one request and reads a possibly chunked response,
    /// delivering each chunk to `on_chunk` as it arrives (the streaming
    /// solve path writes one JSON frame per chunk, so chunk boundaries
    /// are frame boundaries). When the server answers with a plain
    /// `Content-Length` body instead — every rejection does — the body
    /// comes back in [`StreamOutcome::plain_body`] and `on_chunk` is
    /// never called. After `Ok`, the connection is aligned for reuse;
    /// on `Err` it must be dropped.
    pub fn request_stream(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        on_chunk: &mut dyn FnMut(&str),
    ) -> Result<StreamOutcome, String> {
        let head = self.send(method, path, body)?;
        let plain_body = if head.chunked {
            while let Some(chunk) = read_chunk(&mut self.reader)? {
                on_chunk(&chunk);
            }
            None
        } else {
            Some(head.read_body(&mut self.reader)?)
        };
        Ok(StreamOutcome {
            status: head.status,
            plain_body,
            retry_after_s: head.retry_after_s,
        })
    }

    /// Writes one request and reads the response's head.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ResponseHead, String> {
        let body = body.unwrap_or("");
        // Head and body leave in one segment (see `write_response`'s
        // note on Nagle + delayed ACK).
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        req.push_str(body);
        let stream = self.reader.get_mut();
        stream
            .write_all(req.as_bytes())
            .and_then(|_| stream.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        ResponseHead::read(&mut self.reader)
    }
}

/// Minimal one-shot HTTP client: one request on a fresh connection
/// (`Connection: close`), one `(status, body)` response read to EOF.
/// Used by the CI smoke test; the load generator prefers pooled
/// [`HttpConnection`]s.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String), String> {
    request_with_head(addr, method, path, body, timeout).map(|(status, _, body)| (status, body))
}

/// [`request`], also returning the raw response head (status line and
/// headers) so callers can inspect headers like `X-LDDP-Trace-Id`.
pub fn request_with_head(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set read timeout on {addr}: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set write timeout on {addr}: {e}"))?;
    let body = body.unwrap_or("");
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    req.push_str(body);
    stream
        .write_all(req.as_bytes())
        .and_then(|_| stream.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8")?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or("response missing header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response missing status code")?;
    Ok((status, head.to_string(), payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const T: Duration = Duration::from_secs(5);

    fn read_one(conn: &TcpStream) -> Result<HttpRequest, ReadError> {
        RequestReader::new(conn).read_request(T, T)
    }

    #[test]
    fn request_round_trips_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_one(&conn).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/solve");
            assert_eq!(req.body, r#"{"problem":"lcs"}"#);
            assert!(!req.keep_alive, "one-shot client sends Connection: close");
            write_response(&mut conn, 200, r#"{"ok":true}"#, false).unwrap();
        });
        let (status, body) = request(
            &addr,
            "POST",
            "/solve?verbose=1",
            Some(r#"{"problem":"lcs"}"#),
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        server.join().unwrap();
    }

    #[test]
    fn bodyless_get_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_one(&conn).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/healthz");
            assert!(req.body.is_empty());
            write_response(&mut conn, 404, "{}", false).unwrap();
        });
        let (status, _) = request(&addr, "GET", "/healthz", None, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 404);
        server.join().unwrap();
    }

    #[test]
    fn persistent_connection_carries_multiple_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            for i in 0..3 {
                let req = read_one(&conn).unwrap();
                assert_eq!(req.method, "POST");
                assert!(req.keep_alive, "pooled client keeps the connection");
                write_response(&mut conn, 200, &format!("{{\"i\":{i}}}"), true).unwrap();
            }
            // The client hanging up afterwards is a clean close.
            assert_eq!(read_one(&conn).unwrap_err(), ReadError::Closed);
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        for i in 0..3 {
            let (status, body) = conn.request("POST", "/solve", Some("{}")).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"i\":{i}}}"));
        }
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn connection_close_header_is_honored_in_parsing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_one(&conn).unwrap();
            assert!(!req.keep_alive);
            write_response(&mut conn, 200, "{}", false).unwrap();
        });
        // The one-shot helper labels itself Connection: close.
        let (status, _) = request(&addr, "GET", "/x", None, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        server.join().unwrap();
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            write_response_ex(&mut conn, 503, "{}", false, Some(7)).unwrap();
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert!(text.contains("Retry-After: 7\r\n"), "{text}");
        server.join().unwrap();
    }

    #[test]
    fn pooled_connection_parses_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            write_response_ex(&mut conn, 429, "{}", true, Some(3)).unwrap();
            read_one(&conn).unwrap();
            write_response(&mut conn, 200, "{}", true).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let (status, _, retry) = conn.request_ex("POST", "/solve", Some("{}")).unwrap();
        assert_eq!(status, 429);
        assert_eq!(retry, Some(3));
        // A response without the header reports None.
        let (status, _, retry) = conn.request_ex("POST", "/solve", Some("{}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(retry, None);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn query_string_is_captured_and_parsed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_one(&conn).unwrap();
            assert_eq!(req.path, "/debug/trace");
            assert_eq!(req.query, "last_ms=500&full=");
            assert_eq!(req.param("last_ms"), Some("500"));
            assert_eq!(req.param("full"), Some(""));
            assert_eq!(req.param("missing"), None);
            write_response(&mut conn, 200, "{}", false).unwrap();
        });
        let (status, _) = request(
            &addr,
            "GET",
            "/debug/trace?last_ms=500&full=",
            None,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 200);
        server.join().unwrap();
    }

    #[test]
    fn response_options_emit_content_type_and_extra_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            let opts = ResponseOptions {
                content_type: Some("text/plain; version=0.0.4"),
                retry_after_s: None,
                extra_headers: vec![("X-LDDP-Trace-Id", "00ff00ff00ff00ff".to_string())],
            };
            write_response_opts(&mut conn, 200, "ok 1\n", false, &opts).unwrap();
        });
        let (status, head, body) =
            request_with_head(&addr, "GET", "/metrics", None, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4"),
            "{head}"
        );
        assert!(head.contains("X-LDDP-Trace-Id: 00ff00ff00ff00ff"), "{head}");
        assert_eq!(body, "ok 1\n");
        server.join().unwrap();
    }

    #[test]
    fn chunked_response_streams_frame_per_chunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_one(&conn).unwrap();
            assert_eq!(req.param("stream"), Some("1"));
            let opts = ResponseOptions {
                extra_headers: vec![("X-LDDP-Trace-Id", "abc123".to_string())],
                ..ResponseOptions::default()
            };
            write_chunked_head(&mut conn, 200, true, &opts).unwrap();
            for i in 0..3 {
                write_chunk(&mut conn, &format!("{{\"band\":{i}}}")).unwrap();
            }
            // Empty writes are dropped, not emitted as a terminal chunk.
            write_chunk(&mut conn, "").unwrap();
            write_chunk(&mut conn, r#"{"frame":"done"}"#).unwrap();
            finish_chunked(&mut conn).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut chunks = Vec::new();
        let outcome = conn
            .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |c| {
                chunks.push(c.to_string())
            })
            .unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(outcome.plain_body, None);
        assert_eq!(
            chunks,
            vec![
                r#"{"band":0}"#,
                r#"{"band":1}"#,
                r#"{"band":2}"#,
                r#"{"frame":"done"}"#
            ]
        );
        server.join().unwrap();
    }

    #[test]
    fn malformed_chunk_size_lines_are_errors() {
        // Each case replaces the first chunk-size line with garbage; the
        // reader must reject it rather than misinterpret the stream.
        for bad in ["zz\r\n", "-4\r\n", "\r\n", "1g;ext=1\r\n"] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let wire = bad.to_string();
            let server = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                read_one(&conn).unwrap();
                conn.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
                )
                .unwrap();
                conn.write_all(wire.as_bytes()).unwrap();
                conn.flush().unwrap();
            });
            let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
            let err = conn
                .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |_| {})
                .unwrap_err();
            assert!(err.contains("malformed chunk-size line"), "{bad:?}: {err}");
            server.join().unwrap();
        }
    }

    #[test]
    fn zero_length_terminal_chunk_with_extension_and_trailers_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
            // A chunk with an extension, then a terminal chunk followed
            // by a trailer header — both legal, both must be consumed.
            conn.write_all(b"b;speed=fast\r\n{\"band\":42}\r\n")
                .unwrap();
            conn.write_all(b"0\r\nX-Trailer: ignored\r\n\r\n").unwrap();
            conn.flush().unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut chunks = Vec::new();
        let outcome = conn
            .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |c| {
                chunks.push(c.to_string())
            })
            .unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(chunks, vec![r#"{"band":42}"#]);
        server.join().unwrap();
    }

    #[test]
    fn early_peer_close_mid_stream_is_an_error_not_a_short_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            conn.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n",
            )
            .unwrap();
            // One whole chunk, then half of a second one; the socket
            // then closes without the terminal chunk.
            conn.write_all(b"a\r\n{\"band\":0}\r\n").unwrap();
            conn.write_all(b"a\r\n{\"ban").unwrap();
            conn.flush().unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut chunks = Vec::new();
        let err = conn
            .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |c| {
                chunks.push(c.to_string())
            })
            .unwrap_err();
        assert!(
            err.contains("reading chunk"),
            "truncated stream must surface as an error: {err}"
        );
        assert_eq!(chunks, vec![r#"{"band":0}"#], "whole chunks still arrive");
        server.join().unwrap();
    }

    #[test]
    fn keep_alive_connection_is_reusable_after_a_completed_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // First exchange: a chunked stream.
            read_one(&conn).unwrap();
            write_chunked_head(&mut conn, 200, true, &ResponseOptions::default()).unwrap();
            write_chunk(&mut conn, r#"{"band":0}"#).unwrap();
            write_chunk(&mut conn, r#"{"frame":"done"}"#).unwrap();
            finish_chunked(&mut conn).unwrap();
            // Second exchange on the same socket: a plain response. If
            // the client left stray bytes unread, this request never
            // parses.
            let req = read_one(&conn).unwrap();
            assert_eq!(req.path, "/healthz");
            write_response(&mut conn, 200, r#"{"ok":true}"#, true).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut chunks = Vec::new();
        let outcome = conn
            .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |c| {
                chunks.push(c.to_string())
            })
            .unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(chunks.len(), 2);
        let (status, body) = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        drop(conn);
        server.join().unwrap();
    }

    /// Two keep-alive responses around a chunked stream, written ahead
    /// of the requests (so one read can take in bytes of the next
    /// response), once as whole segments and once one byte per write:
    /// every byte must land in its own response.
    #[test]
    fn buffered_reads_keep_pipelined_responses_apart() {
        let mut wire = Vec::new();
        write_response_ex(&mut wire, 200, r#"{"first":1}"#, true, None).unwrap();
        write_chunked_head(&mut wire, 200, true, &ResponseOptions::default()).unwrap();
        write_chunk(&mut wire, r#"{"band":0}"#).unwrap();
        write_chunk(&mut wire, r#"{"frame":"done"}"#).unwrap();
        finish_chunked(&mut wire).unwrap();
        write_response_ex(&mut wire, 429, r#"{"third":3}"#, true, Some(7)).unwrap();
        for bytewise in [false, true] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let wire = wire.clone();
            let server = std::thread::spawn(move || {
                let (conn, _) = listener.accept().unwrap();
                conn.set_nodelay(true).unwrap();
                let mut requests = RequestReader::new(&conn);
                for path in ["/stats", "/solve", "/healthz"] {
                    assert_eq!(requests.read_request(T, T).unwrap().path, path);
                    if path != "/stats" {
                        continue;
                    }
                    let mut out = &conn;
                    if bytewise {
                        for b in &wire {
                            out.write_all(std::slice::from_ref(b)).unwrap();
                        }
                    } else {
                        out.write_all(&wire).unwrap();
                    }
                }
            });
            let mut conn = HttpConnection::connect(&addr, T).unwrap();
            let first = conn.request_ex("GET", "/stats", None).unwrap();
            assert_eq!(first, (200, r#"{"first":1}"#.to_string(), None));
            let mut chunks = Vec::new();
            let outcome = conn
                .request_stream("POST", "/solve", Some("{}"), &mut |c| {
                    chunks.push(c.to_string())
                })
                .unwrap();
            assert_eq!((outcome.status, outcome.plain_body), (200, None));
            assert_eq!(chunks, [r#"{"band":0}"#, r#"{"frame":"done"}"#]);
            let third = conn.request_ex("GET", "/healthz", None).unwrap();
            assert_eq!(third, (429, r#"{"third":3}"#.to_string(), Some(7)));
            server.join().unwrap();
        }
    }

    #[test]
    fn non_chunked_response_to_a_stream_request_returns_plain_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_one(&conn).unwrap();
            write_response_ex(&mut conn, 429, r#"{"error":"queue_full"}"#, true, Some(2)).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr, Duration::from_secs(5)).unwrap();
        let mut called = false;
        let outcome = conn
            .request_stream("POST", "/solve?stream=1", Some("{}"), &mut |_| {
                called = true
            })
            .unwrap();
        assert_eq!(outcome.status, 429);
        assert_eq!(
            outcome.plain_body.as_deref(),
            Some(r#"{"error":"queue_full"}"#)
        );
        assert_eq!(outcome.retry_after_s, Some(2));
        assert!(!called, "no chunks on a plain response");
        server.join().unwrap();
    }

    /// Writes `wire` from a client socket that then half-closes, and
    /// reads requests off the server side until one read fails.
    fn read_all(wire: &[u8]) -> (Vec<HttpRequest>, ReadError) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        client.write_all(wire).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = RequestReader::new(&conn);
        let mut got = Vec::new();
        loop {
            match reader.read_request(T, T) {
                Ok(req) => got.push(req),
                Err(e) => return (got, e),
            }
        }
    }

    #[test]
    fn chunked_request_bodies_are_refused() {
        let (got, err) = read_all(
            b"POST /solve HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
              17\r\n{\"problem\":\"lcs\",\"n\":8}\r\n0\r\n\r\n",
        );
        assert!(
            got.is_empty(),
            "the chunked body must not parse as a request"
        );
        assert!(
            matches!(&err, ReadError::Malformed(m) if m.contains("transfer-encoding")),
            "{err:?}"
        );
    }

    #[test]
    fn conflicting_or_malformed_content_lengths_are_refused() {
        let (got, err) = read_all(
            b"POST /solve HTTP/1.1\r\nContent-Length: 24\r\nContent-Length: 5\r\n\r\n\
              {\"problem\":\"lcs\",\"n\":8}",
        );
        assert!(got.is_empty());
        assert_eq!(
            err,
            ReadError::Malformed("conflicting content-length headers".into())
        );
        for bad in ["+5", "5 5", "-1", "", "0x5"] {
            let wire = format!("POST /solve HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let (got, err) = read_all(wire.as_bytes());
            assert!(got.is_empty(), "{bad:?}");
            assert!(matches!(err, ReadError::Malformed(_)), "{bad:?}: {err:?}");
        }
        // A repeated identical length frames the body the same way.
        let (got, err) =
            read_all(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body, "abc");
        assert_eq!(err, ReadError::Closed);
    }

    #[test]
    fn pipelined_requests_carry_over_in_the_buffer() {
        let (got, err) = read_all(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b?x=1 HTTP/1.1\r\n\r\n\
              GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let paths: Vec<&str> = got.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert_eq!(got[0].body, "hi");
        assert_eq!(got[1].param("x"), Some("1"));
        assert!(got[1].keep_alive && !got[2].keep_alive);
        assert_eq!(err, ReadError::Closed);
    }

    #[test]
    fn a_head_terminator_split_across_reads_is_found() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let writer = std::thread::spawn(move || {
            client
                .write_all(b"GET /a HTTP/1.1\r\nHost: x\r\n\r")
                .unwrap();
            std::thread::sleep(Duration::from_millis(30));
            client.write_all(b"\nGET /b HTTP/1.1\r\n\r\n").unwrap();
            client
        });
        let mut reader = RequestReader::new(&conn);
        assert_eq!(reader.read_request(T, T).unwrap().path, "/a");
        assert_eq!(reader.read_request(T, T).unwrap().path, "/b");
        drop(writer.join().unwrap());
        assert_eq!(reader.read_request(T, T).unwrap_err(), ReadError::Closed);
    }

    #[test]
    fn a_request_trickling_in_is_cut_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let trickle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                // Each byte lands well inside the idle timeout, so only a
                // deadline on the whole request can end this.
                for b in b"GET /slow HTTP/1.1\r\nHost: x\r\nX-Pad: ".iter().cycle() {
                    if stop.load(std::sync::atomic::Ordering::SeqCst)
                        || client.write_all(&[*b]).is_err()
                    {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        let t = Instant::now();
        let err = RequestReader::new(&conn)
            .read_request(Duration::from_secs(5), Duration::from_millis(200))
            .unwrap_err();
        let took = t.elapsed();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        trickle.join().unwrap();
        assert_eq!(err, ReadError::Deadline);
        assert!(
            took >= Duration::from_millis(150) && took < Duration::from_secs(3),
            "{took:?}"
        );
    }

    #[test]
    fn a_silent_connection_ends_at_the_idle_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let err = RequestReader::new(&conn)
            .read_request(Duration::from_millis(50), T)
            .unwrap_err();
        assert_eq!(err, ReadError::Idle);
    }

    #[test]
    fn status_texts_cover_api_codes() {
        for code in [200, 400, 404, 405, 429, 500, 503, 504] {
            assert_ne!(status_text(code), "Unknown");
        }
        assert_eq!(status_text(999), "Unknown");
    }
}
