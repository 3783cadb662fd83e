//! Minimal HTTP/1.1 over `std::net`: just enough of RFC 9112 for the
//! serving endpoints — request-line + headers + `Content-Length` bodies,
//! keep-alive connections, and plain responses. No chunked encoding, no
//! TLS, no compression; anything outside that subset gets a clean 4xx.
//!
//! Parsing is **incremental**: [`RequestParser`] consumes bytes as they
//! arrive off a nonblocking socket and yields a [`Request`] only once the
//! head and body are complete, which is what lets the server's poll loop
//! serve thousands of slow connections without a thread (or a blocked
//! read) per socket. The blocking [`read_request`] used by tests and
//! simple callers is a thin loop over the same parser, retrying
//! `WouldBlock`/`TimedOut` reads under an overall per-request deadline —
//! a client that dribbles its body across several read-timeout windows is
//! waited for, not dropped.

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Upper bound on a request body (1 MiB): a batch of sentences, not a file
/// upload. Larger bodies are refused with 413 before buffering.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on a single header line, and on the header count.
const MAX_HEADER_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;

/// Upper bound on a buffered-but-incomplete request head. A peer that
/// sends this much without finishing its headers is slow-loris-ing, not
/// negotiating.
const MAX_HEAD_BYTES: usize = 32 * 1024;

/// Default overall deadline for reading one request (first byte of the
/// request line through the last body byte) in the blocking
/// [`read_request`] path.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// The HTTP protocol version a request was made with. The server answers
/// both the same way; the difference is connection semantics — HTTP/1.0
/// defaults to close-after-response, HTTP/1.1 to keep-alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0` — connections close unless `Connection: keep-alive`.
    Http10,
    /// `HTTP/1.1` — connections persist unless `Connection: close`.
    Http11,
}

/// A parsed HTTP request.
#[derive(Debug, PartialEq)]
pub struct Request {
    /// Uppercase method, e.g. `GET` / `POST`.
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Protocol version from the request line.
    pub version: HttpVersion,
    /// Lowercased header names with their values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The request path with any query string removed — what routing
    /// matches on (`/metrics?format=json` → `/metrics`).
    pub fn route_path(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// Value of one query parameter. `?a=1&b=2` yields `Some("1")` for
    /// `a`; a bare flag (`?trace`) yields `Some("")`; an absent name
    /// yields `None`. No percent-decoding — the serving API only uses
    /// simple token values.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// True when the connection should close after this exchange.
    /// HTTP/1.1 defaults to keep-alive and closes on `Connection: close`;
    /// HTTP/1.0 defaults to close and persists only on an explicit
    /// `Connection: keep-alive`.
    pub fn wants_close(&self) -> bool {
        match self.version {
            HttpVersion::Http11 => {
                self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
            }
            HttpVersion::Http10 => {
                !self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
            }
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line —
    /// the normal end of a keep-alive session, not an error to report.
    Closed,
    /// A socket read timeout fired before the first byte of a request
    /// arrived: the connection is idle. The caller may retry (keep-alive
    /// poll) or close; no data was consumed.
    Idle,
    /// The bytes did not form a request this server accepts; the payload
    /// is the response to send before closing.
    Bad(Response),
    /// Transport-level failure mid-request.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// The parsed head of a request whose body is still arriving.
struct PendingHead {
    request: Request,
    content_length: usize,
}

/// Incremental request parser over a per-connection byte buffer.
///
/// [`feed`](RequestParser::feed) bytes as the socket yields them, then
/// [`poll`](RequestParser::poll) for complete requests. Leftover bytes
/// after a request stay buffered, so pipelined requests parse one after
/// another with no extra reads. A parse error poisons the connection — the
/// caller writes the error response and closes.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    head: Option<PendingHead>,
    /// How far the search for the head's blank line has got: `buf[..scanned]`
    /// holds no terminator, so bytes that arrive one at a time are each
    /// looked at once, not once per `poll`.
    scanned: usize,
    /// Start of the head line still being scanned.
    line_start: usize,
}

impl RequestParser {
    /// An empty parser for a fresh connection.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when no request is in progress: nothing buffered, no head
    /// awaiting its body. The safe state to idle or close a keep-alive
    /// connection in.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.head.is_none()
    }

    /// Tries to complete one request from the buffered bytes. `Ok(None)`
    /// means more bytes are needed; an `Err` response should be written
    /// back before closing the connection.
    pub fn poll(&mut self) -> Result<Option<Request>, Response> {
        if self.head.is_none() {
            match self.parse_head()? {
                Some(head) => self.head = Some(head),
                None => return Ok(None),
            }
        }
        let ready = self.head.as_ref().is_some_and(|head| self.buf.len() >= head.content_length);
        if !ready {
            return Ok(None);
        }
        let PendingHead { mut request, content_length } = self.head.take().expect("head present");
        request.body = self.buf.drain(..content_length).collect();
        Ok(Some(request))
    }

    /// Parses the request line + headers once the blank line has arrived.
    fn parse_head(&mut self) -> Result<Option<PendingHead>, Response> {
        let Some(head_end) = self.scan_head()? else { return Ok(None) };
        self.scanned = 0;
        self.line_start = 0;
        let head: Vec<u8> = self.buf.drain(..head_end).collect();
        let mut lines = split_head_lines(&head)?;
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
            _ => return Err(Response::text(400, "malformed request line")),
        };
        let version = match version {
            "HTTP/1.1" => HttpVersion::Http11,
            "HTTP/1.0" => HttpVersion::Http10,
            _ => return Err(Response::text(505, "HTTP version not supported")),
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(Response::text(431, "too many headers"));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(Response::text(400, "malformed header"));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = content_length(&headers)?;
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            version,
            headers,
            body: Vec::new(),
        };
        Ok(Some(PendingHead { request, content_length }))
    }

    /// Resumes the search for the blank line that ends the head, from
    /// where the last call stopped. Returns the index just past it once
    /// buffered. Lines end in `\n` with an optional `\r`. The size bounds
    /// are checked as lines go by, so an unfinished head is refused as soon
    /// as it crosses one, and the outcome does not depend on how the bytes
    /// were split across reads.
    fn scan_head(&mut self) -> Result<Option<usize>, Response> {
        let too_long = || Response::text(431, "header line too long");
        while let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + at;
            let line = &self.buf[self.line_start..end];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            self.scanned = end + 1;
            self.line_start = end + 1;
            if line.len() > MAX_HEADER_LINE {
                return Err(too_long());
            }
            if line.is_empty() {
                if end + 1 > MAX_HEAD_BYTES {
                    return Err(Response::text(431, "request head too large"));
                }
                return Ok(Some(end + 1));
            }
        }
        self.scanned = self.buf.len();
        // Not complete yet — but bound how much an unfinished head may
        // buffer, and how long its last line may grow. A trailing `\r` may
        // be the start of the line ending, so it does not count.
        if self.buf.len() > MAX_HEAD_BYTES {
            return Err(Response::text(431, "request head too large"));
        }
        let line = &self.buf[self.line_start..];
        if line.strip_suffix(b"\r").unwrap_or(line).len() > MAX_HEADER_LINE {
            return Err(too_long());
        }
        Ok(None)
    }
}

/// The body length a head declares: `0` without a `Content-Length`. RFC
/// 9112 §6.3 allows only `1*DIGIT`, so a sign, a space or a list is a 400,
/// and so are several `Content-Length` headers that disagree — either
/// reading would frame the body differently.
fn content_length(headers: &[(String, String)]) -> Result<usize, Response> {
    let mut declared: Option<&str> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(Response::text(400, "bad content-length"));
        }
        if declared.is_some_and(|d| d != v) {
            return Err(Response::text(400, "conflicting content-length headers"));
        }
        declared = Some(v);
    }
    // All digits, so the only parse failure is overflow: too large.
    let n = declared.map_or(0, |v| v.parse::<usize>().unwrap_or(usize::MAX));
    if n > MAX_BODY_BYTES {
        return Err(Response::text(413, "request body too large"));
    }
    Ok(n)
}

/// Splits a complete head into `\n`-terminated lines with the `\r`
/// stripped, validating UTF-8 per line.
fn split_head_lines(head: &[u8]) -> Result<impl Iterator<Item = &str>, Response> {
    let text = std::str::from_utf8(head).map_err(|_| Response::text(400, "non-UTF-8 header"))?;
    Ok(text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l)))
}

/// Reads one request from a buffered stream, blocking until it is complete
/// or `deadline` elapses (measured from the request's first byte — an idle
/// wait beforehand does not count). Socket read timeouts that fire
/// mid-request are retried, so a client that pauses between its headers
/// and body is waited for instead of dropped; the deadline bounds how long
/// such a dribble may take end to end.
pub fn read_request_deadline(
    stream: &mut impl BufRead,
    deadline: Duration,
) -> Result<Request, ReadError> {
    let mut parser = RequestParser::new();
    let mut started: Option<Instant> = None;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(request) = parser.poll().map_err(ReadError::Bad)? {
            return Ok(request);
        }
        if started.is_some_and(|t0| t0.elapsed() > deadline) {
            return Err(ReadError::Bad(Response::text(408, "request read deadline expired")));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if parser.is_idle() {
                    return Err(ReadError::Closed);
                }
                return Err(ReadError::Bad(Response::text(400, "truncated request")));
            }
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                parser.feed(&chunk[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if parser.is_idle() {
                    return Err(ReadError::Idle);
                }
                // Mid-request timeout: a slow client, not a dead one —
                // keep reading until the overall deadline says otherwise.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// [`read_request_deadline`] with the default per-request deadline.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, ReadError> {
    read_request_deadline(stream, DEFAULT_READ_DEADLINE)
}

/// An HTTP response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Media type of `body`.
    pub content_type: &'static str,
    /// Response payload.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response (a trailing newline is appended).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response { status, headers: Vec::new(), content_type: "text/plain", body: body.into() }
    }

    /// An `application/json` response from an already-serialized payload.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Overrides the media type (e.g. the Prometheus exposition type on an
    /// otherwise-plain-text body).
    pub fn with_content_type(mut self, content_type: &'static str) -> Response {
        self.content_type = content_type;
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Serializes the response to wire bytes. `close` adds
    /// `Connection: close` so the client stops reusing the socket.
    pub fn to_bytes(&self, close: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Serializes the response onto a stream. `close` adds
    /// `Connection: close` so the client stops reusing the socket.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes(close))?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let r =
            parse("POST /v1/extract HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/extract");
        assert_eq!(r.version, HttpVersion::Http11);
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"abcd");
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_lf_only_lines() {
        let r = parse("GET /healthz HTTP/1.1\nConnection: close\n\n").unwrap();
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
        assert!(r.wants_close());
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive_is_sent() {
        // A bare HTTP/1.0 request closes after the response — the 1.1
        // keep-alive default must not leak onto 1.0 connections.
        let r = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(r.version, HttpVersion::Http10);
        assert!(r.wants_close(), "HTTP/1.0 without keep-alive must close");
        // Explicit keep-alive opts a 1.0 client in.
        let r = parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!r.wants_close());
        // And Connection: close on 1.0 stays closed.
        let r = parse("GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n").unwrap();
        assert!(r.wants_close());
        // HTTP/1.1 still defaults to keep-alive.
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(!r.wants_close());
    }

    #[test]
    fn eof_before_request_is_a_clean_close() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
    }

    #[test]
    fn eof_mid_request_is_a_400() {
        let Err(ReadError::Bad(resp)) = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        else {
            panic!("truncated body must be rejected");
        };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn rejects_garbage_with_400() {
        let Err(ReadError::Bad(resp)) = parse("not an http request\r\n\r\n") else {
            panic!("garbage must be rejected");
        };
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn rejects_unknown_version_with_505() {
        let Err(ReadError::Bad(resp)) = parse("GET / HTTP/2\r\n\r\n") else {
            panic!("unknown version must be rejected");
        };
        assert_eq!(resp.status, 505);
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let Err(ReadError::Bad(resp)) = parse(&raw) else {
            panic!("oversized body must be rejected");
        };
        assert_eq!(resp.status, 413);
    }

    #[test]
    fn incremental_parser_handles_split_and_pipelined_requests() {
        let mut parser = RequestParser::new();
        // Nothing yet: no request, parser idle.
        assert!(parser.poll().unwrap().is_none());
        assert!(parser.is_idle());
        // The head arrives in two fragments, split mid-header.
        parser.feed(b"POST /v1/extract HTTP/1.1\r\nContent-Le");
        assert!(parser.poll().unwrap().is_none());
        assert!(!parser.is_idle());
        parser.feed(b"ngth: 4\r\n\r\n");
        // Head complete, body not yet.
        assert!(parser.poll().unwrap().is_none());
        assert!(!parser.is_idle());
        // Body plus a pipelined second request in one read.
        parser.feed(b"abcdGET /healthz HTTP/1.1\r\n\r\n");
        let first = parser.poll().unwrap().expect("first request");
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"abcd");
        let second = parser.poll().unwrap().expect("pipelined request");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_caps_unfinished_heads() {
        // One endless header line, never terminated: 431 once it passes
        // the line bound, instead of buffering without limit.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\nx-junk: ");
        parser.feed(&vec![b'a'; MAX_HEADER_LINE + 1]);
        let err = parser.poll().expect_err("oversized header line must be rejected");
        assert_eq!(err.status, 431);
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        // RFC 9112 §6.3: `1*DIGIT`. A sign, inner space or list is not a
        // length, however `str::parse` would read it.
        for value in ["+5", "-5", " 5 5", "5,5", "0x5", "5.0"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcde");
            let Err(ReadError::Bad(resp)) = parse(&raw) else {
                panic!("Content-Length {value:?} must be rejected");
            };
            assert_eq!(resp.status, 400, "Content-Length {value:?}");
        }
        let r = parse("POST /x HTTP/1.1\r\nContent-Length: 005\r\n\r\nabcde").unwrap();
        assert_eq!(r.body, b"abcde");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nabcde";
        let Err(ReadError::Bad(resp)) = parse(raw) else {
            panic!("disagreeing Content-Length headers must be rejected");
        };
        assert_eq!(resp.status, 400);
        // Repeats that agree frame the body one way only.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nabcde";
        assert_eq!(parse(raw).unwrap().body, b"abcde");
    }

    #[test]
    fn a_head_dribbled_byte_by_byte_parses_in_linear_time() {
        // A ~30 KiB head, one byte per read with a poll after each — the
        // pattern a readiness loop sees from a slow client. Each poll must
        // resume the scan, not restart it: rescanning the buffer made this
        // about 0.4 s of parser CPU in release on a 2-core x86-64 host;
        // resuming takes under half a millisecond there.
        let mut head = b"POST /v1/extract HTTP/1.1\r\ncontent-length: 2\r\n".to_vec();
        for i in 0..60 {
            head.extend_from_slice(format!("x-pad-{i:02}: {}\r\n", "a".repeat(500)).as_bytes());
        }
        assert!(head.len() > 30 * 1024 && head.len() < MAX_HEAD_BYTES);
        let mut whole = RequestParser::new();
        whole.feed(&head);
        whole.feed(b"\r\n{}");
        let expected = whole.poll().unwrap().expect("one-chunk head parses");

        let mut parser = RequestParser::new();
        let t0 = Instant::now();
        for &b in &head {
            parser.feed(&[b]);
            assert!(parser.poll().unwrap().is_none());
        }
        let elapsed = t0.elapsed();
        parser.feed(b"\r\n{}");
        assert_eq!(parser.poll().unwrap().expect("dribbled head parses"), expected);
        assert!(
            elapsed < Duration::from_millis(40),
            "a byte-by-byte 30 KiB head took {elapsed:?} of parsing"
        );
    }

    /// What a caller sees from one connection's bytes: the requests in
    /// order, then the status of the error that poisoned the parser, if any.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Request(Request),
        Refused(u16),
    }

    /// Feeds `chunks` in order, draining `poll` after each, and stops at
    /// the first error as the server does.
    fn observe<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<Seen> {
        let mut parser = RequestParser::new();
        let mut seen = Vec::new();
        for chunk in chunks {
            parser.feed(chunk);
            loop {
                match parser.poll() {
                    Ok(Some(request)) => seen.push(Seen::Request(request)),
                    Ok(None) => break,
                    Err(resp) => {
                        seen.push(Seen::Refused(resp.status));
                        return seen;
                    }
                }
            }
        }
        seen
    }

    /// Whole requests — valid, malformed and oversized — that the
    /// property concatenates into pipelined streams.
    fn request_pieces() -> Vec<Vec<u8>> {
        let mut pieces: Vec<Vec<u8>> = [
            "GET /healthz HTTP/1.1\r\n\r\n",
            "POST /v1/extract HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd",
            "POST /v1/extract?trace=1 HTTP/1.0\nhost: x\ncontent-length: 0\n\n",
            "GET /metrics HTTP/1.1\r\nConnection: close\r\nX-A:  b \r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nabcde",
            "POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\na",
            "GET / HTTP/2\r\n\r\n",
            "not a request\r\n\r\n",
            "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
            "\r\n",
        ]
        .iter()
        .map(|p| p.as_bytes().to_vec())
        .collect();
        pieces.push(b"GET /\xff HTTP/1.1\r\n\r\n".to_vec());
        let line = "a".repeat(MAX_HEADER_LINE - 3);
        // A header line exactly at the bound, then one byte past it.
        pieces.push(format!("GET / HTTP/1.1\r\nx: {line}\r\n\r\n").into_bytes());
        pieces.push(format!("GET / HTTP/1.1\r\nx: {line}a\r\n\r\n").into_bytes());
        // A head past MAX_HEAD_BYTES made of lines within the line bound.
        let big: String = (0..5).map(|i| format!("x-{i}: {}\r\n", "b".repeat(7000))).collect();
        pieces.push(format!("GET / HTTP/1.1\r\n{big}\r\n").into_bytes());
        pieces
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn parse_results_do_not_depend_on_how_the_bytes_are_split(
            picks in proptest::prop::collection::vec(0usize..16, 1..6),
            noise in proptest::prop::collection::vec(0usize..8, 0..24),
            cuts in proptest::prop::collection::vec(0usize..1 << 20, 0..12),
        ) {
            // Index 15 stands for a run of bytes drawn from the characters
            // HTTP framing turns on.
            let pieces = request_pieces();
            let alphabet = b"G \r\n:a1\xff";
            let mut bytes = Vec::new();
            for &pick in &picks {
                match pieces.get(pick) {
                    Some(piece) => bytes.extend_from_slice(piece),
                    None => bytes.extend(noise.iter().map(|&i| alphabet[i])),
                }
            }
            let whole = observe([bytes.as_slice()]);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.push(bytes.len());
            let mut start = 0;
            let split = observe(cuts.iter().map(|&end| {
                let chunk = &bytes[start..end];
                start = end;
                chunk
            }));
            proptest::prop_assert_eq!(&split, &whole);
            proptest::prop_assert_eq!(&observe(bytes.chunks(1)), &whole);
        }
    }

    #[test]
    fn query_strings_split_off_the_route_path() {
        let r = parse("GET /metrics?format=json&trace HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.route_path(), "/metrics");
        assert_eq!(r.query_param("format"), Some("json"));
        assert_eq!(r.query_param("trace"), Some(""));
        assert_eq!(r.query_param("missing"), None);
        let plain = parse("GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(plain.route_path(), "/metrics");
        assert_eq!(plain.query_param("format"), None);
    }

    #[test]
    fn response_serializes_with_headers() {
        let mut out = Vec::new();
        Response::text(429, "busy")
            .with_header("retry-after", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy\n"));
    }
}
