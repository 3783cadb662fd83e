//! The load generator's side of the wire: nonblocking keep-alive
//! connections that pipeline requests, an incremental HTTP/1.1 response
//! parser, and a `ppoll(2)` wait so one thread can sleep until a socket is
//! ready or the next request is due, without busy-polling the host's
//! cores away from the server.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Builds the exact bytes of one `POST /v1/extract` request.
pub fn extract_request(text: &str) -> (Vec<u8>, String) {
    let body = serde_json::to_string(&serde::Value::Object(vec![(
        "text".to_string(),
        serde::Value::Str(text.to_string()),
    )]))
    .expect("a string object always serializes");
    let head = format!(
        "POST /v1/extract HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    (bytes, body)
}

/// One complete response cut from the front of a receive buffer.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Bytes of the buffer the response occupied.
    pub consumed: usize,
}

/// Parses one response from the front of `buf`: `Ok(None)` while it is
/// incomplete, `Err` when the bytes cannot be an HTTP/1.1 response with a
/// `content-length` body (the only framing the server emits).
pub fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 64 * 1024 { Err("response head too long".into()) } else { Ok(None) };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    if parts.next() != Some("HTTP/1.1") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| format!("bad header {line:?}"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            length =
                Some(value.trim().parse::<usize>().map_err(|_| format!("bad length {value:?}"))?);
        }
    }
    let length = length.ok_or("response without content-length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some(Parsed { status, body: buf[start..start + length].to_vec(), consumed: start + length }))
}

/// A nonblocking keep-alive connection with requests in flight.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Request ids awaiting a response, in send order.
    pub outstanding: VecDeque<usize>,
    /// Set when the peer closed the connection or the stream errored.
    pub broken: Option<String>,
}

impl Conn {
    /// Connects and switches the socket to nonblocking mode.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            outstanding: VecDeque::new(),
            broken: None,
        })
    }

    /// Queues a request and writes as much as the socket takes.
    pub fn send(&mut self, id: usize, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.outstanding.push_back(id);
        self.flush();
    }

    /// Writes buffered request bytes until the socket would block.
    pub fn flush(&mut self) {
        while !self.out.is_empty() && self.broken.is_none() {
            match self.stream.write(&self.out) {
                Ok(0) => self.broken = Some("write returned 0".into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => self.broken = Some(format!("write: {e}")),
            }
        }
    }

    /// Reads what the socket holds and returns every completed response
    /// with the id of the request it answers (responses arrive in request
    /// order). A framing error marks the connection broken.
    pub fn receive(&mut self) -> Vec<(usize, Parsed)> {
        let mut chunk = [0u8; 16 * 1024];
        while self.broken.is_none() {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.broken = Some("peer closed the connection".into()),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => self.broken = Some(format!("read: {e}")),
            }
        }
        let mut done = Vec::new();
        let mut at = 0;
        loop {
            match parse_response(&self.inbuf[at..]) {
                Ok(Some(parsed)) => {
                    at += parsed.consumed;
                    match self.outstanding.pop_front() {
                        Some(id) => done.push((id, parsed)),
                        None => {
                            self.broken = Some("response without a request".into());
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.broken = Some(e);
                    break;
                }
            }
        }
        self.inbuf.drain(..at);
        done
    }

    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Sleeps until a connection is readable (or writable, when it has bytes
/// queued) or `until` passes, with nanosecond timeout resolution.
pub fn wait(conns: &[Conn], until: Instant) {
    let timeout = until.saturating_duration_since(Instant::now()).min(Duration::from_secs(1));
    let mut fds: Vec<PollFd> = conns
        .iter()
        .filter(|c| c.broken.is_none())
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.wants_write() { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`s (same layout: int, short, short), `ts` outlives
    // the call and matches `struct timespec` on 64-bit Linux, and a null
    // sigmask leaves the signal mask unchanged. An error return (EINTR)
    // only shortens the wait; callers re-check every socket.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, &ts, std::ptr::null());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_incrementally() {
        let one = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\nx-trace-id: 7\r\n\r\n{}";
        let two = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 4\r\n\r\nbusy";
        let mut buf = one.to_vec();
        buf.extend_from_slice(two);
        let first = parse_response(&buf).unwrap().unwrap();
        assert_eq!(
            (first.status, first.body.as_slice(), first.consumed),
            (200, &b"{}"[..], one.len())
        );
        let second = parse_response(&buf[first.consumed..]).unwrap().unwrap();
        assert_eq!((second.status, second.body.as_slice()), (429, &b"busy"[..]));
        for cut in 0..one.len() {
            assert_eq!(parse_response(&one[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn rejects_unframed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"SMTP 200 OK\r\ncontent-length: 0\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc OK\r\ncontent-length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn request_bytes_are_framed_json() {
        let (bytes, body) = extract_request("Ann said \"hi\" .");
        assert_eq!(body, r#"{"text":"Ann said \"hi\" ."}"#);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/extract HTTP/1.1\r\n"));
        assert!(text.ends_with(&format!("content-length: {}\r\n\r\n{body}", body.len())));
    }
}
