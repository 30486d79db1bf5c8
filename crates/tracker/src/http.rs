//! A deliberately tiny HTTP subset — just enough for the tracker's
//! `GET /announce?…` and `GET /scrape?…` endpoints. 2010-era trackers
//! spoke HTTP/1.0 one-shot; the serving daemon ([`crate::serve`]) needs
//! keep-alive and pipelining, so requests are framed incrementally
//! (headers + `Content-Length` bodies) and responses always carry an
//! exact `Content-Length`, letting any number of exchanges share one
//! connection.

use std::io::{BufRead, Read, Write};

/// Most bytes a request's header section, and separately its body, may
/// take. Tracker requests are GETs whose body is empty, so a declared
/// body past this is hostile and refused before any byte of it is
/// buffered.
pub const MAX_HEAD: usize = 16 * 1024;

/// Most bytes a response body may declare (64 MiB: room for a daemon's
/// `/snapshot` of a large script). A longer `Content-Length` is refused
/// before anything is allocated for it.
pub const MAX_RESPONSE_BODY: usize = 64 << 20;

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Path without the query string (e.g. `/announce`).
    pub path: String,
    /// Raw query string (no leading `?`), possibly empty.
    pub query: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, or an explicit `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// Attempts to parse one complete request from the front of `buf`
/// without consuming from a stream — for non-blocking sockets that
/// accumulate bytes into per-connection buffers. Pipelined requests
/// parse one at a time: the returned length is where the next begins.
///
/// Returns `Ok(Some((request, consumed)))` when a whole request
/// (headers plus any `Content-Length` body, which is skipped) is
/// present, `Ok(None)` when more bytes are needed, and an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error for garbage:
/// non-GET, no HTTP request line, a header section or a declared body
/// past [`MAX_HEAD`].
pub fn try_parse_request(buf: &[u8]) -> std::io::Result<Option<(Request, usize)>> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) if i <= MAX_HEAD => i,
        Some(_) => return Err(invalid("header section too large")),
        None if buf.len() > MAX_HEAD => return Err(invalid("header section too large")),
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/") {
        return Err(invalid("not an HTTP request line"));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            }
        }
    }
    // Bounded before it is added, so the sum cannot overflow and a
    // connection cannot be made to buffer without limit.
    if content_length > MAX_HEAD {
        return Err(invalid("request body too large"));
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None); // body still in flight
    }
    if method != "GET" {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unsupported method {method:?}"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Some((
        Request {
            path,
            query,
            keep_alive,
        },
        total,
    )))
}

/// Writes a `200 OK` response with a binary body. The exact
/// `Content-Length` makes the response self-framing, so keep-alive
/// clients know precisely where the next pipelined response begins.
pub fn write_ok<W: Write>(mut stream: W, body: &[u8]) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes an error response. Errors end the conversation, so the
/// connection is marked for close.
pub fn write_error<W: Write>(mut stream: W, code: u16, reason: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )?;
    stream.flush()
}

/// Reads one response from a buffered stream, returning the body on 200
/// or an error otherwise. Stops exactly at `Content-Length`, so a
/// keep-alive client can call this repeatedly on the same reader. A body
/// past [`MAX_RESPONSE_BODY`], declared or read to EOF, is an
/// [`InvalidData`](std::io::ErrorKind::InvalidData) error, and the
/// buffer grows only with bytes that actually arrive.
pub fn read_response_from<R: BufRead>(reader: &mut R) -> std::io::Result<Vec<u8>> {
    let mut status = String::new();
    reader.read_line(&mut status)?;
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    if content_length.is_some_and(|len| len > MAX_RESPONSE_BODY) {
        return Err(invalid("response body too large"));
    }
    let limit = content_length.unwrap_or(MAX_RESPONSE_BODY + 1);
    let mut body = Vec::with_capacity(limit.min(64 << 10));
    reader.take(limit as u64).read_to_end(&mut body)?;
    match content_length {
        Some(len) if body.len() < len => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "response body cut short",
            ))
        }
        None if body.len() > MAX_RESPONSE_BODY => return Err(invalid("response body too large")),
        _ => {}
    }
    if code != 200 {
        return Err(std::io::Error::other(format!("HTTP {code}")));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Parses one whole request off the front of `raw`.
    fn parse(raw: &[u8]) -> (Request, usize) {
        try_parse_request(raw).unwrap().expect("a whole request")
    }

    #[test]
    fn parses_get_with_query() {
        let raw = b"GET /announce?a=1&b=2 HTTP/1.0\r\nHost: x\r\nUser-Agent: t\r\n\r\n";
        let (req, _) = parse(raw);
        assert_eq!(req.path, "/announce");
        assert_eq!(req.query, "a=1&b=2");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn parses_get_without_query() {
        let raw = b"GET /scrape HTTP/1.1\r\n\r\n";
        let (req, _) = parse(raw);
        assert_eq!(req.path, "/scrape");
        assert_eq!(req.query, "");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!parse(raw).0.keep_alive);
        let raw = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        assert!(parse(raw).0.keep_alive);
    }

    #[test]
    fn rejects_post() {
        let raw = b"POST /announce HTTP/1.0\r\n\r\n";
        assert!(try_parse_request(raw).is_err());
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"GET /a?x=1 HTTP/1.1\r\n\r\nGET /b?y=2 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, used) = parse(raw);
        assert_eq!((first.path.as_str(), first.query.as_str()), ("/a", "x=1"));
        assert!(first.keep_alive);
        let (second, used2) = parse(&raw[used..]);
        assert_eq!((second.path.as_str(), second.query.as_str()), ("/b", "y=2"));
        assert!(!second.keep_alive);
        // Clean end: nothing left, nothing pending.
        assert_eq!(used + used2, raw.len());
        assert!(try_parse_request(&raw[used + used2..]).unwrap().is_none());
    }

    #[test]
    fn request_body_is_drained_for_framing() {
        // A body between two pipelined requests must not desynchronise
        // the parser.
        let raw = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n";
        let (first, used) = parse(raw);
        assert_eq!(first.path, "/a");
        assert_eq!(parse(&raw[used..]).0.path, "/b");
    }

    #[test]
    fn try_parse_rejects_overflowing_content_length() {
        // `head + 4 + length` would overflow usize: a typed error, not a
        // panic.
        let raw = format!(
            "GET /a HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            usize::MAX - 2
        );
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn try_parse_rejects_oversized_body_instead_of_waiting() {
        // A large but representable length must not leave the request
        // pending while the connection buffers without limit.
        let raw = format!(
            "GET /a HTTP/1.1\r\nContent-Length: {}\r\n\r\nxx",
            1u64 << 30
        );
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A body up to the cap still waits for its bytes.
        let raw = format!("GET /a HTTP/1.1\r\nContent-Length: {MAX_HEAD}\r\n\r\nxx");
        assert!(try_parse_request(raw.as_bytes()).unwrap().is_none());
    }

    #[test]
    fn try_parse_handles_partial_and_pipelined() {
        let wire = b"GET /a?x=1 HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        // Byte-by-byte arrival: no prefix short of the full head parses.
        for cut in 0..31 {
            assert!(try_parse_request(&wire[..cut]).unwrap().is_none(), "cut={cut}");
        }
        let (first, used) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!((first.path.as_str(), first.query.as_str()), ("/a", "x=1"));
        let (second, used2) = try_parse_request(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn try_parse_waits_for_declared_body() {
        let wire = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        assert!(try_parse_request(wire).unwrap().is_none(), "body incomplete");
        let full = b"GET /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let (_, used) = try_parse_request(full).unwrap().unwrap();
        assert_eq!(used, full.len());
    }

    #[test]
    fn try_parse_rejects_garbage() {
        assert!(try_parse_request(b"\xff\xff\xff\xff garbage\r\n\r\n").is_err());
        assert!(try_parse_request(b"POST /a HTTP/1.1\r\n\r\n").is_err());
        // An unterminated flood of header bytes errors out instead of
        // buffering forever.
        let flood = vec![b'A'; 20 * 1024];
        assert!(try_parse_request(&flood).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_ok(&mut wire, b"d8:intervali900ee").unwrap();
        let body = read_response_from(&mut &wire[..]).unwrap();
        assert_eq!(body, b"d8:intervali900ee");
    }

    #[test]
    fn pipelined_responses_frame_by_content_length() {
        let mut wire = Vec::new();
        write_ok(&mut wire, b"first").unwrap();
        write_ok(&mut wire, b"second").unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_response_from(&mut reader).unwrap(), b"first");
        assert_eq!(read_response_from(&mut reader).unwrap(), b"second");
    }

    #[test]
    fn error_response_surfaces_code() {
        let mut wire = Vec::new();
        write_error(&mut wire, 404, "Not Found").unwrap();
        let err = read_response_from(&mut &wire[..]).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn response_body_past_cap_is_refused() {
        // One hostile Content-Length must not become one huge allocation.
        for len in [MAX_RESPONSE_BODY + 1, usize::MAX] {
            let wire = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\nshort");
            let err = read_response_from(&mut wire.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len={len}");
        }
        // A body cut short of its declared length is an EOF, not a hang.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        let err = read_response_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_bodies_survive() {
        let body: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let mut wire = Vec::new();
        write_ok(&mut wire, &body).unwrap();
        assert_eq!(read_response_from(&mut &wire[..]).unwrap(), body);
    }
}
