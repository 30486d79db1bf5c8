//! Blocking HTTP tracker client.

use std::io;
use std::net::{SocketAddr, TcpStream};

use btpub_faults::NetConfig;
use btpub_proto::tracker::{AnnounceRequest, AnnounceResponse, ScrapeResponse};
use btpub_proto::types::InfoHash;
use btpub_proto::urlencode;

use crate::http;

/// Parses `http://host:port/path` into `(addr, path)`.
///
/// Only the literal `host:port` form is supported — there is no DNS in the
/// testbed.
pub fn parse_tracker_url(url: &str) -> io::Result<(SocketAddr, String)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "expected http:// URL"))?;
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_string()),
        None => (rest, "/".to_string()),
    };
    let addr: SocketAddr = host
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "expected host:port"))?;
    Ok((addr, path))
}

/// Derives the scrape path from an announce path per BEP 48: the rewrite
/// applies only when the *final* path segment starts with `announce`, and
/// replaces just that prefix. Returns `None` when the tracker's URL shape
/// means it does not support scrape.
///
/// A naive `path.replace("/announce", "/scrape")` rewrites *every*
/// occurrence, so `/announce/announce` would become `/scrape/scrape`
/// (the correct derivation is `/announce/scrape`) and a path like
/// `/announced/feed` would be mangled mid-segment.
pub fn scrape_path(announce_path: &str) -> Option<String> {
    let cut = announce_path.rfind('/')?;
    let (dir, last) = announce_path.split_at(cut + 1);
    let rest = last.strip_prefix("announce")?;
    // "announce" must be the whole word: `/announce.php` is an announce
    // endpoint, `/announced` is not.
    if rest.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    Some(format!("{dir}scrape{rest}"))
}

/// [`scrape_path`], with an unscrapable URL shape as an
/// [`Unsupported`](io::ErrorKind::Unsupported) error.
fn scrape_target(announce_path: &str) -> io::Result<String> {
    scrape_path(announce_path).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "tracker URL does not support scrape",
        )
    })
}

/// A keep-alive HTTP tracker session: one TCP connection carrying any
/// number of announce/scrape exchanges (HTTP/1.1 with exact
/// `Content-Length` framing on both sides). The serving daemon's load
/// drivers run a whole campaign's worth of announces through one of
/// these instead of paying a connect per announce.
pub struct HttpSession {
    stream: TcpStream,
    reader: io::BufReader<TcpStream>,
    announce_path: String,
}

impl HttpSession {
    /// Connects to the tracker behind `announce_url`.
    pub fn connect(announce_url: &str, net: &NetConfig) -> io::Result<HttpSession> {
        let (addr, path) = parse_tracker_url(announce_url)?;
        let stream = TcpStream::connect_timeout(&addr, net.connect_timeout)?;
        stream.set_read_timeout(Some(net.read_timeout))?;
        stream.set_write_timeout(Some(net.write_timeout))?;
        let reader = io::BufReader::new(stream.try_clone()?);
        Ok(HttpSession {
            stream,
            reader,
            announce_path: path,
        })
    }

    /// Issues one `GET` and returns the response body. `target` is the
    /// path plus optional query string (e.g. `/announce?...`).
    pub fn get(&mut self, target: &str) -> io::Result<Vec<u8>> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: tracker\r\n\r\n");
        io::Write::write_all(&mut self.stream, request.as_bytes())?;
        http::read_response_from(&mut self.reader)
    }

    /// Writes raw bytes to the underlying stream — the load generator
    /// uses this to send deliberately garbled requests.
    pub fn raw_write(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.stream, bytes)
    }

    /// Sends an announce over the session, with `extra` query parameters
    /// appended verbatim (the serving plane's logical-clock transport —
    /// see [`crate::serve`] — rides in here; pass `""` for none).
    pub fn announce(
        &mut self,
        req: &AnnounceRequest,
        extra: &str,
    ) -> io::Result<AnnounceResponse> {
        let path = self.announce_path.clone();
        let body = self.get(&format!("{path}?{}{extra}", req.to_query()))?;
        AnnounceResponse::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Scrapes counters for the given torrents over the session.
    pub fn scrape(&mut self, torrents: &[InfoHash]) -> io::Result<ScrapeResponse> {
        let path = scrape_target(&self.announce_path)?;
        let query: String = torrents
            .iter()
            .map(|ih| format!("info_hash={}", urlencode::encode(&ih.0)))
            .collect::<Vec<_>>()
            .join("&");
        let body = self.get(&format!("{path}?{query}"))?;
        ScrapeResponse::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Sends an announce to `announce_url` and parses the reply, using the
/// default [`NetConfig`] timeouts.
pub fn announce(announce_url: &str, req: &AnnounceRequest) -> io::Result<AnnounceResponse> {
    announce_with(announce_url, req, &NetConfig::default())
}

/// Sends an announce to `announce_url` with explicit socket timeouts,
/// over a one-exchange [`HttpSession`].
pub fn announce_with(
    announce_url: &str,
    req: &AnnounceRequest,
    net: &NetConfig,
) -> io::Result<AnnounceResponse> {
    HttpSession::connect(announce_url, net)?.announce(req, "")
}

/// Scrapes counters for the given torrents, using the default
/// [`NetConfig`] timeouts. The scrape URL is derived from the announce URL
/// by the conventional final-segment `announce` → `scrape` rewrite.
pub fn scrape(announce_url: &str, torrents: &[InfoHash]) -> io::Result<ScrapeResponse> {
    scrape_with(announce_url, torrents, &NetConfig::default())
}

/// Scrapes counters for the given torrents with explicit socket timeouts,
/// over a one-exchange [`HttpSession`]. An unscrapable URL is refused
/// before anything is dialed.
pub fn scrape_with(
    announce_url: &str,
    torrents: &[InfoHash],
    net: &NetConfig,
) -> io::Result<ScrapeResponse> {
    scrape_target(&parse_tracker_url(announce_url)?.1)?;
    HttpSession::connect(announce_url, net)?.scrape(torrents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing() {
        let (addr, path) = parse_tracker_url("http://127.0.0.1:8080/announce").unwrap();
        assert_eq!(addr.port(), 8080);
        assert_eq!(path, "/announce");
        assert!(parse_tracker_url("udp://127.0.0.1:1/x").is_err());
        assert!(parse_tracker_url("http://nodns.example/announce").is_err());
        let (_, path) = parse_tracker_url("http://127.0.0.1:80").unwrap();
        assert_eq!(path, "/");
    }

    #[test]
    fn scrape_path_rewrites_only_final_segment() {
        assert_eq!(scrape_path("/announce").as_deref(), Some("/scrape"));
        // Passkey-style trackers keep the suffix.
        assert_eq!(
            scrape_path("/abc123/announce").as_deref(),
            Some("/abc123/scrape")
        );
        assert_eq!(
            scrape_path("/announce.php").as_deref(),
            Some("/scrape.php")
        );
        // Only the last segment is rewritten — the old `replace` turned
        // this into "/scrape/scrape".
        assert_eq!(
            scrape_path("/announce/announce").as_deref(),
            Some("/announce/scrape")
        );
        assert_eq!(
            scrape_path("/announce/announce-proxy").as_deref(),
            Some("/announce/scrape-proxy")
        );
    }

    #[test]
    fn scrape_path_none_when_unsupported() {
        // Final segment not starting with "announce" → no scrape support.
        assert_eq!(scrape_path("/"), None);
        assert_eq!(scrape_path("/tracker"), None);
        assert_eq!(scrape_path("/announce/feed"), None);
        // Mid-segment "announce" must not be touched.
        assert_eq!(scrape_path("/announced"), None);
        assert_eq!(scrape_path("/x-announce"), None);
    }

    #[test]
    fn scrape_with_unsupported_url_errors_cleanly() {
        let err = scrape(
            "http://127.0.0.1:1/tracker",
            &[InfoHash([0u8; 20])],
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }
}
