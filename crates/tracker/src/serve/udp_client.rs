//! Blocking BEP 15 (UDP tracker) client: connect handshake plus
//! announce or scrape, with the BEP 15 retransmit schedule (resend after
//! `base · 2^n` seconds).
//!
//! OpenBitTorrent — the tracker behind most of the paper's swarms —
//! served announces primarily over UDP. The daemon's UDP front end
//! ([`super::ServeDaemon`]) answers what this client sends, and the load
//! generator's single-announce mode uses its handshake.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};

use btpub_faults::NetConfig;
use btpub_proto::tracker::{AnnounceEvent, ScrapeEntry};
use btpub_proto::types::{InfoHash, PeerId};
use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};

/// Outcome of a UDP announce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpAnnounceOutcome {
    /// Re-announce interval.
    pub interval: u32,
    /// Leecher count.
    pub leechers: u32,
    /// Seeder count.
    pub seeders: u32,
    /// Peer sample.
    pub peers: Vec<SocketAddrV4>,
}

/// One request/response round with the BEP 15 retransmit ladder: the
/// datagram is (re)sent up to `net.udp_retransmits + 1` times, waiting
/// `net.udp_timeout(n)` for the reply of attempt `n`. A lost request
/// or reply therefore costs one doubled timeout, not the whole call.
pub fn exchange_with(
    socket: &UdpSocket,
    to: SocketAddr,
    req: &UdpRequest,
    net: &NetConfig,
) -> std::io::Result<UdpResponse> {
    let encoded = req.encode();
    let mut buf = [0u8; 2048];
    let mut last_err = None;
    for n in 0..=net.udp_retransmits {
        socket.set_read_timeout(Some(net.udp_timeout(n)))?;
        socket.send_to(&encoded, to)?;
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                if n > 0 {
                    btpub_obs::static_counter!("tracker.udp.client.retransmits").inc();
                }
                return UdpResponse::decode(&buf[..len]).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                });
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    btpub_obs::static_counter!("tracker.udp.client.gaveup").inc();
    Err(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::TimedOut, "udp tracker unresponsive")
    }))
}

/// Performs the connect handshake, returning the connection id.
pub fn connect(
    socket: &UdpSocket,
    tracker: SocketAddr,
    transaction_id: u32,
) -> std::io::Result<u64> {
    connect_with(socket, tracker, transaction_id, &NetConfig::default())
}

/// [`connect`] with explicit retransmit parameters.
pub fn connect_with(
    socket: &UdpSocket,
    tracker: SocketAddr,
    transaction_id: u32,
    net: &NetConfig,
) -> std::io::Result<u64> {
    match exchange_with(
        socket,
        tracker,
        &UdpRequest::Connect { transaction_id },
        net,
    )? {
        UdpResponse::Connect {
            transaction_id: tid,
            connection_id,
        } if tid == transaction_id => Ok(connection_id),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected connect reply {other:?}"),
        )),
    }
}

/// Connect + announce in one call, with default retransmit parameters.
#[allow(clippy::too_many_arguments)]
pub fn announce(
    tracker: SocketAddr,
    info_hash: InfoHash,
    peer_id: PeerId,
    port: u16,
    left: u64,
    event: AnnounceEvent,
    num_want: u32,
) -> std::io::Result<UdpAnnounceOutcome> {
    announce_with(
        tracker,
        info_hash,
        peer_id,
        port,
        left,
        event,
        num_want,
        &NetConfig::default(),
    )
}

/// [`announce`] with explicit retransmit parameters.
#[allow(clippy::too_many_arguments)]
pub fn announce_with(
    tracker: SocketAddr,
    info_hash: InfoHash,
    peer_id: PeerId,
    port: u16,
    left: u64,
    event: AnnounceEvent,
    num_want: u32,
    net: &NetConfig,
) -> std::io::Result<UdpAnnounceOutcome> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let connection_id = connect_with(&socket, tracker, 0x1234, net)?;
    let req = UdpRequest::Announce {
        connection_id,
        transaction_id: 0x5678,
        info_hash,
        peer_id,
        downloaded: 0,
        left,
        uploaded: 0,
        event,
        num_want,
        port,
    };
    match exchange_with(&socket, tracker, &req, net)? {
        UdpResponse::Announce {
            transaction_id: 0x5678,
            interval,
            leechers,
            seeders,
            peers,
        } => Ok(UdpAnnounceOutcome {
            interval,
            leechers,
            seeders,
            peers,
        }),
        UdpResponse::Error { message, .. } => Err(std::io::Error::other(message)),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected announce reply {other:?}"),
        )),
    }
}

/// Connect + scrape in one call, with default retransmit parameters.
pub fn scrape(
    tracker: SocketAddr,
    info_hashes: Vec<InfoHash>,
) -> std::io::Result<Vec<ScrapeEntry>> {
    scrape_with(tracker, info_hashes, &NetConfig::default())
}

/// [`scrape`] with explicit retransmit parameters.
pub fn scrape_with(
    tracker: SocketAddr,
    info_hashes: Vec<InfoHash>,
    net: &NetConfig,
) -> std::io::Result<Vec<ScrapeEntry>> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let connection_id = connect_with(&socket, tracker, 0x9999, net)?;
    let req = UdpRequest::Scrape {
        connection_id,
        transaction_id: 0xAAAA,
        info_hashes,
    };
    match exchange_with(&socket, tracker, &req, net)? {
        UdpResponse::Scrape { entries, .. } => Ok(entries),
        UdpResponse::Error { message, .. } => Err(std::io::Error::other(message)),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected scrape reply {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn client_retransmits_against_unresponsive_tracker() {
        // A bound socket that never answers: the client must walk the
        // whole BEP 15 ladder (base, 2·base, 4·base with two retransmits)
        // and then time out — not hang on one infinite read.
        let dead = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let net = NetConfig::loopback_test();
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let started = Instant::now();
        let err = exchange_with(
            &socket,
            dead.local_addr().unwrap(),
            &UdpRequest::Connect { transaction_id: 7 },
            &net,
        )
        .unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ));
        // Ladder total = 40 + 80 + 160 ms = 280 ms.
        let ladder: Duration = (0..=net.udp_retransmits).map(|n| net.udp_timeout(n)).sum();
        assert!(elapsed >= ladder, "gave up early: {elapsed:?} < {ladder:?}");
        assert!(
            elapsed < ladder * 4,
            "did not time out promptly: {elapsed:?}"
        );
    }

    #[test]
    fn client_recovers_when_first_datagram_is_lost() {
        // A tracker that ignores the first datagram and answers the
        // retransmit: the call succeeds instead of erroring.
        let lossy = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let tracker_addr = lossy.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            // Swallow the first request.
            let _ = lossy.recv_from(&mut buf).unwrap();
            // Answer the retransmit.
            let (len, from) = lossy.recv_from(&mut buf).unwrap();
            if let Ok(UdpRequest::Connect { transaction_id }) = UdpRequest::decode(&buf[..len]) {
                let reply = UdpResponse::Connect {
                    transaction_id,
                    connection_id: 42,
                };
                lossy.send_to(&reply.encode(), from).unwrap();
            }
        });
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let net = NetConfig::loopback_test();
        let cid = connect_with(&socket, tracker_addr, 9, &net).unwrap();
        assert_eq!(cid, 42);
        handle.join().unwrap();
    }
}
