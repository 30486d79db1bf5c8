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

/// One request/response round with the BEP 15 retransmit ladder (see
/// `exchange_raw`): a lost request or reply costs one doubled
/// timeout, not the whole call, and a stale reply to an earlier
/// transaction is skipped rather than taken for this one's.
pub fn exchange_with(
    socket: &UdpSocket,
    to: SocketAddr,
    req: &UdpRequest,
    net: &NetConfig,
) -> std::io::Result<UdpResponse> {
    let mut buf = [0u8; 2048];
    let reply = exchange_raw(
        socket,
        to,
        &req.encode(),
        bep15_txn,
        req.transaction_id(),
        net,
        &mut buf,
    )?;
    let Some((len, attempt)) = reply else {
        btpub_obs::static_counter!("tracker.udp.client.gaveup").inc();
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "udp tracker unresponsive",
        ));
    };
    if attempt > 0 {
        btpub_obs::static_counter!("tracker.udp.client.retransmits").inc();
    }
    UdpResponse::decode(&buf[..len])
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Sends `datagram` and waits for a reply whose transaction id, as read
/// by `txn_of`, is `want_txn`. The datagram is (re)sent up to
/// `net.udp_retransmits + 1` times, waiting `net.udp_timeout(n)` for a
/// reply to attempt `n`; replies to other transactions (a duplicate
/// answer to an earlier, retransmitted request) are skipped inside the
/// same attempt window. Returns the reply's length in `buf` and the
/// attempt that got it, or `None` once the ladder is spent.
pub(crate) fn exchange_raw(
    socket: &UdpSocket,
    to: SocketAddr,
    datagram: &[u8],
    txn_of: impl Fn(&[u8]) -> Option<u32>,
    want_txn: u32,
    net: &NetConfig,
    buf: &mut [u8],
) -> std::io::Result<Option<(usize, u32)>> {
    for n in 0..=net.udp_retransmits {
        socket.set_read_timeout(Some(net.udp_timeout(n)))?;
        socket.send_to(datagram, to)?;
        loop {
            match socket.recv_from(buf) {
                Ok((len, _)) => {
                    if txn_of(&buf[..len]) == Some(want_txn) {
                        return Ok(Some((len, n)));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(None)
}

/// Transaction id of a BEP 15 response. A corrupted (malformed) reply
/// has no parseable id, so it never matches a transaction.
pub(crate) fn bep15_txn(data: &[u8]) -> Option<u32> {
    UdpResponse::decode(data).ok().map(|r| r.transaction_id())
}

/// Performs the connect handshake, returning the connection id.
pub fn connect(
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

/// Connect + announce in one call.
#[allow(clippy::too_many_arguments)]
pub fn announce(
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
    let connection_id = connect(&socket, tracker, 0x1234, net)?;
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

/// Connect + scrape in one call.
pub fn scrape(
    tracker: SocketAddr,
    info_hashes: Vec<InfoHash>,
    net: &NetConfig,
) -> std::io::Result<Vec<ScrapeEntry>> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let connection_id = connect(&socket, tracker, 0x9999, net)?;
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
        let cid = connect(&socket, tracker_addr, 9, &net).unwrap();
        assert_eq!(cid, 42);
        handle.join().unwrap();
    }

    #[test]
    fn duplicated_connect_reply_does_not_poison_the_announce() {
        // A tracker that loses the first connect and answers the
        // retransmit twice: the second connect reply is still queued on
        // the client's socket when the announce goes out, and must be
        // skipped as a stale transaction, not read as the announce reply.
        let tracker = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        tracker.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let tracker_addr = tracker.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let mut connects = 0;
            loop {
                let (len, from) = tracker.recv_from(&mut buf).unwrap();
                match UdpRequest::decode(&buf[..len]).unwrap() {
                    UdpRequest::Connect { transaction_id } => {
                        connects += 1;
                        if connects == 1 {
                            continue;
                        }
                        let reply = UdpResponse::Connect {
                            transaction_id,
                            connection_id: 42,
                        }
                        .encode();
                        tracker.send_to(&reply, from).unwrap();
                        tracker.send_to(&reply, from).unwrap();
                    }
                    UdpRequest::Announce {
                        connection_id,
                        transaction_id,
                        ..
                    } => {
                        assert_eq!(connection_id, 42);
                        let reply = UdpResponse::Announce {
                            transaction_id,
                            interval: 1800,
                            leechers: 3,
                            seeders: 1,
                            peers: Vec::new(),
                        };
                        tracker.send_to(&reply.encode(), from).unwrap();
                        return;
                    }
                    other => panic!("unexpected request {other:?}"),
                }
            }
        });
        let out = announce(
            tracker_addr,
            InfoHash([7; 20]),
            PeerId([1; 20]),
            6881,
            0,
            AnnounceEvent::Started,
            50,
            &NetConfig::loopback_test(),
        )
        .unwrap();
        assert_eq!((out.interval, out.leechers, out.seeders), (1800, 3, 1));
        handle.join().unwrap();
    }
}
