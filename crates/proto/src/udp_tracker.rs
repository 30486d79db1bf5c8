//! The UDP tracker protocol (BEP 15).
//!
//! The OpenBitTorrent tracker the paper crawled served most of its load
//! over UDP: a stateless, 16-byte-header protocol with a connection-id
//! handshake to prevent source-address spoofing. Packet layouts (all
//! integers big-endian):
//!
//! ```text
//! connect  req: protocol_id(8)=0x41727101980 action(4)=0 transaction(4)
//! connect  rsp: action(4)=0 transaction(4) connection_id(8)
//! announce req: connection_id(8) action(4)=1 transaction(4) info_hash(20)
//!               peer_id(20) downloaded(8) left(8) uploaded(8) event(4)
//!               ip(4) key(4) num_want(4) port(2)
//! announce rsp: action(4)=1 transaction(4) interval(4) leechers(4)
//!               seeders(4) peers(6 each)
//! scrape   req: connection_id(8) action(4)=2 transaction(4) hashes(20 each)
//! scrape   rsp: action(4)=2 transaction(4) [seeders(4) completed(4) leechers(4)]*
//! error    rsp: action(4)=3 transaction(4) message(utf-8)
//! ```

use std::net::SocketAddrV4;

use crate::compact;
use crate::tracker::{AnnounceEvent, ScrapeEntry};
use crate::types::{InfoHash, PeerId};

/// The magic protocol id of a connect request.
pub const PROTOCOL_ID: u64 = 0x0417_2710_1980;

/// Action codes.
pub mod action {
    /// Connect handshake.
    pub const CONNECT: u32 = 0;
    /// Announce.
    pub const ANNOUNCE: u32 = 1;
    /// Scrape.
    pub const SCRAPE: u32 = 2;
    /// Error.
    pub const ERROR: u32 = 3;
}

/// Any request a UDP tracker can receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpRequest {
    /// Connection-id handshake.
    Connect {
        /// Client-chosen transaction id, echoed in the response.
        transaction_id: u32,
    },
    /// An announce under an established connection id.
    Announce {
        /// The id issued by a prior connect.
        connection_id: u64,
        /// Client transaction id.
        transaction_id: u32,
        /// Torrent.
        info_hash: InfoHash,
        /// Announcing peer.
        peer_id: PeerId,
        /// Bytes downloaded.
        downloaded: u64,
        /// Bytes left (0 ⇒ seeder).
        left: u64,
        /// Bytes uploaded.
        uploaded: u64,
        /// Lifecycle event.
        event: AnnounceEvent,
        /// Peers wanted (`u32::MAX` ⇒ default).
        num_want: u32,
        /// Listening port.
        port: u16,
    },
    /// A scrape for up to 74 torrents.
    Scrape {
        /// The id issued by a prior connect.
        connection_id: u64,
        /// Client transaction id.
        transaction_id: u32,
        /// Torrents to scrape.
        info_hashes: Vec<InfoHash>,
    },
}

/// Any response a UDP tracker can send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpResponse {
    /// Handshake reply carrying the connection id.
    Connect {
        /// Echoed transaction id.
        transaction_id: u32,
        /// Id to use in subsequent requests.
        connection_id: u64,
    },
    /// Announce reply.
    Announce {
        /// Echoed transaction id.
        transaction_id: u32,
        /// Re-announce interval, seconds.
        interval: u32,
        /// Leecher count.
        leechers: u32,
        /// Seeder count.
        seeders: u32,
        /// Peer sample.
        peers: Vec<SocketAddrV4>,
    },
    /// Scrape reply, one entry per requested hash, in request order.
    Scrape {
        /// Echoed transaction id.
        transaction_id: u32,
        /// Counters per torrent.
        entries: Vec<ScrapeEntry>,
    },
    /// Error reply.
    Error {
        /// Echoed transaction id.
        transaction_id: u32,
        /// Human-readable reason.
        message: String,
    },
}

/// Wire decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpError {
    /// Datagram shorter than its header requires.
    Truncated,
    /// Connect request without the magic protocol id.
    BadProtocolId,
    /// Unknown action code.
    UnknownAction(u32),
    /// Event code out of range.
    BadEvent(u32),
}

impl std::fmt::Display for UdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdpError::Truncated => write!(f, "truncated datagram"),
            UdpError::BadProtocolId => write!(f, "bad protocol id"),
            UdpError::UnknownAction(a) => write!(f, "unknown action {a}"),
            UdpError::BadEvent(e) => write!(f, "bad event code {e}"),
        }
    }
}

impl std::error::Error for UdpError {}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn event_to_wire(e: AnnounceEvent) -> u32 {
    match e {
        AnnounceEvent::Interval => 0,
        AnnounceEvent::Completed => 1,
        AnnounceEvent::Started => 2,
        AnnounceEvent::Stopped => 3,
    }
}

fn event_from_wire(v: u32) -> Result<AnnounceEvent, UdpError> {
    match v {
        0 => Ok(AnnounceEvent::Interval),
        1 => Ok(AnnounceEvent::Completed),
        2 => Ok(AnnounceEvent::Started),
        3 => Ok(AnnounceEvent::Stopped),
        other => Err(UdpError::BadEvent(other)),
    }
}

impl UdpRequest {
    /// The client-chosen transaction id the tracker echoes.
    pub fn transaction_id(&self) -> u32 {
        match *self {
            UdpRequest::Connect { transaction_id }
            | UdpRequest::Announce { transaction_id, .. }
            | UdpRequest::Scrape { transaction_id, .. } => transaction_id,
        }
    }

    /// Serialises the request datagram.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            UdpRequest::Connect { transaction_id } => {
                let mut out = Vec::with_capacity(16);
                out.extend_from_slice(&PROTOCOL_ID.to_be_bytes());
                out.extend_from_slice(&action::CONNECT.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                out
            }
            UdpRequest::Announce {
                connection_id,
                transaction_id,
                info_hash,
                peer_id,
                downloaded,
                left,
                uploaded,
                event,
                num_want,
                port,
            } => {
                let mut out = Vec::with_capacity(98);
                out.extend_from_slice(&connection_id.to_be_bytes());
                out.extend_from_slice(&action::ANNOUNCE.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                out.extend_from_slice(&info_hash.0);
                out.extend_from_slice(&peer_id.0);
                out.extend_from_slice(&downloaded.to_be_bytes());
                out.extend_from_slice(&left.to_be_bytes());
                out.extend_from_slice(&uploaded.to_be_bytes());
                out.extend_from_slice(&event_to_wire(*event).to_be_bytes());
                out.extend_from_slice(&0u32.to_be_bytes()); // ip: default
                out.extend_from_slice(&0u32.to_be_bytes()); // key
                out.extend_from_slice(&num_want.to_be_bytes());
                out.extend_from_slice(&port.to_be_bytes());
                out
            }
            UdpRequest::Scrape {
                connection_id,
                transaction_id,
                info_hashes,
            } => {
                let mut out = Vec::with_capacity(16 + info_hashes.len() * 20);
                out.extend_from_slice(&connection_id.to_be_bytes());
                out.extend_from_slice(&action::SCRAPE.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                for ih in info_hashes {
                    out.extend_from_slice(&ih.0);
                }
                out
            }
        }
    }

    /// Parses a request datagram.
    pub fn decode(data: &[u8]) -> Result<UdpRequest, UdpError> {
        if data.len() < 16 {
            return Err(UdpError::Truncated);
        }
        let head = be64(&data[0..8]);
        let act = be32(&data[8..12]);
        let transaction_id = be32(&data[12..16]);
        match act {
            action::CONNECT => {
                if head != PROTOCOL_ID {
                    return Err(UdpError::BadProtocolId);
                }
                Ok(UdpRequest::Connect { transaction_id })
            }
            action::ANNOUNCE => {
                if data.len() < 98 {
                    return Err(UdpError::Truncated);
                }
                let mut ih = [0u8; 20];
                ih.copy_from_slice(&data[16..36]);
                let mut pid = [0u8; 20];
                pid.copy_from_slice(&data[36..56]);
                Ok(UdpRequest::Announce {
                    connection_id: head,
                    transaction_id,
                    info_hash: InfoHash(ih),
                    peer_id: PeerId(pid),
                    downloaded: be64(&data[56..64]),
                    left: be64(&data[64..72]),
                    uploaded: be64(&data[72..80]),
                    event: event_from_wire(be32(&data[80..84]))?,
                    num_want: be32(&data[92..96]),
                    port: u16::from_be_bytes([data[96], data[97]]),
                })
            }
            action::SCRAPE => {
                let mut hashes = Vec::new();
                let mut rest = &data[16..];
                while rest.len() >= 20 {
                    let mut ih = [0u8; 20];
                    ih.copy_from_slice(&rest[..20]);
                    hashes.push(InfoHash(ih));
                    rest = &rest[20..];
                }
                Ok(UdpRequest::Scrape {
                    connection_id: head,
                    transaction_id,
                    info_hashes: hashes,
                })
            }
            other => Err(UdpError::UnknownAction(other)),
        }
    }
}

impl UdpResponse {
    /// The echoed transaction id, which ties a reply to its request.
    pub fn transaction_id(&self) -> u32 {
        match *self {
            UdpResponse::Connect { transaction_id, .. }
            | UdpResponse::Announce { transaction_id, .. }
            | UdpResponse::Scrape { transaction_id, .. }
            | UdpResponse::Error { transaction_id, .. } => transaction_id,
        }
    }

    /// Serialises the response datagram.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            UdpResponse::Connect {
                transaction_id,
                connection_id,
            } => {
                let mut out = Vec::with_capacity(16);
                out.extend_from_slice(&action::CONNECT.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                out.extend_from_slice(&connection_id.to_be_bytes());
                out
            }
            UdpResponse::Announce {
                transaction_id,
                interval,
                leechers,
                seeders,
                peers,
            } => {
                let mut out = Vec::with_capacity(20 + peers.len() * 6);
                out.extend_from_slice(&action::ANNOUNCE.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                out.extend_from_slice(&interval.to_be_bytes());
                out.extend_from_slice(&leechers.to_be_bytes());
                out.extend_from_slice(&seeders.to_be_bytes());
                out.extend_from_slice(&compact::encode_peers(peers));
                out
            }
            UdpResponse::Scrape {
                transaction_id,
                entries,
            } => {
                let mut out = Vec::with_capacity(8 + entries.len() * 12);
                out.extend_from_slice(&action::SCRAPE.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                for e in entries {
                    out.extend_from_slice(&e.complete.to_be_bytes());
                    out.extend_from_slice(&e.downloaded.to_be_bytes());
                    out.extend_from_slice(&e.incomplete.to_be_bytes());
                }
                out
            }
            UdpResponse::Error {
                transaction_id,
                message,
            } => {
                let mut out = Vec::with_capacity(8 + message.len());
                out.extend_from_slice(&action::ERROR.to_be_bytes());
                out.extend_from_slice(&transaction_id.to_be_bytes());
                out.extend_from_slice(message.as_bytes());
                out
            }
        }
    }

    /// Parses a response datagram.
    pub fn decode(data: &[u8]) -> Result<UdpResponse, UdpError> {
        if data.len() < 8 {
            return Err(UdpError::Truncated);
        }
        let act = be32(&data[0..4]);
        let transaction_id = be32(&data[4..8]);
        match act {
            action::CONNECT => {
                if data.len() < 16 {
                    return Err(UdpError::Truncated);
                }
                Ok(UdpResponse::Connect {
                    transaction_id,
                    connection_id: be64(&data[8..16]),
                })
            }
            action::ANNOUNCE => {
                if data.len() < 20 {
                    return Err(UdpError::Truncated);
                }
                let peers =
                    compact::decode_peers(&data[20..]).ok_or(UdpError::Truncated)?;
                Ok(UdpResponse::Announce {
                    transaction_id,
                    interval: be32(&data[8..12]),
                    leechers: be32(&data[12..16]),
                    seeders: be32(&data[16..20]),
                    peers,
                })
            }
            action::SCRAPE => {
                let mut entries = Vec::new();
                let mut rest = &data[8..];
                while rest.len() >= 12 {
                    entries.push(ScrapeEntry {
                        complete: be32(&rest[0..4]),
                        downloaded: be32(&rest[4..8]),
                        incomplete: be32(&rest[8..12]),
                    });
                    rest = &rest[12..];
                }
                Ok(UdpResponse::Scrape {
                    transaction_id,
                    entries,
                })
            }
            action::ERROR => Ok(UdpResponse::Error {
                transaction_id,
                message: String::from_utf8_lossy(&data[8..]).into_owned(),
            }),
            other => Err(UdpError::UnknownAction(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn connect_roundtrip() {
        let req = UdpRequest::Connect {
            transaction_id: 0xDEAD_BEEF,
        };
        let wire = req.encode();
        assert_eq!(wire.len(), 16);
        assert_eq!(UdpRequest::decode(&wire).unwrap(), req);
        let rsp = UdpResponse::Connect {
            transaction_id: 0xDEAD_BEEF,
            connection_id: 0x0123_4567_89AB_CDEF,
        };
        assert_eq!(UdpResponse::decode(&rsp.encode()).unwrap(), rsp);
    }

    #[test]
    fn connect_requires_magic() {
        let mut wire = UdpRequest::Connect { transaction_id: 1 }.encode();
        wire[0] ^= 1;
        assert_eq!(UdpRequest::decode(&wire), Err(UdpError::BadProtocolId));
    }

    #[test]
    fn announce_roundtrip_all_events() {
        for event in [
            AnnounceEvent::Interval,
            AnnounceEvent::Completed,
            AnnounceEvent::Started,
            AnnounceEvent::Stopped,
        ] {
            let req = UdpRequest::Announce {
                connection_id: 42,
                transaction_id: 7,
                info_hash: InfoHash([9; 20]),
                peer_id: PeerId([8; 20]),
                downloaded: 1,
                left: 2,
                uploaded: 3,
                event,
                num_want: 200,
                port: 6881,
            };
            let wire = req.encode();
            assert_eq!(wire.len(), 98);
            assert_eq!(UdpRequest::decode(&wire).unwrap(), req);
        }
    }

    #[test]
    fn announce_response_roundtrip() {
        let rsp = UdpResponse::Announce {
            transaction_id: 3,
            interval: 900,
            leechers: 10,
            seeders: 2,
            peers: vec![
                SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 6881),
                SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 6882),
            ],
        };
        assert_eq!(UdpResponse::decode(&rsp.encode()).unwrap(), rsp);
    }

    #[test]
    fn scrape_roundtrip() {
        let req = UdpRequest::Scrape {
            connection_id: 99,
            transaction_id: 4,
            info_hashes: vec![InfoHash([1; 20]), InfoHash([2; 20])],
        };
        assert_eq!(UdpRequest::decode(&req.encode()).unwrap(), req);
        let rsp = UdpResponse::Scrape {
            transaction_id: 4,
            entries: vec![
                ScrapeEntry {
                    complete: 1,
                    downloaded: 100,
                    incomplete: 40,
                },
                ScrapeEntry::default(),
            ],
        };
        assert_eq!(UdpResponse::decode(&rsp.encode()).unwrap(), rsp);
    }

    #[test]
    fn error_roundtrip() {
        let rsp = UdpResponse::Error {
            transaction_id: 5,
            message: "connection id expired".into(),
        };
        assert_eq!(UdpResponse::decode(&rsp.encode()).unwrap(), rsp);
    }

    #[test]
    fn truncated_and_unknown_rejected() {
        assert_eq!(UdpRequest::decode(&[0; 8]), Err(UdpError::Truncated));
        assert_eq!(UdpResponse::decode(&[0; 4]), Err(UdpError::Truncated));
        let mut wire = UdpRequest::Connect { transaction_id: 1 }.encode();
        wire[8..12].copy_from_slice(&9u32.to_be_bytes());
        assert_eq!(UdpRequest::decode(&wire), Err(UdpError::UnknownAction(9)));
        let mut bad_event = UdpRequest::Announce {
            connection_id: 1,
            transaction_id: 1,
            info_hash: InfoHash([0; 20]),
            peer_id: PeerId([0; 20]),
            downloaded: 0,
            left: 0,
            uploaded: 0,
            event: AnnounceEvent::Started,
            num_want: 1,
            port: 1,
        }
        .encode();
        bad_event[80..84].copy_from_slice(&7u32.to_be_bytes());
        assert_eq!(UdpRequest::decode(&bad_event), Err(UdpError::BadEvent(7)));
    }
}
