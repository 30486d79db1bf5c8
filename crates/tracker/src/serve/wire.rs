//! Wire conventions of the serving plane.
//!
//! Three things live here, all shared by the daemon, the load generator
//! and the in-process oracle so they can never disagree about framing:
//!
//! 1. **The logical clock transport.** Oracle equality needs every
//!    announce to carry its *simulated* timestamp — the rate-limit
//!    clock, fault draws and downtime windows are all functions of sim
//!    time, not of when a loopback packet happens to land. BEP 15
//!    permits extension bytes after the 98-byte announce body and
//!    decoders ignore trailing bytes, so the timestamp rides there
//!    ([`append_sim_time`]/[`sim_time_ext`]); over HTTP it rides in a
//!    `&t=` query parameter real trackers would ignore.
//! 2. **Identity conventions.** The announcing client id is a hash of
//!    all twenty peer-id bytes ([`client_of`]): real clients share
//!    azureus-style prefixes such as `-UT2210-`, so no prefix of the id
//!    tells two peers apart. A torrent's info-hash embeds its torrent id
//!    in the leading four bytes ([`info_hash_for`]/[`torrent_of`]) with
//!    the remaining sixteen derived from the serving seed — the daemon
//!    can recover the `(client, torrent, t)` fault-draw coordinates from
//!    any datagram without a lookup table.
//! 3. **The batch announce frame.** The throughput path packs up to
//!    [`MAX_BATCH`] announces into one datagram with a one-byte outcome
//!    class per item in the response ([`encode_batch`]/[`decode_batch`]
//!    and friends) — the per-shard batched application the daemon is
//!    built around starts at the wire.

use std::hash::Hasher;

use btpub_faults::mix;
use btpub_fxhash::FxHasher;
use btpub_proto::tracker::AnnounceEvent;
use btpub_proto::types::{InfoHash, PeerId};

/// Magic prefix of a batch announce datagram ("BTPBATCH", big-endian).
pub const BATCH_MAGIC: u64 = 0x4254_5042_4154_4348;
/// Action code of a batch announce request.
pub const BATCH_ANNOUNCE: u32 = 0xB0;
/// Action code of a batch announce response.
pub const BATCH_RESPONSE: u32 = 0xB1;
/// Most items one batch datagram may carry (keeps the frame well under
/// the 64 KiB UDP ceiling: 18 + 256·66 ≈ 17 KiB).
pub const MAX_BATCH: usize = 256;

/// Bytes per encoded announce item.
pub const ITEM_LEN: usize = 66;
const BATCH_HEADER: usize = 18;
/// Bytes per encoded item outcome in a batch response.
pub const OUTCOME_LEN: usize = 9;

/// One announce, as the serving plane consumes it — identical whether
/// it arrived in a batch frame, a BEP 15 datagram, or an HTTP query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnounceItem {
    /// Torrent being announced.
    pub info_hash: InfoHash,
    /// Announcing peer (its hash is the client id, see [`client_of`]).
    pub peer_id: PeerId,
    /// Simulated timestamp, seconds.
    pub t: u64,
    /// Bytes still needed; `0` means seeder.
    pub left: u64,
    /// Lifecycle event.
    pub event: AnnounceEvent,
    /// The peer's (simulated) IPv4 address.
    pub ip: u32,
    /// The peer's listening port.
    pub port: u16,
}

impl AnnounceItem {
    /// The announcing client id (see [`client_of`]).
    pub fn client(&self) -> u32 {
        client_of(&self.peer_id)
    }

    /// The torrent id embedded in the info-hash.
    pub fn torrent(&self) -> u32 {
        torrent_of(&self.info_hash)
    }
}

/// How the plane disposed of one announce. The numeric codes are the
/// wire form in batch responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    /// Served; swarm state mutated.
    Admitted = 0,
    /// Exact retransmit; re-served without mutation.
    Duplicate = 1,
    /// Refused: re-announced before the minimum interval.
    RateLimited = 2,
    /// Refused: the client is blacklisted.
    Blacklisted = 3,
    /// Refused: unregistered torrent.
    Unknown = 4,
    /// The tracker was inside an injected downtime window.
    Down = 5,
    /// The announce was dropped before the tracker saw it.
    Dropped = 6,
    /// Served (state mutated), but the reply was corrupted in flight.
    Malformed = 7,
}

impl Class {
    /// Decodes a wire class byte.
    pub fn from_wire(b: u8) -> Option<Class> {
        Some(match b {
            0 => Class::Admitted,
            1 => Class::Duplicate,
            2 => Class::RateLimited,
            3 => Class::Blacklisted,
            4 => Class::Unknown,
            5 => Class::Down,
            6 => Class::Dropped,
            7 => Class::Malformed,
            _ => return None,
        })
    }
}

/// The plane's verdict on one announce, with the counts a served item
/// would have been told.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Disposition.
    pub class: Class,
    /// Seeder count at serve time (zero for refused items).
    pub complete: u32,
    /// Leecher count at serve time (zero for refused items).
    pub incomplete: u32,
}

/// Derives the peer id a scripted client announces with: the script's
/// client number in the leading four bytes, the rest seeded filler. The
/// plane identifies the announcer by [`client_of`] of the whole id.
pub fn peer_id_for(client: u32) -> PeerId {
    let mut id = [0u8; 20];
    id[..4].copy_from_slice(&client.to_be_bytes());
    let fill = mix(u64::from(client), "serve.peer_id", 0);
    for (i, b) in id[4..].iter_mut().enumerate() {
        *b = (fill >> ((i % 8) * 8)) as u8;
    }
    PeerId(id)
}

/// The client id of a peer id: an fxhash of all twenty bytes, folded to
/// `u32`. Every admission decision (rate limit, strikes, blacklist,
/// fault draws, enforcement stripe) keys on this, so two peers whose ids
/// differ anywhere are two clients.
pub fn client_of(peer_id: &PeerId) -> u32 {
    let mut h = FxHasher::default();
    h.write(&peer_id.0);
    let x = h.finish();
    (x ^ (x >> 32)) as u32
}

/// Derives the info-hash of scripted torrent `id`: the id in the leading
/// four bytes, sixteen seeded bytes behind it.
pub fn info_hash_for(seed: u64, id: u32) -> InfoHash {
    let mut ih = [0u8; 20];
    ih[..4].copy_from_slice(&id.to_be_bytes());
    let a = mix(seed, "serve.info_hash", u64::from(id));
    let b = mix(seed, "serve.info_hash2", u64::from(id));
    ih[4..12].copy_from_slice(&a.to_be_bytes());
    ih[12..20].copy_from_slice(&b.to_be_bytes());
    InfoHash(ih)
}

/// The torrent id embedded in an info-hash's leading bytes.
pub fn torrent_of(ih: &InfoHash) -> u32 {
    u32::from_be_bytes([ih.0[0], ih.0[1], ih.0[2], ih.0[3]])
}

/// Appends the sim-time extension to an encoded BEP 15 announce.
pub fn append_sim_time(datagram: &mut Vec<u8>, t: u64) {
    datagram.extend_from_slice(&t.to_be_bytes());
}

/// Reads the sim-time extension off a raw announce datagram, if present.
pub fn sim_time_ext(data: &[u8]) -> Option<u64> {
    let ext = data.get(98..106)?;
    Some(u64::from_be_bytes(ext.try_into().ok()?))
}

/// Overwrites the `ip` field (bytes 84..88) of an encoded BEP 15
/// announce — the load generator announces on behalf of simulated peers
/// whose addresses are not the loopback source address.
pub fn set_announce_ip(datagram: &mut [u8], ip: u32) {
    if datagram.len() >= 88 {
        datagram[84..88].copy_from_slice(&ip.to_be_bytes());
    }
}

/// Reads the `ip` field off a raw announce datagram.
pub fn announce_ip(data: &[u8]) -> Option<u32> {
    let raw = data.get(84..88)?;
    let ip = u32::from_be_bytes(raw.try_into().ok()?);
    (ip != 0).then_some(ip)
}

/// Encodes a batch announce request.
pub fn encode_batch(transaction_id: u32, items: &[AnnounceItem]) -> Vec<u8> {
    assert!(items.len() <= MAX_BATCH, "batch too large");
    let mut buf = Vec::with_capacity(BATCH_HEADER + items.len() * ITEM_LEN);
    buf.extend_from_slice(&BATCH_MAGIC.to_be_bytes());
    buf.extend_from_slice(&BATCH_ANNOUNCE.to_be_bytes());
    buf.extend_from_slice(&transaction_id.to_be_bytes());
    buf.extend_from_slice(&(items.len() as u16).to_be_bytes());
    for item in items {
        buf.extend_from_slice(&item.info_hash.0);
        buf.extend_from_slice(&item.peer_id.0);
        buf.extend_from_slice(&item.t.to_be_bytes());
        buf.extend_from_slice(&item.left.to_be_bytes());
        let event = match item.event {
            AnnounceEvent::Interval => 0u32,
            AnnounceEvent::Completed => 1,
            AnnounceEvent::Started => 2,
            AnnounceEvent::Stopped => 3,
        };
        buf.extend_from_slice(&event.to_be_bytes());
        buf.extend_from_slice(&item.ip.to_be_bytes());
        buf.extend_from_slice(&item.port.to_be_bytes());
    }
    buf
}

/// Whether a datagram is a batch frame (vs BEP 15 or garbage).
pub fn is_batch(data: &[u8]) -> bool {
    data.len() >= 8 && data[..8] == BATCH_MAGIC.to_be_bytes()
}

/// Decodes a batch announce request into `(transaction_id, items)`.
pub fn decode_batch(data: &[u8]) -> Option<(u32, Vec<AnnounceItem>)> {
    if !is_batch(data) || data.len() < BATCH_HEADER {
        return None;
    }
    let action = u32::from_be_bytes(data[8..12].try_into().ok()?);
    if action != BATCH_ANNOUNCE {
        return None;
    }
    let transaction_id = u32::from_be_bytes(data[12..16].try_into().ok()?);
    let count = u16::from_be_bytes(data[16..18].try_into().ok()?) as usize;
    if count > MAX_BATCH || data.len() < BATCH_HEADER + count * ITEM_LEN {
        return None;
    }
    let mut items = Vec::with_capacity(count);
    for i in 0..count {
        let at = BATCH_HEADER + i * ITEM_LEN;
        let b = &data[at..at + ITEM_LEN];
        let event = match u32::from_be_bytes(b[56..60].try_into().ok()?) {
            0 => AnnounceEvent::Interval,
            1 => AnnounceEvent::Completed,
            2 => AnnounceEvent::Started,
            3 => AnnounceEvent::Stopped,
            _ => return None,
        };
        items.push(AnnounceItem {
            info_hash: InfoHash(b[..20].try_into().ok()?),
            peer_id: PeerId(b[20..40].try_into().ok()?),
            t: u64::from_be_bytes(b[40..48].try_into().ok()?),
            left: u64::from_be_bytes(b[48..56].try_into().ok()?),
            event,
            ip: u32::from_be_bytes(b[60..64].try_into().ok()?),
            port: u16::from_be_bytes(b[64..66].try_into().ok()?),
        });
    }
    Some((transaction_id, items))
}

/// Encodes a batch response: one [`Outcome`] per request item, in order.
pub fn encode_batch_response(transaction_id: u32, outcomes: &[Outcome]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(BATCH_HEADER + outcomes.len() * OUTCOME_LEN);
    buf.extend_from_slice(&BATCH_MAGIC.to_be_bytes());
    buf.extend_from_slice(&BATCH_RESPONSE.to_be_bytes());
    buf.extend_from_slice(&transaction_id.to_be_bytes());
    buf.extend_from_slice(&(outcomes.len() as u16).to_be_bytes());
    for o in outcomes {
        buf.push(o.class as u8);
        buf.extend_from_slice(&o.complete.to_be_bytes());
        buf.extend_from_slice(&o.incomplete.to_be_bytes());
    }
    buf
}

/// Decodes a batch response into `(transaction_id, outcomes)`.
pub fn decode_batch_response(data: &[u8]) -> Option<(u32, Vec<Outcome>)> {
    if !is_batch(data) || data.len() < BATCH_HEADER {
        return None;
    }
    if u32::from_be_bytes(data[8..12].try_into().ok()?) != BATCH_RESPONSE {
        return None;
    }
    let transaction_id = u32::from_be_bytes(data[12..16].try_into().ok()?);
    let count = u16::from_be_bytes(data[16..18].try_into().ok()?) as usize;
    if data.len() < BATCH_HEADER + count * OUTCOME_LEN {
        return None;
    }
    let mut outcomes = Vec::with_capacity(count);
    for i in 0..count {
        let at = BATCH_HEADER + i * OUTCOME_LEN;
        outcomes.push(Outcome {
            class: Class::from_wire(data[at])?,
            complete: u32::from_be_bytes(data[at + 1..at + 5].try_into().ok()?),
            incomplete: u32::from_be_bytes(data[at + 5..at + 9].try_into().ok()?),
        });
    }
    Some((transaction_id, outcomes))
}

/// Deterministically garbled request bytes: recognisable as neither
/// BEP 15 nor a batch frame, so the daemon's decode path must reject
/// (and count) them without crashing. The script injects these to prove
/// hostile input degrades gracefully.
pub fn garbage(seed: u64, index: u64) -> Vec<u8> {
    let mut buf = vec![0xFFu8; 40];
    let fill = mix(seed, "serve.garbage", index);
    for (i, b) in buf.iter_mut().enumerate().skip(16) {
        *b = 0x80 | ((fill >> ((i % 8) * 8)) as u8 & 0x7F);
    }
    buf
}

/// Stamps a driver-chosen transaction id into a garbage frame's BEP 15
/// txn slot (bytes 12..16). The daemon still cannot decode the frame —
/// the action field stays `0xFFFFFFFF` — but its polite error reply
/// echoes exactly these bytes, which turns a fire-and-forget garbage
/// send into a confirmable, retransmittable exchange: the driver waits
/// for the echoed txn and resends the identical frame on loss, and the
/// plane's exact-retransmit dedup keeps the `garbled` count stable.
pub fn set_garbage_txn(frame: &mut [u8], txn: u32) {
    frame[12..16].copy_from_slice(&txn.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};

    fn item(i: u32) -> AnnounceItem {
        AnnounceItem {
            info_hash: info_hash_for(7, i),
            peer_id: peer_id_for(100 + i),
            t: 1000 + u64::from(i),
            left: u64::from(i % 2) * 512,
            event: AnnounceEvent::Started,
            ip: 0x0A00_0000 | i,
            port: 6881,
        }
    }

    #[test]
    fn batch_roundtrip() {
        let items: Vec<_> = (0..5).map(item).collect();
        let wire = encode_batch(0xDEAD, &items);
        assert!(is_batch(&wire));
        let (txn, decoded) = decode_batch(&wire).unwrap();
        assert_eq!(txn, 0xDEAD);
        assert_eq!(decoded, items);
    }

    #[test]
    fn batch_response_roundtrip() {
        let outcomes = vec![
            Outcome { class: Class::Admitted, complete: 3, incomplete: 9 },
            Outcome { class: Class::RateLimited, complete: 0, incomplete: 0 },
            Outcome { class: Class::Malformed, complete: 1, incomplete: 1 },
        ];
        let wire = encode_batch_response(42, &outcomes);
        let (txn, decoded) = decode_batch_response(&wire).unwrap();
        assert_eq!(txn, 42);
        assert_eq!(decoded, outcomes);
    }

    #[test]
    fn truncated_batch_rejected() {
        let items: Vec<_> = (0..3).map(item).collect();
        let wire = encode_batch(1, &items);
        assert!(decode_batch(&wire[..wire.len() - 1]).is_none());
        assert!(decode_batch(&wire[..10]).is_none());
    }

    #[test]
    fn identity_conventions_roundtrip() {
        // Every peer-id byte counts: ids sharing an azureus-style prefix,
        // or differing only in the last byte, are different clients.
        let a = PeerId::azureus_style("SD", "0002", [0; 12]);
        let b = PeerId::azureus_style("SD", "0002", [1; 12]);
        let mut c = a;
        c.0[19] ^= 1;
        assert_ne!(client_of(&a), client_of(&b));
        assert_ne!(client_of(&a), client_of(&c));
        assert_eq!(
            client_of(&a),
            client_of(&PeerId::azureus_style("SD", "0002", [0; 12]))
        );
        let scripted: std::collections::HashSet<u32> = [0u32, 1, 0xF000_0001, u32::MAX]
            .iter()
            .map(|&n| client_of(&peer_id_for(n)))
            .collect();
        assert_eq!(scripted.len(), 4, "scripted clients stay distinct");
        for id in [0u32, 7, 9999] {
            assert_eq!(torrent_of(&info_hash_for(11, id)), id);
            // Different seeds give different hashes for the same id.
            assert_ne!(info_hash_for(11, id), info_hash_for(12, id));
        }
    }

    #[test]
    fn sim_time_extension_survives_bep15_encode() {
        // Trailing extension bytes must not break the standard decoder,
        // and the daemon must read back the exact timestamp.
        let req = UdpRequest::Announce {
            connection_id: 1,
            transaction_id: 2,
            info_hash: info_hash_for(3, 0),
            peer_id: peer_id_for(9),
            downloaded: 0,
            left: 100,
            uploaded: 0,
            event: AnnounceEvent::Started,
            num_want: 10,
            port: 6881,
        };
        let mut wire = req.encode();
        set_announce_ip(&mut wire, 0x0102_0304);
        append_sim_time(&mut wire, 123_456);
        assert_eq!(UdpRequest::decode(&wire).unwrap(), req);
        assert_eq!(sim_time_ext(&wire), Some(123_456));
        assert_eq!(announce_ip(&wire), Some(0x0102_0304));
    }

    #[test]
    fn garbage_defeats_every_decoder() {
        for i in 0..50 {
            let mut g = garbage(99, i);
            assert!(UdpRequest::decode(&g).is_err());
            assert!(UdpResponse::decode(&g).is_err());
            assert!(!is_batch(&g));
            assert!(decode_batch(&g).is_none());
            // Still garbage with a txn stamped in.
            set_garbage_txn(&mut g, i as u32);
            assert!(UdpRequest::decode(&g).is_err());
            assert!(UdpResponse::decode(&g).is_err());
            assert!(!is_batch(&g));
            assert!(decode_batch(&g).is_none());
        }
        // And it is deterministic.
        assert_eq!(garbage(99, 7), garbage(99, 7));
        assert_ne!(garbage(99, 7), garbage(99, 8));
    }
}
