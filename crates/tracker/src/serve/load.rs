//! The deterministic load generator behind `btpub-load`: replays a
//! [`Script`] against a running [`super::ServeDaemon`] over real
//! loopback sockets.
//!
//! Partitioning rule: driver `d` owns every client with
//! `client % drivers == d`, and sends that client's ops in script
//! order. Different clients' announces may interleave arbitrarily
//! across drivers and transports — admission only depends on a client's
//! own history and the logical clock, so the final snapshot is
//! interleaving-invariant (see `DESIGN.md`).
//!
//! Transports: UDP batch frames (the throughput path — up to 256
//! announces per datagram, outcome codes back), UDP single BEP 15
//! announces (the latency path, retransmit-tolerant), and HTTP
//! keep-alive sessions (announce + `&t=`/`&ip=` extensions). Garbled
//! ops send deliberately undecodable bytes on whichever transport the
//! driver runs; on UDP they carry a stamped transaction id (see
//! `wire::set_garbage_txn`) so delivery is confirmed by the daemon's
//! error reply and lost frames are retransmitted — which is what keeps
//! the snapshot's `garbled` count exact over a lossy loopback.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};

use btpub_faults::{key, points, FaultPlan, FaultProfile, NetConfig};
use btpub_proto::tracker::{AnnounceRequest, AnnounceResponse};
use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};

use crate::client::HttpSession;

use super::script::{Op, Script};
use super::udp_client::{self, bep15_txn, exchange_raw};
use super::wire::{self, Class};

/// How announces travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// All drivers speak UDP.
    Udp,
    /// All drivers speak HTTP over TCP.
    Tcp,
    /// Even drivers UDP, odd drivers TCP.
    Mixed,
}

/// How UDP drivers pack announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Batch frames: throughput.
    Batch,
    /// One BEP 15 datagram per announce: latency.
    Single,
}

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Driver threads.
    pub drivers: usize,
    /// UDP packing.
    pub mode: Mode,
    /// Transport mix.
    pub transport: Transport,
    /// Socket timeouts and the retransmit ladder.
    pub net: NetConfig,
    /// The daemon's fault profile — drivers predict announce-swallowing
    /// faults from it instead of timing out on every one.
    pub profile: FaultProfile,
}

impl LoadConfig {
    /// A mixed-transport batch run with `drivers` threads.
    pub fn new(drivers: usize) -> LoadConfig {
        LoadConfig {
            drivers,
            mode: Mode::Batch,
            transport: Transport::Mixed,
            net: NetConfig::loopback_test(),
            profile: FaultProfile::clean(),
        }
    }
}

/// Per-class outcome tallies, indexed by [`Class`] wire code.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassTally(pub [u64; 8]);

impl ClassTally {
    /// Records one outcome.
    pub fn add(&mut self, class: Class) {
        self.0[class as usize] += 1;
    }

    /// Reads one class's count.
    pub fn get(&self, class: Class) -> u64 {
        self.0[class as usize]
    }

    fn merge(&mut self, other: &ClassTally) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// What a load run saw from the client side.
#[derive(Debug, Default, Clone)]
pub struct LoadReport {
    /// Announce ops sent (garbled ops excluded).
    pub sent: u64,
    /// Garbage sends.
    pub garbled_sent: u64,
    /// Outcome classes as the drivers observed them.
    pub classes: ClassTally,
    /// Per-exchange latencies, nanoseconds (per batch in batch mode,
    /// per announce otherwise). Unordered across drivers.
    pub latencies_ns: Vec<u64>,
    /// Socket-level failures that exhausted their retries.
    pub errors: u64,
}

impl LoadReport {
    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.garbled_sent += other.garbled_sent;
        self.classes.merge(&other.classes);
        self.latencies_ns.extend(other.latencies_ns);
        self.errors += other.errors;
    }
}

/// Replays `script` against a daemon's UDP (`udp`) and HTTP
/// (`announce_url`) front ends. Returns the merged client-side report;
/// the authoritative check is comparing the daemon's snapshot against
/// the oracle afterwards.
pub fn run(
    script: &Script,
    udp: SocketAddr,
    announce_url: &str,
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    let drivers = cfg.drivers.max(1);
    let mut partitions: Vec<Vec<&Op>> = vec![Vec::new(); drivers];
    for op in &script.ops {
        partitions[op.client as usize % drivers].push(op);
    }
    let mut report = LoadReport::default();
    let results: Vec<std::io::Result<LoadReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .enumerate()
            .map(|(d, ops)| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let tcp = match cfg.transport {
                        Transport::Udp => false,
                        Transport::Tcp => true,
                        Transport::Mixed => d % 2 == 1,
                    };
                    if tcp {
                        tcp_driver(script, ops, announce_url, &cfg)
                    } else {
                        match cfg.mode {
                            Mode::Batch => udp_batch_driver(script, ops, udp, &cfg),
                            Mode::Single => udp_single_driver(script, ops, udp, &cfg),
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in results {
        report.merge(r?);
    }
    Ok(report)
}

/// Transaction id of a batch response (`None` for anything else).
fn batch_txn(data: &[u8]) -> Option<u32> {
    wire::decode_batch_response(data).map(|(txn, _)| txn)
}

/// UDP batch driver: packs a client partition into batch frames, one
/// outstanding frame at a time (natural flow control against loopback
/// buffer overruns).
fn udp_batch_driver(
    script: &Script,
    ops: &[&Op],
    to: SocketAddr,
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let mut report = LoadReport::default();
    let mut buf = vec![0u8; 32 * 1024];
    let mut pending: Vec<wire::AnnounceItem> = Vec::with_capacity(wire::MAX_BATCH);
    let mut txn = 0u32;
    let flush = |pending: &mut Vec<wire::AnnounceItem>,
                 txn: &mut u32,
                 report: &mut LoadReport,
                 buf: &mut [u8]|
     -> std::io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        *txn += 1;
        let frame = wire::encode_batch(*txn, pending);
        let started = std::time::Instant::now();
        match exchange_raw(&socket, to, &frame, batch_txn, *txn, &cfg.net, buf)? {
            Some((len, _)) => {
                report.latencies_ns.push(started.elapsed().as_nanos() as u64);
                if let Some((_, outcomes)) = wire::decode_batch_response(&buf[..len]) {
                    for o in &outcomes {
                        report.classes.add(o.class);
                    }
                }
            }
            None => report.errors += 1,
        }
        report.sent += pending.len() as u64;
        pending.clear();
        Ok(())
    };
    for op in ops {
        if op.garbled {
            // Order matters: everything before the garbage must be on
            // the wire first. The garbage itself is confirmable — the
            // stamped txn comes back in the daemon's error reply — so a
            // frame lost to a full kernel buffer is retransmitted
            // instead of silently missing from the `garbled` count
            // (the daemon dedups the exact resend as `duplicate`).
            flush(&mut pending, &mut txn, &mut report, &mut buf)?;
            txn += 1;
            let mut frame = wire::garbage(script.seed, u64::from(op.client));
            wire::set_garbage_txn(&mut frame, txn);
            if exchange_raw(&socket, to, &frame, bep15_txn, txn, &cfg.net, &mut buf)?
                .is_none()
            {
                report.errors += 1;
            }
            report.garbled_sent += 1;
            continue;
        }
        pending.push(super::oracle::item_for(script, op));
        if pending.len() == wire::MAX_BATCH {
            flush(&mut pending, &mut txn, &mut report, &mut buf)?;
        }
    }
    flush(&mut pending, &mut txn, &mut report, &mut buf)?;
    Ok(report)
}

/// UDP single-announce driver: the latency path. One connect handshake,
/// then one extended BEP 15 announce per op. Ops the fault plan says
/// the tracker will swallow (downtime, drops) are fired without
/// waiting — the plan is the same one the daemon enforces, so the
/// driver never stalls its retransmit ladder on predictable silence.
fn udp_single_driver(
    script: &Script,
    ops: &[&Op],
    to: SocketAddr,
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let cid = udp_client::connect(&socket, to, 0xC0DE, &cfg.net)?;
    let plan = FaultPlan::new(script.seed, cfg.profile.clone());
    let predict_silence = !plan.profile().is_clean();
    let mut report = LoadReport::default();
    let mut buf = vec![0u8; 32 * 1024];
    let mut txn = 0u32;
    for op in ops {
        if op.garbled {
            // Confirmable garbage, same as the batch driver: wait for
            // the error reply echoing the stamped txn, retransmit on
            // loss, let the daemon dedup the resend.
            txn = txn.wrapping_add(1);
            let mut frame = wire::garbage(script.seed, u64::from(op.client));
            wire::set_garbage_txn(&mut frame, txn);
            if exchange_raw(&socket, to, &frame, bep15_txn, txn, &cfg.net, &mut buf)?
                .is_none()
            {
                report.errors += 1;
            }
            report.garbled_sent += 1;
            continue;
        }
        let item = super::oracle::item_for(script, op);
        txn = txn.wrapping_add(1);
        let request = UdpRequest::Announce {
            connection_id: cid,
            transaction_id: txn,
            info_hash: item.info_hash,
            peer_id: item.peer_id,
            downloaded: 0,
            left: item.left,
            uploaded: 0,
            event: item.event,
            num_want: 0,
            port: item.port,
        };
        let mut datagram = request.encode();
        wire::set_announce_ip(&mut datagram, item.ip);
        wire::append_sim_time(&mut datagram, item.t);
        report.sent += 1;
        // The plane's fault-draw coordinates: its client id, not the
        // script's client number.
        let draw = key(&[u64::from(item.client()), u64::from(op.torrent), op.t]);
        if predict_silence {
            let swallowed = plan.tracker_down(op.t).is_some()
                || plan.check::<points::AnnounceDrop>(draw).is_some();
            if swallowed {
                socket.send_to(&datagram, to)?;
                report.classes.add(if plan.tracker_down(op.t).is_some() {
                    Class::Down
                } else {
                    Class::Dropped
                });
                continue;
            }
        }
        let started = std::time::Instant::now();
        match exchange_raw(&socket, to, &datagram, bep15_txn, txn, &cfg.net, &mut buf)? {
            Some((len, _)) => {
                report.latencies_ns.push(started.elapsed().as_nanos() as u64);
                match UdpResponse::decode(&buf[..len]) {
                    Ok(UdpResponse::Announce { .. }) => report.classes.add(Class::Admitted),
                    Ok(UdpResponse::Error { message, .. }) => {
                        report.classes.add(classify_message(&message))
                    }
                    _ => report.errors += 1,
                }
            }
            None => {
                // Silence the plan did not predict. A corrupted
                // (malformed) reply also lands here: it never matches
                // the transaction id.
                if plan
                    .check::<points::TruncatedReply>(draw)
                    .or_else(|| plan.check::<points::MalformedReply>(draw))
                    .is_some()
                {
                    report.classes.add(Class::Malformed);
                } else {
                    report.errors += 1;
                }
            }
        }
    }
    Ok(report)
}

/// Maps a tracker failure message to its outcome class.
fn classify_message(msg: &str) -> Class {
    match msg {
        "rate limited" => Class::RateLimited,
        "blacklisted" => Class::Blacklisted,
        "torrent not registered" => Class::Unknown,
        "tracker down" => Class::Down,
        "dropped" => Class::Dropped,
        _ => Class::Unknown,
    }
}

/// HTTP driver: one keep-alive session for the whole partition,
/// announces with the `&t=`/`&ip=` extensions, refusals classified from
/// the failure message. Garbled ops write raw bytes that terminate the
/// header block, so the server answers 400 and hangs up; the driver
/// reconnects.
fn tcp_driver(
    script: &Script,
    ops: &[&Op],
    announce_url: &str,
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    let mut session = HttpSession::connect(announce_url, &cfg.net)?;
    let mut report = LoadReport::default();
    for op in ops {
        if op.garbled {
            let mut garbage = wire::garbage(script.seed, u64::from(op.client));
            garbage.extend_from_slice(b"\r\n\r\n");
            let _ = session.raw_write(&garbage);
            // The 400 (or a hangup) ends this connection either way.
            let _ = session.get("/stats");
            session = HttpSession::connect(announce_url, &cfg.net)?;
            report.garbled_sent += 1;
            continue;
        }
        let item = super::oracle::item_for(script, op);
        let request = AnnounceRequest {
            info_hash: item.info_hash,
            peer_id: item.peer_id,
            port: item.port,
            uploaded: 0,
            downloaded: 0,
            left: item.left,
            event: item.event,
            numwant: 0,
            compact: true,
        };
        let extra = format!("&t={}&ip={}", item.t, item.ip);
        report.sent += 1;
        let started = std::time::Instant::now();
        let mut outcome = session.announce(&request, &extra);
        if let Err(e) = &outcome {
            if e.kind() != std::io::ErrorKind::InvalidData {
                // Connection died (e.g. server closed after an earlier
                // 400). Reconnect and retry once: if the announce did
                // land, the retry is an exact duplicate and mutates
                // nothing.
                session = HttpSession::connect(announce_url, &cfg.net)?;
                outcome = session.announce(&request, &extra);
            }
        }
        match outcome {
            Ok(AnnounceResponse::Ok { .. }) => {
                report.latencies_ns.push(started.elapsed().as_nanos() as u64);
                report.classes.add(Class::Admitted);
            }
            Ok(AnnounceResponse::Failure(msg)) => {
                report.latencies_ns.push(started.elapsed().as_nanos() as u64);
                report.classes.add(classify_message(&msg));
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Undecodable body: the daemon corrupted the reply on
                // purpose (state already mutated).
                report.classes.add(Class::Malformed);
            }
            Err(_) => report.errors += 1,
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::super::{oracle, ServeConfig, ServeDaemon};
    use super::*;

    fn parity_run(
        script: &Script,
        shards: usize,
        cfg: &LoadConfig,
        profile: FaultProfile,
    ) -> (String, LoadReport) {
        let mut scfg = ServeConfig::new(script.seed, shards, script.torrents);
        scfg.profile = profile;
        let daemon = ServeDaemon::start(scfg).unwrap();
        let report = run(script, daemon.udp_addr(), &daemon.announce_url(), cfg).unwrap();
        (daemon.shutdown(), report)
    }

    #[test]
    fn batch_load_matches_oracle_mixed_transports() {
        let script = Script::synthetic(31, 8, 48, 600);
        let expected = oracle::oracle_snapshot(&script, FaultProfile::clean());
        let cfg = LoadConfig::new(4);
        let (snap, report) = parity_run(&script, 4, &cfg, FaultProfile::clean());
        assert_eq!(snap, expected, "live snapshot deviates from oracle");
        assert_eq!(
            report.sent,
            script.ops.iter().filter(|o| !o.garbled).count() as u64
        );
        assert!(report.classes.get(Class::Admitted) > 0);
        assert!(report.classes.get(Class::Blacklisted) > 0, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
    }

    #[test]
    fn single_mode_latency_path_matches_oracle() {
        let script = Script::synthetic(32, 4, 16, 150);
        let expected = oracle::oracle_snapshot(&script, FaultProfile::clean());
        let mut cfg = LoadConfig::new(2);
        cfg.mode = Mode::Single;
        cfg.transport = Transport::Udp;
        let (snap, report) = parity_run(&script, 2, &cfg, FaultProfile::clean());
        assert_eq!(snap, expected);
        assert!(!report.latencies_ns.is_empty());
        assert_eq!(report.errors, 0, "{report:?}");
    }
}
