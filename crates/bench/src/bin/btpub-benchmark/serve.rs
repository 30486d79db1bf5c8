//! The serve workloads: a live `ServeDaemon` on loopback sockets, driven
//! by one generator thread of the benchmark's own.
//!
//! The generators are written here rather than borrowed from
//! `serve::load`, so a change to a library client can never show up as a
//! server gain; the only library code they call is the public protocol
//! encoders and decoders (`btpub_proto`, `serve::wire`) and the script and
//! oracle (`serve::script`, `serve::oracle`) that say what the daemon's
//! final state must be. Every run ends by comparing the daemon's shutdown
//! snapshot with the oracle over the announces actually sent.
//!
//! All three workloads are closed loops with one exchange in flight: a
//! 256-announce batch frame, one BEP 15 announce, or one HTTP announce.
//! An open loop, which sends on a schedule whatever the replies, was
//! tried and dropped. With the daemon's UDP worker sleeping 300 µs
//! whenever its socket is empty, an announce arriving at a random point of
//! that sleep waits half of it plus the host's wake-up, and on a shared
//! VM the wake-up moves with the other tenants: ten seeds at 2 000/s gave
//! a p50 spread (IQR over median) of 0.14 to 0.31. A closed loop's request
//! lands just as the worker starts to sleep, so it waits the whole sleep,
//! which the host moves by a smaller share.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

use btpub_faults::FaultProfile;
use btpub_proto::tracker::{AnnounceRequest, AnnounceResponse, PeerEntry};
use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};
use btpub_proto::urlencode;
use btpub_sim::SimTime;
use btpub_tracker::enforce::min_interval;
use btpub_tracker::http;
use btpub_tracker::serve::script::Script;
use btpub_tracker::serve::shard::{Plane, PlaneConfig};
use btpub_tracker::serve::wire::{self, AnnounceItem, Class};
use btpub_tracker::serve::{oracle, ServeConfig, ServeDaemon};

use crate::ledger::{HistDelta, Ledger, ObsMark};
use crate::stats::{self, median};
use crate::{derive_seed, heap, Outcome};

/// Swarm shards of every daemon (and of the in-process replay plane).
const SHARDS: usize = 8;
/// Registered torrents and announcing clients of every script.
const TORRENTS: u32 = 256;
const CLIENTS: u32 = 4096;
/// An announce with no reply within this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// Peers a single announce asks for (BEP 15's default answer size).
const NUMWANT: u32 = 50;

/// Announces per batch lap: 1024 full frames, replayed on a fresh daemon
/// each lap.
pub const BATCH_LAP_ANNOUNCES: usize = 262_144;
/// Announces per single-announce lap: about 6 s at today's ~0.39 ms an
/// announce, so a run completes laps, and under a second once the worker
/// stops sleeping.
pub const SINGLE_LAP_ANNOUNCES: usize = 16_384;
/// Announces per HTTP lap, replayed on a fresh daemon each lap. Short
/// enough that a lap completes in a run even at today's ~44 ms an
/// announce, so the heap peak is a whole lap's whatever the server's
/// speed.
pub const HTTP_LAP_ANNOUNCES: usize = 128;

/// Script seeds at seed 0, one per workload family.
const BATCH_SCRIPT: u64 = 0xB902;
const SINGLE_SCRIPT: u64 = 0xB903;
const HTTP_SCRIPT: u64 = 0xB904;

/// A garbage-free synthetic script of at most `announces` ops: the daemon
/// sees only well-formed announces, so every op is an announce and the
/// generators need no garbage-confirming exchanges.
pub fn script(base: u64, seed: u64, announces: usize) -> Script {
    let mut s = Script::synthetic(derive_seed(base, seed, 0), TORRENTS, CLIENTS, announces);
    s.ops.retain(|op| !op.garbled);
    s.ops.truncate(announces);
    s
}

/// A loopback daemon for `script`: eight shards, one UDP worker, one TCP
/// worker.
fn start_daemon(script: &Script) -> ServeDaemon {
    let mut cfg = ServeConfig::new(script.seed, SHARDS, script.torrents);
    cfg.udp_workers = 1;
    cfg.tcp_workers = 1;
    ServeDaemon::start(cfg).expect("bind a loopback daemon")
}

fn udp_socket() -> UdpSocket {
    let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind a loopback socket");
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a read timeout");
    s
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn e2e(setup_s: f64, p50_us: f64, throughput: f64, peak_bytes: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("p50_ms", p50_us / 1e3),
        ("throughput_per_s", throughput),
        ("peak_heap_mb", peak_bytes / (1024.0 * 1024.0)),
    ]
}

/// Latency samples split by request parity: odd requests carry a span,
/// even ones do not, so tracing overhead is measured inside one run.
struct Samples {
    even: Vec<f64>,
    odd: Vec<f64>,
}

impl Samples {
    fn with_capacity(n: usize) -> Samples {
        Samples {
            even: Vec::with_capacity(n / 2 + 1),
            odd: Vec::with_capacity(n / 2 + 1),
        }
    }

    fn push(&mut self, i: u64, v: f64) {
        if i % 2 == 1 {
            self.odd.push(v)
        } else {
            self.even.push(v)
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.even.iter().chain(&self.odd).copied().collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn p50(&self) -> f64 {
        median(&mut self.sorted())
    }

    /// Odd (traced) against even (untraced) median, percent.
    fn overhead_pct(&self) -> f64 {
        let even = median(&mut self.even.clone());
        let odd = median(&mut self.odd.clone());
        if even > 0.0 {
            (odd / even - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// The daemon's side of a traced run: obs deltas over the measured window
/// and the plane's own tallies, read before shutdown.
struct DaemonView {
    apply: HistDelta,
    queue_depth: HistDelta,
    admitted_ratio: f64,
    imbalance_pct: f64,
}

fn daemon_view(before: &ObsMark, daemon: &ServeDaemon, sent: u64) -> DaemonView {
    let after = ObsMark::now();
    let counts = daemon.plane().shard_announce_counts();
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    let imbalance_pct = if mean > 0.0 {
        counts
            .iter()
            .map(|&c| (c as f64 - mean).abs() / mean * 100.0)
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    DaemonView {
        apply: before.histogram(&after, "serve.announce.apply_ns"),
        queue_depth: before.histogram(&after, "serve.udp.queue_depth"),
        admitted_ratio: daemon.plane().counts().admitted as f64 / sent.max(1) as f64,
        imbalance_pct,
    }
}

/// The daemon's per-exchange work, redone in process over the same bytes:
/// totals, and what they were totalled over.
#[derive(Default)]
pub struct Replay {
    /// Datagrams, frames or HTTP requests replayed.
    exchanges: u64,
    announces: u64,
    /// `sample_peers` calls (admitted single announces only).
    samples: u64,
    decode: Duration,
    apply: Duration,
    sample: Duration,
    encode: Duration,
    http_parse: Duration,
    http_write: Duration,
}

impl Replay {
    fn per(&self, d: Duration, n: u64) -> f64 {
        d.as_nanos() as f64 / n.max(1) as f64
    }

    /// Everything the daemon does for one exchange, nanoseconds.
    fn inside_ns(&self) -> f64 {
        let total = self.decode
            + self.apply
            + self.sample
            + self.encode
            + self.http_parse
            + self.http_write;
        self.per(total, self.exchanges)
    }
}

/// A fresh eight-shard plane like the daemon's.
fn replay_plane(script: &Script) -> Plane {
    Plane::new(PlaneConfig {
        seed: script.seed,
        shards: SHARDS,
        torrents: script.torrents,
        profile: FaultProfile::clean(),
    })
}

/// Every serve-layer metric of one traced run: what the generator saw
/// (`samples`, and `timeouts` exchanges unanswered), the daemon's view and
/// the replay. The residual is the exchange's median round trip minus the
/// in-process cost of its work: syscalls, wake-ups and the workers' idle
/// back-off.
fn serve_layers(
    samples: &Samples,
    timeouts: u64,
    view: &DaemonView,
    r: &Replay,
    is_http: bool,
) -> Vec<(&'static str, f64)> {
    let sorted = samples.sorted();
    let tail = stats::tail(&sorted);
    let residual_us = samples.p50() - r.inside_ns() / 1e3;
    vec![
        ("wire.decode_ns", r.per(r.decode, r.exchanges)),
        ("wire.encode_ns", r.per(r.encode, r.exchanges)),
        ("plane.apply_ns", r.per(r.apply, r.announces)),
        ("plane.apply_p50_ns", view.apply.quantile(0.5)),
        ("plane.sample_ns", r.per(r.sample, r.samples)),
        ("plane.admitted_ratio", view.admitted_ratio),
        ("plane.shard_imbalance_pct", view.imbalance_pct),
        ("udp.residual_us", if is_http { 0.0 } else { residual_us }),
        ("udp.queue_depth_p50", view.queue_depth.quantile(0.5)),
        ("http.parse_ns", r.per(r.http_parse, r.exchanges)),
        ("http.write_ns", r.per(r.http_write, r.exchanges)),
        ("http.residual_us", if is_http { residual_us } else { 0.0 }),
        ("load.tail_us", tail.map_or(0.0, |t| t.value)),
        ("load.tail_pct", tail.map_or(0.0, |t| t.pct)),
        ("load.samples", sorted.len() as f64),
        ("load.timeouts", timeouts as f64),
        ("trace.overhead_pct", samples.overhead_pct()),
    ]
}

// ---------------------------------------------------------------------
// The closed loop all three workloads run.
// ---------------------------------------------------------------------

/// A client with one exchange in flight to the lap's daemon.
pub trait Client {
    /// The span name of a traced exchange.
    const SPAN: &'static str;
    /// Whether the residual is HTTP's rather than UDP's.
    const HTTP: bool = false;

    /// Gets ready to talk to a freshly started daemon.
    fn connect(&mut self, daemon: &ServeDaemon);

    /// Sends request `i` of the lap and waits for its reply: when the
    /// reply was in, or `None` when none came within [`REPLY_TIMEOUT`].
    fn exchange(&mut self, i: usize) -> Option<Instant>;

    /// The daemon's work for the lap's first `exchanges` requests, redone
    /// in process over the same bytes.
    fn replay(&self, script: &Script, exchanges: usize, ledger: &Ledger) -> Replay;
}

/// A closed-loop workload, set up: script, oracle, what each exchange
/// carries, the client and the first lap's daemon, already connected.
pub struct ClosedLoop<C> {
    script: Script,
    expected: String,
    /// Announces per exchange, in order; they add up to the script.
    weights: Vec<u64>,
    client: C,
    daemon: ServeDaemon,
}

impl<C: Client> ClosedLoop<C> {
    fn start(script: Script, weights: Vec<u64>, mut client: C) -> ClosedLoop<C> {
        let expected = oracle::oracle_snapshot(&script, FaultProfile::clean());
        let daemon = start_daemon(&script);
        client.connect(&daemon);
        ClosedLoop {
            script,
            expected,
            weights,
            client,
            daemon,
        }
    }
}

/// Laps of the script, one exchange at a time, until `budget` is spent
/// (at least one exchange), however fast the server answers. Each lap
/// runs on a fresh daemon whose snapshot must equal the oracle's over the
/// announces the lap sent; only the last lap may be cut short.
///
/// `throughput_per_s` is the announces an exchange carries over the
/// median exchange: the rate a client with one exchange in flight gets at
/// a typical round trip. A lap's mean rate also counts the round trips a
/// busy host stretches to milliseconds, and on a shared 2-vCPU VM it moved
/// by a spread of 0.28 between runs of `serve-udp-batch` while the median
/// frame moved by 0.06; `load.tail_us` reports the tail.
pub fn run_closed<C: Client>(
    w: ClosedLoop<C>,
    budget: Duration,
    setup_s: f64,
    ledger: Option<&Ledger>,
) -> Outcome {
    let ClosedLoop {
        script,
        expected,
        weights,
        mut client,
        daemon,
    } = w;
    let mut next_daemon = Some(daemon);
    let mut samples = Samples::with_capacity(weights.len());
    let (mut ops, mut exchanges, mut failed, mut timeouts) = (0u64, 0u64, 0u64, 0u64);
    let (mut correct, mut peak) = (true, 0.0f64);
    // The first lap's daemon view and length, for the traced layers.
    let mut first_lap = None;
    let run_id = ledger.map_or(0, Ledger::id);
    let start = Instant::now();
    let mut lap = 0u64;
    while ops == 0 || start.elapsed() < budget {
        let daemon = next_daemon.take().unwrap_or_else(|| {
            let daemon = start_daemon(&script);
            client.connect(&daemon);
            daemon
        });
        let before = ObsMark::now();
        let base = heap::mark();
        let (mut sent, mut lap_ops, mut lap_failed) = (0usize, 0u64, 0u64);
        while sent < weights.len() && (ops + lap_ops == 0 || start.elapsed() < budget) {
            let idx = exchanges + sent as u64;
            let t0 = Instant::now();
            match client.exchange(sent) {
                Some(at) => {
                    samples.push(idx, micros(at - t0));
                    if let Some(l) = ledger.filter(|_| idx % 2 == 1) {
                        l.record(C::SPAN, l.id(), run_id, idx, t0, at);
                    }
                }
                None => {
                    timeouts += 1;
                    lap_failed += weights[sent];
                }
            }
            lap_ops += weights[sent];
            sent += 1;
        }
        peak = peak.max(heap::peak_since(base) as f64);
        if ledger.is_some() && first_lap.is_none() {
            first_lap = Some((daemon_view(&before, &daemon, lap_ops), sent));
        }
        let snapshot = daemon.shutdown();
        let matches = if sent == weights.len() {
            snapshot == expected
        } else {
            let prefix = Script {
                seed: script.seed,
                torrents: script.torrents,
                ops: script.ops[..lap_ops as usize].to_vec(),
            };
            snapshot == oracle::oracle_snapshot(&prefix, FaultProfile::clean())
        };
        if !matches {
            eprintln!(
                "btpub-benchmark: lap {lap} snapshot differs from the oracle \
                 ({lap_failed} of {lap_ops} announces unanswered)"
            );
            correct = false;
            lap_failed = lap_ops;
        }
        ops += lap_ops;
        exchanges += sent as u64;
        failed += lap_failed;
        lap += 1;
    }
    let metrics = match (ledger, first_lap) {
        (Some(l), Some((view, sent))) => {
            l.record("run", run_id, 0, 0, start, Instant::now());
            let replay = client.replay(&script, sent, l);
            serve_layers(&samples, timeouts, &view, &replay, C::HTTP)
        }
        _ => {
            let p50_us = samples.p50();
            let per_exchange = ops as f64 / exchanges as f64;
            e2e(setup_s, p50_us, per_exchange * 1e6 / p50_us, peak)
        }
    };
    Outcome {
        correct,
        ops,
        ops_failed: failed,
        metrics,
    }
}

/// Waits for the reply `is_ours` recognises, skipping late replies to
/// earlier requests: when it was in, or `None` after [`REPLY_TIMEOUT`].
fn await_reply(
    socket: &UdpSocket,
    buf: &mut [u8],
    is_ours: impl Fn(&[u8]) -> bool,
) -> Option<Instant> {
    loop {
        match socket.recv_from(buf) {
            Ok((len, _)) => {
                if is_ours(&buf[..len]) {
                    return Some(Instant::now());
                }
            }
            Err(e) if is_timeout(&e) => return None,
            Err(e) => panic!("receive a reply: {e}"),
        }
    }
}

/// Where a client aims before its first daemon.
fn unconnected() -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, 0))
}

// ---------------------------------------------------------------------
// serve-udp-batch: 256-announce frames.
// ---------------------------------------------------------------------

/// Sends encoded batch frames.
pub struct Batch {
    socket: UdpSocket,
    to: SocketAddr,
    frames: Vec<Vec<u8>>,
    buf: Vec<u8>,
}

impl ClosedLoop<Batch> {
    pub fn batch(seed: u64, announces: usize) -> ClosedLoop<Batch> {
        let script = script(BATCH_SCRIPT, seed, announces);
        let items: Vec<AnnounceItem> = script
            .ops
            .iter()
            .map(|op| oracle::item_for(&script, op))
            .collect();
        let frames = items
            .chunks(wire::MAX_BATCH)
            .enumerate()
            .map(|(i, chunk)| wire::encode_batch(i as u32 + 1, chunk))
            .collect();
        let weights = items
            .chunks(wire::MAX_BATCH)
            .map(|chunk| chunk.len() as u64)
            .collect();
        let client = Batch {
            socket: udp_socket(),
            to: unconnected(),
            frames,
            buf: vec![0u8; 64 * 1024],
        };
        ClosedLoop::start(script, weights, client)
    }
}

impl Client for Batch {
    const SPAN: &'static str = "batch.frame";

    fn connect(&mut self, daemon: &ServeDaemon) {
        self.to = daemon.udp_addr();
    }

    fn exchange(&mut self, i: usize) -> Option<Instant> {
        let txn = i as u32 + 1;
        self.socket
            .send_to(&self.frames[i], self.to)
            .expect("send a frame");
        await_reply(&self.socket, &mut self.buf, |d| {
            wire::decode_batch_response(d).is_some_and(|(t, _)| t == txn)
        })
    }

    fn replay(&self, script: &Script, exchanges: usize, ledger: &Ledger) -> Replay {
        replay_batch(script, &self.frames[..exchanges], ledger)
    }
}

/// Per-frame decode, apply and encode, in process, over one lap's frames.
fn replay_batch(script: &Script, frames: &[Vec<u8>], ledger: &Ledger) -> Replay {
    let plane = replay_plane(script);
    let mut out = Vec::new();
    let mut r = Replay::default();
    ledger.span("replay.batch", 0, 0, |_| {
        for frame in frames {
            let t0 = Instant::now();
            let (txn, items) = wire::decode_batch(frame).expect("our own frames decode");
            let t1 = Instant::now();
            plane.apply_batch(&items, &mut out);
            let t2 = Instant::now();
            std::hint::black_box(wire::encode_batch_response(txn, &out));
            let t3 = Instant::now();
            r.decode += t1 - t0;
            r.apply += t2 - t1;
            r.encode += t3 - t2;
            r.exchanges += 1;
            r.announces += items.len() as u64;
        }
    });
    r
}

// ---------------------------------------------------------------------
// serve-udp-single: one BEP 15 announce per datagram.
// ---------------------------------------------------------------------

/// Sends BEP 15 announces, each encoded with the connection id the
/// daemon issued.
pub struct Single {
    socket: UdpSocket,
    to: SocketAddr,
    items: Vec<AnnounceItem>,
    cid: Option<u64>,
    datagrams: Vec<Vec<u8>>,
    buf: [u8; 2048],
}

impl ClosedLoop<Single> {
    pub fn single(seed: u64, announces: usize) -> ClosedLoop<Single> {
        let script = script(SINGLE_SCRIPT, seed, announces);
        let items: Vec<AnnounceItem> = script
            .ops
            .iter()
            .map(|op| oracle::item_for(&script, op))
            .collect();
        let weights = vec![1; items.len()];
        let client = Single {
            socket: udp_socket(),
            to: unconnected(),
            items,
            cid: None,
            datagrams: Vec::new(),
            buf: [0u8; 2048],
        };
        ClosedLoop::start(script, weights, client)
    }
}

impl Client for Single {
    const SPAN: &'static str = "udp.announce";

    /// The BEP 15 handshake. Daemons of one seed issue the same id to the
    /// same client address, so the datagrams are encoded again only when
    /// the id changed.
    fn connect(&mut self, daemon: &ServeDaemon) {
        self.to = daemon.udp_addr();
        let cid = connect(&self.socket, self.to);
        if self.cid != Some(cid) {
            self.datagrams = self
                .items
                .iter()
                .enumerate()
                .map(|(i, item)| announce_datagram(item, cid, i as u32))
                .collect();
            self.cid = Some(cid);
        }
    }

    fn exchange(&mut self, i: usize) -> Option<Instant> {
        self.socket
            .send_to(&self.datagrams[i], self.to)
            .expect("send an announce");
        await_reply(&self.socket, &mut self.buf, |d| {
            reply_txn(d) == Some(i as u32)
        })
    }

    fn replay(&self, script: &Script, exchanges: usize, ledger: &Ledger) -> Replay {
        replay_single(script, &self.datagrams[..exchanges], ledger)
    }
}

/// The BEP 15 connect handshake (three tries).
fn connect(socket: &UdpSocket, to: SocketAddr) -> u64 {
    let mut buf = [0u8; 512];
    for _ in 0..3 {
        let hello = UdpRequest::Connect {
            transaction_id: 0xC0DE,
        };
        socket.send_to(&hello.encode(), to).expect("send connect");
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            if let Ok(UdpResponse::Connect {
                transaction_id: 0xC0DE,
                connection_id,
            }) = UdpResponse::decode(&buf[..len])
            {
                return connection_id;
            }
        }
    }
    panic!("the daemon never answered a BEP 15 connect");
}

/// One extended BEP 15 announce: scripted source address in the `ip`
/// field, logical clock in the trailing extension.
fn announce_datagram(item: &AnnounceItem, cid: u64, txn: u32) -> Vec<u8> {
    let request = UdpRequest::Announce {
        connection_id: cid,
        transaction_id: txn,
        info_hash: item.info_hash,
        peer_id: item.peer_id,
        downloaded: 0,
        left: item.left,
        uploaded: 0,
        event: item.event,
        num_want: NUMWANT,
        port: item.port,
    };
    let mut d = request.encode();
    wire::set_announce_ip(&mut d, item.ip);
    wire::append_sim_time(&mut d, item.t);
    d
}

/// Transaction id of an announce or error reply.
fn reply_txn(data: &[u8]) -> Option<u32> {
    match UdpResponse::decode(data) {
        Ok(UdpResponse::Announce { transaction_id, .. })
        | Ok(UdpResponse::Error { transaction_id, .. }) => Some(transaction_id),
        _ => None,
    }
}

/// The daemon's work for each single announce, in process: decode with
/// both extensions, apply, sample peers for an admitted announce, encode
/// the reply.
fn replay_single(script: &Script, datagrams: &[Vec<u8>], ledger: &Ledger) -> Replay {
    let plane = replay_plane(script);
    let (mut out, mut peers) = (Vec::new(), Vec::new());
    let mut r = Replay::default();
    ledger.span("replay.single", 0, 0, |_| {
        for d in datagrams {
            let t0 = Instant::now();
            let Ok(UdpRequest::Announce {
                transaction_id,
                info_hash,
                peer_id,
                left,
                event,
                num_want,
                port,
                ..
            }) = UdpRequest::decode(d)
            else {
                panic!("our own announces decode");
            };
            let item = AnnounceItem {
                info_hash,
                peer_id,
                t: wire::sim_time_ext(d).expect("scripted clock"),
                left,
                event,
                ip: wire::announce_ip(d).expect("scripted address"),
                port,
            };
            let t1 = Instant::now();
            plane.apply_batch(std::slice::from_ref(&item), &mut out);
            let t2 = Instant::now();
            let served = out[0];
            let admitted = matches!(served.class, Class::Admitted | Class::Duplicate);
            if admitted {
                plane.sample_peers(&info_hash, num_want.min(74) as usize, &mut peers);
                r.samples += 1;
            }
            let t3 = Instant::now();
            let reply = if admitted {
                UdpResponse::Announce {
                    transaction_id,
                    interval: min_interval(SimTime(item.t)).secs() as u32,
                    leechers: served.incomplete,
                    seeders: served.complete,
                    peers: std::mem::take(&mut peers),
                }
            } else {
                UdpResponse::Error {
                    transaction_id,
                    message: "rate limited".into(),
                }
            };
            std::hint::black_box(reply.encode());
            let t4 = Instant::now();
            r.decode += t1 - t0;
            r.apply += t2 - t1;
            r.sample += t3 - t2;
            r.encode += t4 - t3;
            r.exchanges += 1;
            r.announces += 1;
        }
    });
    r
}

// ---------------------------------------------------------------------
// serve-http: closed loop, one keep-alive connection.
// ---------------------------------------------------------------------

/// Sends HTTP announces on one keep-alive connection.
pub struct Http {
    requests: Vec<Vec<u8>>,
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl ClosedLoop<Http> {
    pub fn http(seed: u64, announces: usize) -> ClosedLoop<Http> {
        let script = script(HTTP_SCRIPT, seed, announces);
        let requests: Vec<Vec<u8>> = script
            .ops
            .iter()
            .map(|op| http_request(&oracle::item_for(&script, op)))
            .collect();
        let weights = vec![1; requests.len()];
        let client = Http {
            requests,
            addr: unconnected(),
            stream: None,
            buf: Vec::with_capacity(4096),
        };
        ClosedLoop::start(script, weights, client)
    }
}

impl Client for Http {
    const SPAN: &'static str = "http.announce";
    const HTTP: bool = true;

    fn connect(&mut self, daemon: &ServeDaemon) {
        self.addr = daemon.tcp_addr();
        self.stream = Some(http_connect(self.addr));
    }

    /// A failed exchange reconnects.
    fn exchange(&mut self, i: usize) -> Option<Instant> {
        let stream = self.stream.as_mut().expect("connected");
        let ok = exchange_http(stream, &self.requests[i], &mut self.buf)
            .is_ok_and(|body| AnnounceResponse::decode(&body).is_ok());
        let at = Instant::now();
        if ok {
            Some(at)
        } else {
            self.stream = Some(http_connect(self.addr));
            None
        }
    }

    fn replay(&self, script: &Script, exchanges: usize, ledger: &Ledger) -> Replay {
        replay_http(script, &self.requests[..exchanges], ledger)
    }
}

/// A keep-alive client connection. No-delay, so each request leaves in
/// the one write that carries it.
fn http_connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the daemon");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a read timeout");
    s
}

/// A whole announce request, with the serving extensions for the logical
/// clock (`&t=`) and the scripted source address (`&ip=`). The same bytes
/// go to every lap's daemon.
fn http_request(item: &AnnounceItem) -> Vec<u8> {
    let query = AnnounceRequest {
        info_hash: item.info_hash,
        peer_id: item.peer_id,
        port: item.port,
        uploaded: 0,
        downloaded: 0,
        left: item.left,
        event: item.event,
        numwant: NUMWANT,
        compact: true,
    }
    .to_query();
    format!(
        "GET /announce?{query}&t={}&ip={} HTTP/1.1\r\nHost: localhost\r\n\r\n",
        item.t, item.ip
    )
    .into_bytes()
}

/// Writes one request in a single write and reads its whole response.
/// Returns the body of a `200` response.
fn exchange_http(
    stream: &mut TcpStream,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> std::io::Result<Vec<u8>> {
    stream.write_all(request)?;
    buf.clear();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF8 head"))?;
            if !head.starts_with("HTTP/1.1 200") {
                return Err(bad("not a 200 response"));
            }
            let len: usize = head
                .split("\r\n")
                .find_map(|h| {
                    let (name, value) = h.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .ok_or_else(|| bad("no Content-Length"))?;
            let body = head_end + 4;
            if buf.len() >= body + len {
                return Ok(buf[body..body + len].to_vec());
            }
        }
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(bad("connection closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..got]);
    }
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// The daemon's work for each HTTP announce, in process: frame and parse
/// the request and its query, apply, sample, bencode the reply and frame
/// it with `write_ok`.
fn replay_http(script: &Script, requests: &[Vec<u8>], ledger: &Ledger) -> Replay {
    let plane = replay_plane(script);
    let (mut out, mut peers) = (Vec::new(), Vec::new());
    let mut r = Replay::default();
    ledger.span("replay.http", 0, 0, |_| {
        for raw in requests {
            let t0 = Instant::now();
            let (request, _) = http::try_parse_request(raw)
                .ok()
                .flatten()
                .expect("our own requests parse");
            let req = AnnounceRequest::from_query(&request.query).expect("our own queries decode");
            let (mut t, mut ip) = (0, 0);
            for (k, v) in urlencode::parse_query(&request.query) {
                let num = || std::str::from_utf8(&v).ok()?.parse::<u64>().ok();
                match k.as_str() {
                    "t" => t = num().unwrap_or(0),
                    "ip" => ip = num().unwrap_or(0) as u32,
                    _ => {}
                }
            }
            let item = AnnounceItem {
                info_hash: req.info_hash,
                peer_id: req.peer_id,
                t,
                left: req.left,
                event: req.event,
                ip,
                port: req.port,
            };
            let t1 = Instant::now();
            plane.apply_batch(std::slice::from_ref(&item), &mut out);
            let t2 = Instant::now();
            let served = out[0];
            let admitted = matches!(served.class, Class::Admitted | Class::Duplicate);
            if admitted {
                plane.sample_peers(&req.info_hash, (req.numwant as usize).min(74), &mut peers);
                r.samples += 1;
            }
            let t3 = Instant::now();
            let body = if admitted {
                AnnounceResponse::Ok {
                    interval: min_interval(SimTime(t)).secs() as u32,
                    complete: served.complete,
                    incomplete: served.incomplete,
                    peers: peers
                        .drain(..)
                        .map(|addr| PeerEntry {
                            peer_id: None,
                            addr,
                        })
                        .collect(),
                    compact: req.compact,
                }
            } else {
                AnnounceResponse::Failure("rate limited".into())
            }
            .encode();
            let mut framed = Vec::with_capacity(body.len() + 96);
            http::write_ok(&mut framed, &body).expect("writing into a Vec");
            std::hint::black_box(framed);
            let t4 = Instant::now();
            r.http_parse += t1 - t0;
            r.apply += t2 - t1;
            r.sample += t3 - t2;
            r.http_write += t4 - t3;
            r.exchanges += 1;
            r.announces += 1;
        }
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_garbage_free_and_capped() {
        let s = script(SINGLE_SCRIPT, 0, 500);
        assert_eq!(s.ops.len(), 500);
        assert!(s.ops.iter().all(|op| !op.garbled));
        // A scripted client's own announces stay in time order, which is
        // what lets the daemon land on the oracle's snapshot.
        assert!(s.ops.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn http_laps_replay_the_script_until_the_budget_is_spent() {
        // A two-announce lap runs out long before the budget: the run goes
        // on lap after lap, each on a fresh daemon checked against the
        // oracle, and ends because the budget ran out, not the script.
        let budget = Duration::from_millis(300);
        let h = ClosedLoop::http(0, 2);
        let lap = h.weights.len() as u64;
        let t0 = Instant::now();
        let o = run_closed(h, budget, 0.0, None);
        assert!(t0.elapsed() >= budget, "the run ended before its budget");
        assert!(o.correct && o.ops_failed == 0);
        assert!(o.ops > lap, "{} announces sent, {lap} a lap", o.ops);
    }

    #[test]
    fn http_request_round_trips_through_the_server_parser() {
        let s = script(HTTP_SCRIPT, 0, 4);
        let item = oracle::item_for(&s, &s.ops[0]);
        let raw = http_request(&item);
        let (request, used) = http::try_parse_request(&raw).unwrap().unwrap();
        assert_eq!(used, raw.len());
        assert!(request.keep_alive);
        let back = AnnounceRequest::from_query(&request.query).unwrap();
        assert_eq!(
            (back.info_hash, back.peer_id, back.left),
            (item.info_hash, item.peer_id, item.left)
        );
    }
}
