//! `btpub-serve`: the long-lived, multi-threaded tracker daemon — the
//! repository's only tracker with sockets.
//!
//! The in-process [`crate::sim::TrackerSim`] models one tracker for one
//! simulated crawl; everything that talks to a tracker over a real
//! socket talks to this daemon: the load generator, the live crawler
//! (`btpub-crawler::live`), the `live_tracker` example and the
//! live-network tests. It keeps swarm state sharded across locks
//! ([`shard::Plane`]), serves a BEP 15 UDP fast path plus an HTTP/1.1
//! keep-alive front end sharing that plane, and applies the
//! fault/enforcement machinery (`btpub-faults`) on the network path
//! itself. Live callers use `ServeConfig::new(seed, 1, 0)` — one shard,
//! no scripted torrents — and [`ServeDaemon::register`] the torrents
//! they publish. [`udp_client`] is the matching BEP 15 client.
//!
//! Everything is plain std sockets on readiness loops — no async
//! runtime. UDP workers share one non-blocking socket and burst-drain
//! it; TCP connections are accepted by one thread and serviced by a
//! small pool that accumulates bytes per connection and parses requests
//! incrementally ([`crate::http::try_parse_request`]).
//!
//! Determinism contract: every announce carries its *logical* timestamp
//! (batch frames natively; BEP 15 datagrams via a trailing extension;
//! HTTP via a `&t=` query parameter), so admission decisions depend only
//! on announce content, never on wall-clock arrival time. That is what
//! makes the daemon's final swarm snapshot comparable byte-for-byte
//! against an in-process oracle — see `DESIGN.md`.

pub mod load;
pub mod oracle;
pub mod script;
pub mod shard;
pub mod udp_client;
pub mod wire;

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use btpub_faults::{BreakerState, FaultProfile};
use btpub_obs::serde_json::Value;
use btpub_proto::tracker::{
    AnnounceRequest, AnnounceResponse, PeerEntry, ScrapeResponse,
};
use btpub_proto::types::InfoHash;
use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};
use btpub_proto::urlencode;
use btpub_sim::SimTime;

use crate::enforce::min_interval;
use crate::http;

use shard::{Plane, PlaneConfig};
use wire::{AnnounceItem, Class, Outcome};

/// Configuration of a [`ServeDaemon`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Seed: torrent registry, fault plan, connection-id secret.
    pub seed: u64,
    /// Swarm shard / enforcement stripe count.
    pub shards: usize,
    /// Pre-registered torrents (`0..torrents`).
    pub torrents: u32,
    /// Fault profile enforced on the announce path.
    pub profile: FaultProfile,
    /// UDP worker threads sharing the announce socket.
    pub udp_workers: usize,
    /// TCP worker threads servicing keep-alive connections.
    pub tcp_workers: usize,
    /// UDP bind port (`0` = ephemeral).
    pub udp_port: u16,
    /// TCP bind port (`0` = ephemeral).
    pub tcp_port: u16,
    /// Periodic run-manifest path (`None` = no emission). Written
    /// atomically, so `obs_diff --watch` and `btpub-ops bundle` never
    /// see a torn file; a final manifest is always written on shutdown.
    pub manifest: Option<PathBuf>,
    /// Seconds between periodic manifest writes.
    pub manifest_every_secs: u64,
}

impl ServeConfig {
    /// A clean-profile daemon with two workers per protocol on
    /// ephemeral ports.
    pub fn new(seed: u64, shards: usize, torrents: u32) -> ServeConfig {
        ServeConfig {
            seed,
            shards,
            torrents,
            profile: FaultProfile::clean(),
            udp_workers: 2,
            tcp_workers: 2,
            udp_port: 0,
            tcp_port: 0,
            manifest: None,
            manifest_every_secs: 5,
        }
    }
}

/// A running serving daemon: sharded plane + UDP and TCP front ends.
pub struct ServeDaemon {
    plane: Arc<Plane>,
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    secret: u64,
}

/// Stateless BEP 15 connection id: a hash of the daemon's secret and
/// the client address, so validating an announce needs no per-client
/// state (the scheme BEP 15 recommends). Real trackers rotate the secret
/// every couple of minutes; the daemon keeps one for its lifetime.
fn connection_id(secret: u64, client: SocketAddr) -> u64 {
    let ip = match client {
        SocketAddr::V4(v4) => u64::from(u32::from(*v4.ip())),
        SocketAddr::V6(_) => 0,
    };
    let mut z = secret ^ ip.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(client.port()) << 32;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl ServeDaemon {
    /// Binds both front ends and starts the worker pool. A port already
    /// in use surfaces here as the bind error, before any thread spawns.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServeDaemon> {
        let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, cfg.udp_port))?;
        udp.set_nonblocking(true)?;
        let tcp = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.tcp_port))?;
        tcp.set_nonblocking(true)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;
        let secret = cfg.seed ^ 0xC0FF_EE00_DEAD_BEEF;
        let plane = Arc::new(Plane::new(PlaneConfig {
            seed: cfg.seed,
            shards: cfg.shards,
            torrents: cfg.torrents,
            profile: cfg.profile.clone(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut handles = Vec::new();
        for i in 0..cfg.udp_workers.max(1) {
            let socket = udp.try_clone()?;
            let plane = Arc::clone(&plane);
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-udp-{i}"))
                    .spawn(move || udp_worker(socket, plane, secret, stop, epoch))?,
            );
        }
        let tcp_workers = cfg.tcp_workers.max(1);
        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..tcp_workers)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        for (i, inbox) in inboxes.iter().enumerate() {
            let inbox = Arc::clone(inbox);
            let plane = Arc::clone(&plane);
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-tcp-{i}"))
                    .spawn(move || tcp_worker(inbox, plane, stop, epoch))?,
            );
        }
        {
            let stop = Arc::clone(&stop);
            handles.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || accept_loop(tcp, inboxes, stop))?,
            );
        }
        if let Some(path) = cfg.manifest.clone() {
            let stop = Arc::clone(&stop);
            let every = Duration::from_secs(cfg.manifest_every_secs.max(1));
            let meta = manifest_meta(&cfg);
            handles.push(
                std::thread::Builder::new()
                    .name("serve-manifest".into())
                    .spawn(move || manifest_emitter(path, every, meta, stop))?,
            );
        }
        Ok(ServeDaemon {
            plane,
            udp_addr,
            tcp_addr,
            stop,
            handles,
            secret,
        })
    }

    /// The UDP front end's address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The TCP front end's address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The HTTP announce URL.
    pub fn announce_url(&self) -> String {
        format!("http://{}/announce", self.tcp_addr)
    }

    /// The shared swarm plane (the oracle comparisons read through
    /// this).
    pub fn plane(&self) -> &Arc<Plane> {
        &self.plane
    }

    /// The connection id the daemon would issue to `client`.
    pub fn expected_connection_id(&self, client: SocketAddr) -> u64 {
        connection_id(self.secret, client)
    }

    /// Registers a torrent so announces for it are accepted (see
    /// [`Plane::register`]).
    pub fn register(&self, ih: InfoHash) {
        self.plane.register(ih);
    }

    /// Stops accepting, drains every worker's pending input, joins all
    /// threads, and returns the final swarm snapshot. Idempotent with
    /// `Drop` (which only stops without snapshotting).
    pub fn shutdown(mut self) -> String {
        self.stop_and_join();
        self.plane.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The daemon's manifest metadata block. `fault_profile` and
/// `jobs_effective` use the same keys as `repro`/`btpub-monitor`
/// manifests so `obs_diff`'s cross-config guard applies unchanged.
fn manifest_meta(cfg: &ServeConfig) -> Vec<(&'static str, Value)> {
    vec![
        ("bin", Value::from("btpub-serve")),
        ("seed", Value::from(cfg.seed)),
        ("shards", Value::from(cfg.shards as u64)),
        ("torrents", Value::from(cfg.torrents)),
        ("fault_profile", Value::from(cfg.profile.name.as_str())),
        (
            "jobs_effective",
            Value::from((cfg.udp_workers.max(1) + cfg.tcp_workers.max(1)) as u64),
        ),
    ]
}

/// Periodic atomic manifest emission (the daemon-side twin of
/// btpub-monitor's `--manifest-every`). Live `serve.*`/`trace.*`
/// counters are digest-excluded, so two daemons serving the same script
/// still digest-compare clean. A final manifest is written when `stop`
/// is observed, so shutdown always leaves a complete snapshot for
/// `btpub-ops bundle`.
fn manifest_emitter(
    path: PathBuf,
    every: Duration,
    meta: Vec<(&'static str, Value)>,
    stop: Arc<AtomicBool>,
) {
    let emit = || {
        let manifest = btpub_obs::manifest::build(btpub_obs::global(), &meta);
        if let Err(e) = btpub_obs::manifest::write(&path, &manifest) {
            btpub_obs::warn!("manifest write failed"; path = path.display(), error = e);
        }
    };
    let mut last = Instant::now();
    emit();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        if last.elapsed() >= every {
            emit();
            last = Instant::now();
        }
    }
    emit();
}

/// UDP readiness worker: burst-drains the shared non-blocking socket.
/// On shutdown the worker exits only once the socket reads empty, so
/// every datagram the kernel accepted before `stop` is applied.
fn udp_worker(
    socket: UdpSocket,
    plane: Arc<Plane>,
    secret: u64,
    stop: Arc<AtomicBool>,
    epoch: Instant,
) {
    let queue_depth = btpub_obs::histogram("serve.udp.queue_depth");
    let mut buf = [0u8; 32 * 1024];
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut peers = Vec::new();
    let mut burst = 0u64;
    loop {
        match socket.recv_from(&mut buf) {
            Ok((len, from)) => {
                burst += 1;
                handle_datagram(
                    &socket,
                    &buf[..len],
                    from,
                    &plane,
                    secret,
                    epoch,
                    &mut outcomes,
                    &mut peers,
                );
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if burst > 0 {
                    queue_depth.record(burst);
                    burst = 0;
                }
                // Socket empty: this is the only exit, which is what
                // makes shutdown a clean drain.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_micros(300));
            }
            Err(_) => return,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_datagram(
    socket: &UdpSocket,
    data: &[u8],
    from: SocketAddr,
    plane: &Plane,
    secret: u64,
    epoch: Instant,
    outcomes: &mut Vec<Outcome>,
    peers: &mut Vec<std::net::SocketAddrV4>,
) {
    let now_secs = epoch.elapsed().as_secs();
    // Batch fast path: one datagram, up to MAX_BATCH announces.
    if wire::is_batch(data) {
        match wire::decode_batch(data) {
            Some((txn, items)) => {
                plane.note_decoded();
                plane.apply_batch(&items, outcomes);
                let _ = socket.send_to(&wire::encode_batch_response(txn, outcomes), from);
            }
            None => {
                let _ = plane.note_garbled_frame(now_secs, data);
            }
        }
        return;
    }
    let request = match UdpRequest::decode(data) {
        Ok(r) => r,
        Err(_) => {
            // Garbage. Count it (exact retransmits dedup to
            // `duplicate`); pay for a polite error reply only while
            // the circuit breaker is closed.
            if plane.note_garbled_frame(now_secs, data) && data.len() >= 16 {
                let txn = u32::from_be_bytes([data[12], data[13], data[14], data[15]]);
                let reply = UdpResponse::Error {
                    transaction_id: txn,
                    message: "cannot parse request".into(),
                };
                let _ = socket.send_to(&reply.encode(), from);
            }
            return;
        }
    };
    plane.note_decoded();
    let expected = connection_id(secret, from);
    let reply = match request {
        UdpRequest::Connect { transaction_id } => Some(UdpResponse::Connect {
            transaction_id,
            connection_id: expected,
        }),
        UdpRequest::Announce {
            connection_id: cid,
            transaction_id,
            info_hash,
            peer_id,
            left,
            event,
            num_want,
            port,
            ..
        } => {
            if cid != expected {
                Some(UdpResponse::Error {
                    transaction_id,
                    message: "invalid connection id".into(),
                })
            } else {
                // Logical clock rides in the trailing extension; an
                // unscripted client just gets daemon-uptime seconds.
                let t = wire::sim_time_ext(data).unwrap_or(now_secs);
                let ip = wire::announce_ip(data).unwrap_or(match from {
                    SocketAddr::V4(v4) => u32::from(*v4.ip()),
                    SocketAddr::V6(_) => u32::from(Ipv4Addr::LOCALHOST),
                });
                let item = AnnounceItem {
                    info_hash,
                    peer_id,
                    t,
                    left,
                    event,
                    ip,
                    port,
                };
                plane.apply_batch(std::slice::from_ref(&item), outcomes);
                let out = outcomes[0];
                match out.class {
                    Class::Admitted | Class::Duplicate => {
                        let numwant = if num_want == u32::MAX { 50 } else { num_want };
                        reply_peers(plane, &item, numwant as usize, peers);
                        Some(UdpResponse::Announce {
                            transaction_id,
                            interval: min_interval(SimTime(t)).secs() as u32,
                            leechers: out.incomplete,
                            seeders: out.complete,
                            peers: std::mem::take(peers),
                        })
                    }
                    Class::RateLimited => Some(UdpResponse::Error {
                        transaction_id,
                        message: "rate limited".into(),
                    }),
                    Class::Blacklisted => Some(UdpResponse::Error {
                        transaction_id,
                        message: "blacklisted".into(),
                    }),
                    Class::Unknown => Some(UdpResponse::Error {
                        transaction_id,
                        message: "torrent not registered".into(),
                    }),
                    // Downtime/drops swallow the datagram — the client's
                    // retransmit ladder (and the load generator's fault
                    // plan) deal with the silence.
                    Class::Down | Class::Dropped => None,
                    Class::Malformed => {
                        // State is mutated; the reply is corrupted.
                        let _ = socket.send_to(&wire::garbage(secret, u64::from(transaction_id)), from);
                        None
                    }
                }
            }
        }
        UdpRequest::Scrape {
            connection_id: cid,
            transaction_id,
            info_hashes,
        } => {
            if cid != expected {
                Some(UdpResponse::Error {
                    transaction_id,
                    message: "invalid connection id".into(),
                })
            } else {
                Some(UdpResponse::Scrape {
                    transaction_id,
                    entries: info_hashes.iter().map(|ih| plane.scrape(ih)).collect(),
                })
            }
        }
    };
    if let Some(r) = reply {
        let _ = socket.send_to(&r.encode(), from);
    }
}

/// Most peers one announce reply lists.
const MAX_REPLY_PEERS: usize = 74;

/// Fills `peers` with up to `numwant` (at most [`MAX_REPLY_PEERS`])
/// members of the announcer's swarm, leaving out the announcer's own
/// `(ip, port)`: a crawler handed its own address would probe itself.
fn reply_peers(
    plane: &Plane,
    item: &AnnounceItem,
    numwant: usize,
    peers: &mut Vec<std::net::SocketAddrV4>,
) {
    let numwant = numwant.min(MAX_REPLY_PEERS);
    plane.sample_peers(&item.info_hash, numwant + 1, peers);
    let own = std::net::SocketAddrV4::new(item.ip.into(), item.port);
    peers.retain(|p| *p != own);
    peers.truncate(numwant);
}

/// Accept loop: hands fresh connections to workers round-robin.
fn accept_loop(
    listener: TcpListener,
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    stop: Arc<AtomicBool>,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    inboxes[next % inboxes.len()].lock().push(stream);
                    next += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

/// One TCP connection's accumulation state.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    closing: bool,
}

/// TCP readiness worker: accumulates bytes per connection, parses
/// requests incrementally, answers with Content-Length-framed responses
/// so keep-alive clients can pipeline.
fn tcp_worker(
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    plane: Arc<Plane>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut outcomes = Vec::new();
    let mut peers = Vec::new();
    loop {
        {
            let mut pending = inbox.lock();
            conns.extend(pending.drain(..).map(|stream| Conn {
                stream,
                buf: Vec::new(),
                closing: false,
            }));
        }
        let mut active = false;
        conns.retain_mut(|conn| {
            match pump_conn(conn, &plane, epoch, &mut chunk, &mut outcomes, &mut peers) {
                PumpResult::Idle => true,
                PumpResult::Active => {
                    active = true;
                    true
                }
                PumpResult::Closed => false,
            }
        });
        if !active {
            if stop.load(Ordering::SeqCst) && inbox.lock().is_empty() {
                // One idle pass with stop set: every buffered request
                // has been answered; drop remaining idle connections.
                return;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    }
}

enum PumpResult {
    Idle,
    Active,
    Closed,
}

/// Services one connection: non-blocking read, incremental parse,
/// framed response.
fn pump_conn(
    conn: &mut Conn,
    plane: &Plane,
    epoch: Instant,
    chunk: &mut [u8],
    outcomes: &mut Vec<Outcome>,
    peers: &mut Vec<std::net::SocketAddrV4>,
) -> PumpResult {
    let mut active = false;
    // Drain whatever the kernel has.
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return PumpResult::Closed,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                active = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return PumpResult::Closed,
        }
    }
    // Parse and answer every complete request in the buffer, in order.
    loop {
        match http::try_parse_request(&conn.buf) {
            Ok(Some((request, used))) => {
                conn.buf.drain(..used);
                active = true;
                let from_ip = match conn.stream.peer_addr() {
                    Ok(SocketAddr::V4(v4)) => *v4.ip(),
                    _ => Ipv4Addr::LOCALHOST,
                };
                let body = respond_http(plane, &request, from_ip, epoch, outcomes, peers);
                let mut writer = BlockingWriter {
                    stream: &mut conn.stream,
                };
                let write = match body {
                    HttpReply::Ok(bytes) => http::write_ok(&mut writer, &bytes),
                    HttpReply::NotFound => http::write_error(&mut writer, 404, "Not Found"),
                };
                if write.is_err() {
                    return PumpResult::Closed;
                }
                if !request.keep_alive {
                    conn.closing = true;
                }
            }
            Ok(None) => break,
            Err(_) => {
                // Garbage on the wire: count it, answer 400, hang up.
                let _ = plane.note_garbled(epoch.elapsed().as_secs());
                let mut writer = BlockingWriter {
                    stream: &mut conn.stream,
                };
                let _ = http::write_error(&mut writer, 400, "Bad Request");
                return PumpResult::Closed;
            }
        }
    }
    if conn.closing && conn.buf.is_empty() {
        return PumpResult::Closed;
    }
    if active {
        PumpResult::Active
    } else {
        PumpResult::Idle
    }
}

/// Adapter that turns `WouldBlock` into a short sleep + retry so the
/// framed-response writers in [`http`] work on non-blocking sockets
/// (responses are small and loopback buffers absorb them, but a
/// pipelining client can fill the window mid-response).
struct BlockingWriter<'a> {
    stream: &'a mut TcpStream,
}

impl Write for BlockingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        loop {
            match self.stream.flush() {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => return other,
            }
        }
    }
}

enum HttpReply {
    Ok(Vec<u8>),
    NotFound,
}

/// Dispatches one HTTP request against the plane.
fn respond_http(
    plane: &Plane,
    request: &http::Request,
    from_ip: Ipv4Addr,
    epoch: Instant,
    outcomes: &mut Vec<Outcome>,
    peers: &mut Vec<std::net::SocketAddrV4>,
) -> HttpReply {
    match request.path.as_str() {
        // Successfully parsed tracker traffic closes the garble
        // breaker's failure streak, mirroring the UDP path. The ops
        // endpoints below deliberately do not: a monitoring probe
        // polling `/healthz` must not clear an open incident.
        "/announce" => {
            plane.note_decoded();
            HttpReply::Ok(announce_http(
                plane, &request.query, from_ip, epoch, outcomes, peers,
            ))
        }
        "/scrape" => {
            plane.note_decoded();
            let mut files = Vec::new();
            for (k, v) in urlencode::parse_query(&request.query) {
                if k == "info_hash" {
                    if let Ok(arr) = <[u8; 20]>::try_from(v.as_slice()) {
                        let ih = InfoHash(arr);
                        if plane.is_registered(&ih) {
                            files.push((ih, plane.scrape(&ih)));
                        }
                    }
                }
            }
            HttpReply::Ok(ScrapeResponse { files }.encode())
        }
        "/snapshot" => HttpReply::Ok(plane.snapshot().into_bytes()),
        "/stats" => {
            let c = plane.counts();
            let shards = plane.shard_announce_counts();
            HttpReply::Ok(format!("{c:?}\nshards={shards:?}\n").into_bytes())
        }
        "/metrics" => {
            btpub_obs::counter("serve.http.metrics").inc();
            HttpReply::Ok(metrics_body(&request.query))
        }
        "/healthz" => {
            btpub_obs::counter("serve.http.healthz").inc();
            HttpReply::Ok(healthz_body(plane, epoch.elapsed().as_secs()))
        }
        "/trace/snapshot" => {
            btpub_obs::counter("serve.http.trace_snapshot").inc();
            let snap = btpub_obs::trace::snapshot_last(2048);
            let trace = btpub_obs::trace::chrome_trace(&snap);
            HttpReply::Ok(trace.to_string().into_bytes())
        }
        _ => HttpReply::NotFound,
    }
}

/// `/metrics`: the full registry as a text report, or as the same JSON
/// snapshot a manifest embeds when the query asks for
/// `format=json`.
fn metrics_body(query: &str) -> Vec<u8> {
    let json = query.split('&').any(|kv| kv == "format=json");
    if json {
        let mut text = btpub_obs::global().snapshot().to_string();
        text.push('\n');
        text.into_bytes()
    } else {
        btpub_obs::text_report(btpub_obs::global()).into_bytes()
    }
}

/// `/healthz`: readiness plus a breaker/fault one-pager. The daemon is
/// `ok` while its garble breaker is closed and `degraded` while the
/// breaker refuses traffic — it still answers, which is the point of a
/// health endpoint on a struggling daemon.
fn healthz_body(plane: &Plane, now_secs: u64) -> Vec<u8> {
    use std::fmt::Write;
    let (state, retry_at) = plane.breaker_status(now_secs);
    let mut out = String::new();
    let status = match state {
        BreakerState::Open => "degraded",
        BreakerState::Closed | BreakerState::HalfOpen => "ok",
    };
    let _ = writeln!(out, "status={status}");
    let _ = writeln!(out, "profile={}", plane.config().profile.name);
    let _ = writeln!(
        out,
        "breaker.serve state={} retry_at={}",
        match state {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        },
        retry_at.map_or_else(|| "-".into(), |t| t.to_string()),
    );
    let _ = writeln!(
        out,
        "trace armed={} full_rate={}",
        u8::from(btpub_obs::trace::enabled()),
        u8::from(btpub_obs::trace::full_rate_active()),
    );
    let c = plane.counts();
    let _ = writeln!(
        out,
        "counts admitted={} rate_limited={} blacklisted={} unknown={} \
         down={} dropped={} malformed={} garbled={}",
        c.admitted,
        c.rate_limited,
        c.blacklisted,
        c.unknown,
        c.down,
        c.dropped,
        c.malformed,
        c.garbled
    );
    // Flight-recorder loss accounting: a lossy trace is worth knowing
    // about before anyone reads `/trace/snapshot`.
    let (mut dropped, mut capped) = (0u64, 0u64);
    for (name, v) in btpub_obs::global().counters() {
        if name.starts_with("trace.dropped.") {
            dropped += v;
        } else if name.starts_with("trace.capped.") {
            capped += v;
        }
    }
    let _ = writeln!(out, "trace.dropped={dropped} trace.capped={capped}");
    out.into_bytes()
}

/// The HTTP announce endpoint. Standard BitTorrent query parameters,
/// plus the serving extensions `&t=<secs>` (logical clock) and
/// `&ip=<u32>` (scripted source address). Every refusal is a bencoded
/// `failure reason` in a `200 OK` so the keep-alive framing survives.
fn announce_http(
    plane: &Plane,
    query: &str,
    from_ip: Ipv4Addr,
    epoch: Instant,
    outcomes: &mut Vec<Outcome>,
    peers: &mut Vec<std::net::SocketAddrV4>,
) -> Vec<u8> {
    let req = match AnnounceRequest::from_query(query) {
        Ok(r) => r,
        Err(_) => return AnnounceResponse::Failure("malformed announce".into()).encode(),
    };
    let mut t = None;
    let mut ip = None;
    for (k, v) in urlencode::parse_query(query) {
        let parse = || std::str::from_utf8(&v).ok()?.parse::<u64>().ok();
        match k.as_str() {
            "t" => t = parse(),
            "ip" => ip = parse().and_then(|x| u32::try_from(x).ok()),
            _ => {}
        }
    }
    let t = t.unwrap_or_else(|| epoch.elapsed().as_secs());
    let item = AnnounceItem {
        info_hash: req.info_hash,
        peer_id: req.peer_id,
        t,
        left: req.left,
        event: req.event,
        ip: ip.unwrap_or_else(|| u32::from(from_ip)),
        port: req.port,
    };
    plane.apply_batch(std::slice::from_ref(&item), outcomes);
    let out = outcomes[0];
    let failure = |msg: &str| AnnounceResponse::Failure(msg.into()).encode();
    match out.class {
        Class::Admitted | Class::Duplicate => {
            reply_peers(plane, &item, req.numwant as usize, peers);
            AnnounceResponse::Ok {
                interval: min_interval(SimTime(t)).secs() as u32,
                complete: out.complete,
                incomplete: out.incomplete,
                peers: peers
                    .drain(..)
                    .map(|addr| PeerEntry {
                        peer_id: None,
                        addr,
                    })
                    .collect(),
                compact: req.compact,
            }
            .encode()
        }
        Class::RateLimited => failure("rate limited"),
        Class::Blacklisted => failure("blacklisted"),
        Class::Unknown => failure("torrent not registered"),
        // TCP is reliable, so injected downtime/drops must still answer
        // *something* — a failure naming the fault, which the load
        // generator classifies.
        Class::Down => failure("tracker down"),
        Class::Dropped => failure("dropped"),
        // State mutated, reply corrupted: undecodable bencode.
        Class::Malformed => b"d\xff\xffgarbled".to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpub_proto::tracker::AnnounceEvent;
    use wire::{info_hash_for, peer_id_for};

    fn daemon(seed: u64, shards: usize, torrents: u32) -> ServeDaemon {
        ServeDaemon::start(ServeConfig::new(seed, shards, torrents)).unwrap()
    }

    fn udp_client() -> UdpSocket {
        let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s
    }

    #[test]
    fn udp_batch_roundtrip() {
        let d = daemon(11, 4, 8);
        let sock = udp_client();
        let items: Vec<AnnounceItem> = (0..10u32)
            .map(|i| AnnounceItem {
                info_hash: info_hash_for(11, i % 8),
                peer_id: peer_id_for(100 + i),
                t: 1000 + u64::from(i),
                left: 0,
                event: AnnounceEvent::Started,
                ip: 100 + i,
                port: 6881,
            })
            .collect();
        sock.send_to(&wire::encode_batch(7, &items), d.udp_addr()).unwrap();
        let mut buf = [0u8; 32 * 1024];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        let (txn, outcomes) = wire::decode_batch_response(&buf[..len]).unwrap();
        assert_eq!(txn, 7);
        assert_eq!(outcomes.len(), 10);
        assert!(outcomes.iter().all(|o| o.class == Class::Admitted));
        let snap = d.shutdown();
        assert!(snap.contains("counts admitted=10"), "{snap}");
    }

    #[test]
    fn bep15_announce_with_logical_clock() {
        let d = daemon(12, 2, 4);
        let sock = udp_client();
        let cid = udp_client::connect(&sock, d.udp_addr(), 1).unwrap();
        assert_eq!(
            cid,
            d.expected_connection_id(sock.local_addr().unwrap())
        );
        let req = UdpRequest::Announce {
            connection_id: cid,
            transaction_id: 2,
            info_hash: info_hash_for(12, 3),
            peer_id: peer_id_for(500),
            downloaded: 0,
            left: 100,
            uploaded: 0,
            event: AnnounceEvent::Started,
            num_want: 10,
            port: 9000,
        };
        let mut datagram = req.encode();
        wire::set_announce_ip(&mut datagram, 500);
        wire::append_sim_time(&mut datagram, 7200);
        sock.send_to(&datagram, d.udp_addr()).unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        match UdpResponse::decode(&buf[..len]).unwrap() {
            UdpResponse::Announce {
                transaction_id,
                interval,
                leechers,
                seeders,
                ..
            } => {
                assert_eq!(transaction_id, 2);
                assert_eq!((seeders, leechers), (0, 1));
                // Interval derives from the *logical* clock (hour 2).
                assert_eq!(
                    u64::from(interval),
                    min_interval(SimTime(7200)).secs()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // The scripted ip (500) landed in the snapshot, not 127.0.0.1.
        let snap = d.shutdown();
        let peer = wire::client_of(&peer_id_for(500));
        assert!(
            snap.contains(&format!("peer {peer} ip=500 port=9000 left=100")),
            "{snap}"
        );
    }

    #[test]
    fn forged_connection_id_rejected() {
        let d = daemon(13, 1, 1);
        let sock = udp_client();
        let req = UdpRequest::Announce {
            connection_id: 0xDEAD,
            transaction_id: 3,
            info_hash: info_hash_for(13, 0),
            peer_id: peer_id_for(1),
            downloaded: 0,
            left: 0,
            uploaded: 0,
            event: AnnounceEvent::Started,
            num_want: 0,
            port: 1,
        };
        sock.send_to(&req.encode(), d.udp_addr()).unwrap();
        let mut buf = [0u8; 512];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        match UdpResponse::decode(&buf[..len]).unwrap() {
            UdpResponse::Error { message, .. } => assert!(message.contains("connection id")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn borrowed_connection_id_rejected() {
        // An id handed to one client is no good from another address.
        let d = daemon(13, 1, 1);
        let owner = udp_client();
        let cid = udp_client::connect(&owner, d.udp_addr(), 1).unwrap();
        let thief = udp_client();
        let req = UdpRequest::Announce {
            connection_id: cid,
            transaction_id: 4,
            info_hash: info_hash_for(13, 0),
            peer_id: peer_id_for(2),
            downloaded: 0,
            left: 0,
            uploaded: 0,
            event: AnnounceEvent::Started,
            num_want: 10,
            port: 1,
        };
        thief.send_to(&req.encode(), d.udp_addr()).unwrap();
        let mut buf = [0u8; 512];
        let (len, _) = thief.recv_from(&mut buf).unwrap();
        match UdpResponse::decode(&buf[..len]).unwrap() {
            UdpResponse::Error { message, .. } => assert!(message.contains("connection id")),
            other => panic!("unexpected {other:?}"),
        }
        // The owner's own announce with the same id is accepted.
        owner.send_to(&req.encode(), d.udp_addr()).unwrap();
        let (len, _) = owner.recv_from(&mut buf).unwrap();
        match UdpResponse::decode(&buf[..len]).unwrap() {
            UdpResponse::Announce { transaction_id, .. } => assert_eq!(transaction_id, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn http_announce_scrape_and_snapshot() {
        let d = daemon(14, 4, 4);
        let net = btpub_faults::NetConfig::loopback_test();
        let mut session =
            crate::client::HttpSession::connect(&d.announce_url(), &net).unwrap();
        let req = AnnounceRequest {
            info_hash: info_hash_for(14, 1),
            peer_id: peer_id_for(42),
            port: 7777,
            uploaded: 0,
            downloaded: 0,
            left: 0,
            event: AnnounceEvent::Started,
            numwant: 50,
            compact: true,
        };
        let r = session.announce(&req, "&t=3600&ip=42").unwrap();
        assert!(matches!(r, AnnounceResponse::Ok { complete: 1, .. }), "{r:?}");
        let scrape = session.scrape(&[info_hash_for(14, 1)]).unwrap();
        assert_eq!(scrape.files[0].1.complete, 1);
        let snap_bytes = session.get("/snapshot").unwrap();
        let snap = String::from_utf8(snap_bytes).unwrap();
        let peer = wire::client_of(&peer_id_for(42));
        assert!(
            snap.contains(&format!("peer {peer} ip=42 port=7777 left=0")),
            "{snap}"
        );
        assert_eq!(snap, d.shutdown());
    }

    #[test]
    fn http_refusals_are_failure_responses() {
        let d = daemon(15, 2, 2);
        let net = btpub_faults::NetConfig::loopback_test();
        let mut session =
            crate::client::HttpSession::connect(&d.announce_url(), &net).unwrap();
        let mut req = AnnounceRequest {
            info_hash: info_hash_for(15, 0),
            peer_id: peer_id_for(9),
            port: 1,
            uploaded: 0,
            downloaded: 0,
            left: 5,
            event: AnnounceEvent::Interval,
            numwant: 0,
            compact: true,
        };
        assert!(matches!(
            session.announce(&req, "&t=1000").unwrap(),
            AnnounceResponse::Ok { .. }
        ));
        // Immediate re-announce: rate limited.
        match session.announce(&req, "&t=1030").unwrap() {
            AnnounceResponse::Failure(msg) => assert_eq!(msg, "rate limited"),
            other => panic!("unexpected {other:?}"),
        }
        // Unregistered torrent.
        req.info_hash = info_hash_for(15, 77);
        match session.announce(&req, "&t=1060").unwrap() {
            AnnounceResponse::Failure(msg) => assert_eq!(msg, "torrent not registered"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ops_endpoints_and_periodic_manifest() {
        let dir = std::env::temp_dir().join(format!("btpub-serve-ops-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join("serve-manifest.json");
        let mut cfg = ServeConfig::new(18, 2, 4);
        cfg.manifest = Some(manifest_path.clone());
        cfg.manifest_every_secs = 1;
        let d = ServeDaemon::start(cfg).unwrap();
        let net = btpub_faults::NetConfig::loopback_test();
        let mut session =
            crate::client::HttpSession::connect(&d.announce_url(), &net).unwrap();
        let health = String::from_utf8(session.get("/healthz").unwrap()).unwrap();
        assert!(health.starts_with("status=ok"), "{health}");
        assert!(health.contains("profile=clean"), "{health}");
        assert!(health.contains("breaker.serve state=closed retry_at=-"), "{health}");
        assert!(health.contains("counts admitted=0"), "{health}");
        assert!(health.contains("trace.dropped="), "{health}");
        // The text report includes the endpoint-hit counter the healthz
        // request above just bumped.
        let text = String::from_utf8(session.get("/metrics").unwrap()).unwrap();
        assert!(text.contains("serve.http.healthz"), "{text}");
        let json: Value = btpub_obs::serde_json::from_str(
            &String::from_utf8(session.get("/metrics?format=json").unwrap()).unwrap(),
        )
        .unwrap();
        assert!(json["counters"]["serve.http.metrics"].as_u64() >= Some(1), "{json}");
        // The trace snapshot is valid Chrome trace JSON even disarmed.
        let trace: Value = btpub_obs::serde_json::from_str(
            &String::from_utf8(session.get("/trace/snapshot").unwrap()).unwrap(),
        )
        .unwrap();
        assert!(trace["traceEvents"].as_array().is_some(), "{trace}");
        // Shutdown always leaves a final, complete manifest behind.
        drop(session);
        d.shutdown();
        let manifest: Value = btpub_obs::serde_json::from_str(
            &std::fs::read_to_string(&manifest_path).unwrap(),
        )
        .unwrap();
        assert_eq!(manifest["bin"].as_str(), Some("btpub-serve"));
        assert_eq!(manifest["fault_profile"].as_str(), Some("clean"));
        assert!(manifest["metrics_digest"].as_str().is_some(), "{manifest}");
        assert!(manifest["snapshot"]["counters"].as_object().is_some(), "{manifest}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn port_in_use_surfaces_as_bind_error() {
        let holder = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let port = holder.local_addr().unwrap().port();
        let mut cfg = ServeConfig::new(16, 1, 1);
        cfg.tcp_port = port;
        let err = match ServeDaemon::start(cfg) {
            Err(e) => e,
            Ok(_) => panic!("bind to an occupied port must fail"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    }

    #[test]
    fn garbage_udp_is_counted_not_fatal() {
        let d = daemon(17, 1, 2);
        let sock = udp_client();
        sock.send_to(&wire::garbage(17, 0), d.udp_addr()).unwrap();
        // The daemon answers a polite error while the breaker is closed.
        let mut buf = [0u8; 512];
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        assert!(matches!(
            UdpResponse::decode(&buf[..len]).unwrap(),
            UdpResponse::Error { .. }
        ));
        // And still serves real traffic afterwards.
        let items = [AnnounceItem {
            info_hash: info_hash_for(17, 0),
            peer_id: peer_id_for(1),
            t: 10,
            left: 0,
            event: AnnounceEvent::Started,
            ip: 1,
            port: 1,
        }];
        sock.send_to(&wire::encode_batch(1, &items), d.udp_addr()).unwrap();
        let (len, _) = sock.recv_from(&mut buf).unwrap();
        let (_, outcomes) = wire::decode_batch_response(&buf[..len]).unwrap();
        assert_eq!(outcomes[0].class, Class::Admitted);
        assert_eq!(d.plane().counts().garbled, 1);
    }

    /// A live-style daemon (one shard, nothing scripted) serving `ih`.
    fn live_daemon(seed: u64, ih: InfoHash) -> ServeDaemon {
        let d = daemon(seed, 1, 0);
        d.register(ih);
        d
    }

    fn announce_req(ih: InfoHash, id: u8, left: u64) -> AnnounceRequest {
        AnnounceRequest {
            info_hash: ih,
            peer_id: btpub_proto::types::PeerId([id; 20]),
            port: 6881 + u16::from(id),
            uploaded: 0,
            downloaded: 0,
            left,
            event: AnnounceEvent::Started,
            numwant: 50,
            compact: true,
        }
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let ih = InfoHash([6; 20]);
        let d = live_daemon(43, ih);
        let stream = TcpStream::connect(d.tcp_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Three announces written back-to-back before reading anything:
        // the daemon must frame each response with an exact
        // Content-Length and answer in request order.
        let mut wire = Vec::new();
        for (id, left) in [(1u8, 0u64), (2, 100), (3, 100)] {
            let q = announce_req(ih, id, left).to_query();
            write!(wire, "GET /announce?{q} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        }
        (&stream).write_all(&wire).unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let body = http::read_response_from(&mut reader).unwrap();
            match AnnounceResponse::decode(&body).unwrap() {
                AnnounceResponse::Ok {
                    complete,
                    incomplete,
                    ..
                } => seen.push((complete, incomplete)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Responses arrive in request order: the swarm grows monotonically.
        assert_eq!(seen, vec![(1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn http_1_0_connection_closes_after_response() {
        let ih = InfoHash([7; 20]);
        let d = live_daemon(44, ih);
        let stream = TcpStream::connect(d.tcp_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let q = announce_req(ih, 1, 0).to_query();
        write!(&stream, "GET /announce?{q} HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let body = http::read_response_from(&mut reader).unwrap();
        assert!(AnnounceResponse::decode(&body).is_ok());
        // The daemon hangs up: the next read sees EOF.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }

    /// A single-peer swarm answers with an empty peer list: the
    /// announcer is never handed its own address.
    #[test]
    fn udp_announce_lifecycle() {
        let ih = InfoHash([7; 20]);
        let d = live_daemon(99, ih);
        let peer = btpub_proto::types::PeerId;
        // Seeder announces.
        let out = udp_client::announce(
            d.udp_addr(),
            ih,
            peer([1; 20]),
            6881,
            0,
            AnnounceEvent::Started,
            50,
        )
        .unwrap();
        assert_eq!((out.seeders, out.leechers), (1, 0));
        assert!(out.peers.is_empty(), "no other peers yet");
        // An unscripted announce runs on daemon uptime, hour 0.
        assert_eq!(u64::from(out.interval), min_interval(SimTime(0)).secs());
        // Leecher announces and sees the seeder.
        let out = udp_client::announce(
            d.udp_addr(),
            ih,
            peer([2; 20]),
            6882,
            100,
            AnnounceEvent::Started,
            50,
        )
        .unwrap();
        assert_eq!((out.seeders, out.leechers), (1, 1));
        assert_eq!(out.peers.len(), 1);
        assert_eq!(out.peers[0].port(), 6881);
    }

    #[test]
    fn udp_scrape_counts() {
        let ih = InfoHash([8; 20]);
        let d = live_daemon(99, ih);
        let peer = btpub_proto::types::PeerId;
        udp_client::announce(
            d.udp_addr(),
            ih,
            peer([1; 20]),
            1,
            0,
            AnnounceEvent::Started,
            0,
        )
        .unwrap();
        udp_client::announce(
            d.udp_addr(),
            ih,
            peer([2; 20]),
            2,
            0,
            AnnounceEvent::Completed,
            0,
        )
        .unwrap();
        let entries = udp_client::scrape(d.udp_addr(), vec![ih, InfoHash([9; 20])]).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].complete, 2);
        assert_eq!(entries[0].downloaded, 1);
        assert_eq!(
            entries[1],
            btpub_proto::tracker::ScrapeEntry::default(),
            "unknown hash zeroed"
        );
    }

    #[test]
    fn unregistered_torrent_errors() {
        let d = daemon(99, 1, 0);
        let err = udp_client::announce(
            d.udp_addr(),
            InfoHash([0xEE; 20]),
            btpub_proto::types::PeerId([1; 20]),
            1,
            0,
            AnnounceEvent::Started,
            0,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not registered"));
    }

    #[test]
    fn connection_ids_differ_per_client() {
        let d = daemon(99, 1, 0);
        let a: SocketAddr = "127.0.0.1:5001".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:5002".parse().unwrap();
        assert_ne!(d.expected_connection_id(a), d.expected_connection_id(b));
    }
}
