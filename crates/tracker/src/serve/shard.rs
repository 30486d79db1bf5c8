//! The sharded swarm plane: all tracker state behind the serving
//! daemon, partitioned so the global registry mutex disappears from the
//! hot path.
//!
//! Two independent shard planes, because the two kinds of state have
//! different keys:
//!
//! * **Swarm shards**, keyed by `fxhash(info_hash) % N`: each shard
//!   owns the peer tables of its torrents *and its own peer-id
//!   interner* (symbols are shard-local, so interning never crosses a
//!   shard boundary — the locality PR 4 bought in-process is preserved
//!   under concurrency).
//! * **Enforcement stripes**, keyed by `client % N`: the shared
//!   [`Enforcer`] rate-limit/strike/blacklist state. A client's
//!   admission depends only on its own history, so striping by client
//!   keeps every decision on one lock.
//!
//! Announces are applied in batches: admission for all items of a batch
//! is decided stripe-by-stripe (one lock acquisition per touched
//! stripe), then mutations are applied shard-by-shard. Within a batch,
//! items are always visited in arrival order, so one client's announces
//! can never be reordered — the property the oracle-equality argument
//! in DESIGN.md rests on.

use std::hash::Hasher;
use std::net::SocketAddrV4;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use btpub_faults::{key, points, BreakerState, CircuitBreaker, FaultPlan, FaultProfile};
use btpub_fxhash::{FxHashMap, FxHashSet, FxHasher};
use btpub_proto::tracker::{AnnounceEvent, ScrapeEntry};
use btpub_proto::types::{InfoHash, PeerId};
use btpub_sim::{SimTime, TorrentId};

use crate::enforce::{Admission, Enforcer};

use super::wire::{client_of, info_hash_for, torrent_of, AnnounceItem, Class, Outcome};

/// Configuration of a [`Plane`].
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Seed for info-hash derivation, fault plans and peer sampling.
    pub seed: u64,
    /// Swarm shard / enforcement stripe count.
    pub shards: usize,
    /// Number of pre-registered torrents (ids `0..torrents`, hashes via
    /// [`info_hash_for`]).
    pub torrents: u32,
    /// Fault profile injected on the announce path (`clean` = none).
    pub profile: FaultProfile,
}

impl PlaneConfig {
    /// A plane with the given shard count and everything else default.
    pub fn new(seed: u64, shards: usize, torrents: u32) -> PlaneConfig {
        PlaneConfig {
            seed,
            shards,
            torrents,
            profile: FaultProfile::clean(),
        }
    }
}

/// Deterministic announce counters, kept per plane instance (the global
/// `obs` registry would mix daemon and oracle when both run in one
/// process). Everything here is a pure function of the applied announce
/// sequence, so it participates in snapshot equality.
#[derive(Default)]
struct Counts {
    admitted: AtomicU64,
    rate_limited: AtomicU64,
    blacklisted: AtomicU64,
    unknown: AtomicU64,
    down: AtomicU64,
    dropped: AtomicU64,
    malformed: AtomicU64,
    garbled: AtomicU64,
    /// Wall-timing dependent (retransmits), hence *not* in snapshots.
    duplicate: AtomicU64,
}

/// A point-in-time copy of a plane's deterministic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountsSnapshot {
    /// State-mutating announces served (includes malformed replies).
    pub admitted: u64,
    /// Announces refused for re-querying too soon.
    pub rate_limited: u64,
    /// Announces refused from blacklisted clients.
    pub blacklisted: u64,
    /// Announces for unregistered torrents.
    pub unknown: u64,
    /// Announces swallowed by injected downtime.
    pub down: u64,
    /// Announces dropped in flight by the fault plan.
    pub dropped: u64,
    /// Served announces whose reply was corrupted.
    pub malformed: u64,
    /// Undecodable datagrams/requests received.
    pub garbled: u64,
    /// Exact retransmits re-served without mutation (not in snapshots).
    pub duplicate: u64,
}

/// A peer's state within one swarm.
#[derive(Debug, Clone, Copy)]
struct PeerSlot {
    ip: u32,
    port: u16,
    /// The event of the announce that last wrote the slot (never
    /// `stopped`, which removes it); see [`lifecycle_pending`].
    event: AnnounceEvent,
    left: u64,
}

/// One torrent's swarm, with running seeder/leecher tallies so replies
/// never scan the peer table.
#[derive(Default)]
struct SwarmState {
    /// Peer-interner symbol → slot.
    peers: FxHashMap<u32, PeerSlot>,
    seeders: u32,
    leechers: u32,
    downloaded: u32,
}

impl SwarmState {
    fn tally_remove(&mut self, slot: &PeerSlot) {
        if slot.left == 0 {
            self.seeders -= 1;
        } else {
            self.leechers -= 1;
        }
    }

    fn tally_insert(&mut self, slot: &PeerSlot) {
        if slot.left == 0 {
            self.seeders += 1;
        } else {
            self.leechers += 1;
        }
    }
}

/// Shard-local peer-id interner: 20-byte ids to dense u32 symbols.
#[derive(Default)]
struct PeerInterner {
    map: FxHashMap<PeerId, u32>,
    pool: Vec<PeerId>,
}

impl PeerInterner {
    fn intern(&mut self, id: &PeerId) -> u32 {
        if let Some(&sym) = self.map.get(id) {
            return sym;
        }
        let sym = self.pool.len() as u32;
        self.pool.push(*id);
        self.map.insert(*id, sym);
        sym
    }

    fn lookup(&self, id: &PeerId) -> Option<u32> {
        self.map.get(id).copied()
    }

    fn resolve(&self, sym: u32) -> &PeerId {
        &self.pool[sym as usize]
    }
}

/// One swarm shard: the torrents that hash here, plus the shard's own
/// interner.
#[derive(Default)]
struct SwarmShard {
    swarms: FxHashMap<InfoHash, SwarmState>,
    interner: PeerInterner,
}

/// One enforcement stripe.
struct EnforceStripe {
    enf: Enforcer,
    /// Last refused `(client, torrent) -> t`, so an exact retransmit of
    /// a refused announce (its reply was lost; the client sent the same
    /// datagram again) re-earns the same refusal without re-counting it.
    /// Admitted announces get the same protection from the enforcer's
    /// exact-duplicate detection; this map closes the refusal half, which
    /// is what keeps the snapshot's `counts` line retransmit-invariant.
    last_refusal: FxHashMap<(u32, u32), u64>,
}

/// Most unique garbage frames remembered for retransmit dedup
/// (40-byte frames → ~2.5 MiB worst case). Beyond this a hostile
/// unique-garbage flood is counted without dedup instead of growing
/// the set without bound.
const GARBAGE_SEEN_CAP: usize = 65_536;

/// The sharded swarm plane. The daemon's front ends, the load
/// generator's oracle and the soak tests all drive *this same type* —
/// the oracle is simply a one-shard plane fed in arrival order, which is
/// what makes snapshot equality a meaningful end-to-end check rather
/// than a comparison of two unrelated implementations.
pub struct Plane {
    cfg: PlaneConfig,
    /// Registered torrents: the scripted ones from construction plus
    /// any added by [`Plane::register`]. Readers take the lock once per
    /// call (one read guard per [`Plane::apply_batch`]), never per item.
    registered: RwLock<FxHashSet<InfoHash>>,
    swarms: Vec<Mutex<SwarmShard>>,
    enforce: Vec<Mutex<EnforceStripe>>,
    faults: Option<FaultPlan>,
    counts: Counts,
    /// Per-swarm-shard admitted tallies, for the balance report.
    shard_announces: Vec<AtomicU64>,
    /// Circuit breaker over undecodable input: a garbage flood opens it
    /// and the daemon stops paying for error replies until it cools off.
    breaker: Mutex<CircuitBreaker>,
    /// Exact garbage frames already tallied, so a retransmitted garbage
    /// datagram (its error reply was lost in the kernel buffer) re-earns
    /// the reply without re-counting — the garbled half of the
    /// retransmit-invariance that `last_refusal` gives refusals.
    garbage_seen: Mutex<FxHashSet<Vec<u8>>>,
    // Cached obs handles (registry lookups off the hot path).
    obs_total: Arc<btpub_obs::Counter>,
    obs_admitted: Arc<btpub_obs::Counter>,
    obs_refused: Arc<btpub_obs::Counter>,
    obs_garbled: Arc<btpub_obs::Counter>,
    obs_duplicate: Arc<btpub_obs::Counter>,
    obs_shard: Vec<Arc<btpub_obs::Counter>>,
    obs_apply_ns: Arc<btpub_obs::Histogram>,
    announce_sym: btpub_obs::trace::Sym,
}

/// `fxhash(info_hash)`, the swarm shard key.
fn shard_of(ih: &InfoHash, shards: usize) -> usize {
    let mut h = FxHasher::default();
    h.write(&ih.0);
    (h.finish() % shards as u64) as usize
}

impl Plane {
    /// Builds a plane with torrents `0..cfg.torrents` pre-registered.
    pub fn new(cfg: PlaneConfig) -> Plane {
        assert!(cfg.shards >= 1, "need at least one shard");
        let mut registered =
            btpub_fxhash::fx_set_with_capacity(cfg.torrents as usize);
        for id in 0..cfg.torrents {
            registered.insert(info_hash_for(cfg.seed, id));
        }
        let plan = FaultPlan::new(cfg.seed, cfg.profile.clone());
        let faults = (!plan.profile().is_clean()).then_some(plan);
        let swarms = (0..cfg.shards).map(|_| Mutex::new(SwarmShard::default())).collect();
        let enforce = (0..cfg.shards)
            .map(|_| {
                Mutex::new(EnforceStripe {
                    enf: Enforcer::serving(),
                    last_refusal: FxHashMap::default(),
                })
            })
            .collect();
        let shard_announces = (0..cfg.shards).map(|_| AtomicU64::new(0)).collect();
        let obs_shard = (0..cfg.shards)
            .map(|i| btpub_obs::counter(&format!("serve.shard.{i}.announces")))
            .collect();
        Plane {
            registered: RwLock::new(registered),
            swarms,
            enforce,
            faults,
            counts: Counts::default(),
            shard_announces,
            // Trips after 32 consecutive undecodable inputs; retries
            // after a 5 s cooldown. Valid traffic in between resets it.
            breaker: Mutex::new(CircuitBreaker::new("serve", 32, 5)),
            garbage_seen: Mutex::new(FxHashSet::default()),
            obs_total: btpub_obs::counter("serve.announce.total"),
            obs_admitted: btpub_obs::counter("serve.announce.admitted"),
            obs_refused: btpub_obs::counter("serve.announce.refused"),
            obs_garbled: btpub_obs::counter("serve.garbled.total"),
            obs_duplicate: btpub_obs::counter("serve.announce.duplicate"),
            obs_shard,
            obs_apply_ns: btpub_obs::histogram("serve.announce.apply_ns"),
            announce_sym: btpub_obs::trace::sym("serve.announce"),
            cfg,
        }
    }

    /// The plane's configuration.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether `info_hash` is registered.
    pub fn is_registered(&self, ih: &InfoHash) -> bool {
        self.registered.read().contains(ih)
    }

    /// Registers a torrent at runtime so announces for it are accepted
    /// (a live tracker learns its torrents from publishers, not from a
    /// script). Idempotent.
    pub fn register(&self, ih: InfoHash) {
        self.registered.write().insert(ih);
    }

    /// Applies a batch of announces in arrival order, writing one
    /// [`Outcome`] per item into `out` (cleared first).
    ///
    /// Admission is decided stripe-by-stripe, then mutations are applied
    /// shard-by-shard — one lock acquisition per touched stripe/shard
    /// per batch, not per item. Items always apply in batch order within
    /// a shard, preserving every client's own announce order.
    pub fn apply_batch(&self, items: &[AnnounceItem], out: &mut Vec<Outcome>) {
        let started = btpub_obs::clock::now();
        out.clear();
        out.resize(
            items.len(),
            Outcome {
                class: Class::Dropped,
                complete: 0,
                incomplete: 0,
            },
        );
        let shards = self.cfg.shards;
        let registered = self.registered.read();
        // Each item's client id, hashed once: phase 1 visits every item
        // once per stripe. A lone announce (BEP 15, HTTP, the oracle)
        // skips the allocation.
        let one: [u32; 1];
        let many: Vec<u32>;
        let clients: &[u32] = if let [item] = items {
            one = [item.client()];
            &one
        } else {
            many = items.iter().map(AnnounceItem::client).collect();
            &many
        };
        // Indices whose refusal is an exact retransmit: replied to with
        // the same class, but not re-counted (rare, so the Vec usually
        // never allocates).
        let mut recounted: Vec<usize> = Vec::new();
        // Phase 1: admission, one pass per enforcement stripe.
        for stripe in 0..shards {
            let mut guard = None;
            for (i, item) in items.iter().enumerate() {
                let client = clients[i];
                if client as usize % shards != stripe {
                    continue;
                }
                let (class, fresh) = {
                    let stripe_state =
                        guard.get_or_insert_with(|| self.enforce[stripe].lock());
                    self.admit(stripe_state, &registered, item, client)
                };
                out[i].class = class;
                if !fresh {
                    recounted.push(i);
                }
            }
        }
        drop(registered);
        recounted.sort_unstable();
        // Phase 2: application, one pass per swarm shard.
        for shard in 0..shards {
            let mut guard = None;
            let mut applied = 0u64;
            for (i, item) in items.iter().enumerate() {
                if !matches!(out[i].class, Class::Admitted | Class::Duplicate) {
                    continue;
                }
                if shard_of(&item.info_hash, shards) != shard {
                    continue;
                }
                let state = guard.get_or_insert_with(|| self.swarms[shard].lock());
                if out[i].class == Class::Duplicate && lifecycle_pending(state, item) {
                    // Exempt from rate limiting, so the enforcer's clock
                    // already stands at `t`: only the swarm is behind.
                    out[i].class = Class::Admitted;
                }
                let (complete, incomplete) = if out[i].class == Class::Admitted {
                    applied += 1;
                    apply_mutation(state, item)
                } else {
                    read_counts(state, &item.info_hash)
                };
                out[i].complete = complete;
                out[i].incomplete = incomplete;
                // Reply corruption happens on the way back: state is
                // mutated, the client just cannot parse the answer —
                // the same order TrackerSim established.
                if out[i].class == Class::Admitted {
                    if let Some(plan) = &self.faults {
                        let draw = key(&[u64::from(clients[i]), u64::from(item.torrent()), item.t]);
                        if plan
                            .check::<points::TruncatedReply>(draw)
                            .or_else(|| plan.check::<points::MalformedReply>(draw))
                            .is_some()
                        {
                            out[i].class = Class::Malformed;
                        }
                    }
                }
            }
            if applied > 0 {
                self.shard_announces[shard].fetch_add(applied, Ordering::Relaxed);
                self.obs_shard[shard].add(applied);
            }
        }
        // Deterministic tallies + observability, off the locks.
        self.obs_total.add(items.len() as u64);
        for (i, o) in out.iter().enumerate() {
            if recounted.binary_search(&i).is_ok() {
                // Exact retransmit of a refusal: answered, not counted.
                self.obs_duplicate.inc();
                continue;
            }
            let c = match o.class {
                Class::Admitted => &self.counts.admitted,
                Class::Malformed => {
                    self.counts.admitted.fetch_add(1, Ordering::Relaxed);
                    &self.counts.malformed
                }
                Class::Duplicate => {
                    self.obs_duplicate.inc();
                    &self.counts.duplicate
                }
                Class::RateLimited => &self.counts.rate_limited,
                Class::Blacklisted => &self.counts.blacklisted,
                Class::Unknown => &self.counts.unknown,
                Class::Down => &self.counts.down,
                Class::Dropped => &self.counts.dropped,
            };
            c.fetch_add(1, Ordering::Relaxed);
            match o.class {
                Class::Admitted | Class::Malformed | Class::Duplicate => {
                    self.obs_admitted.inc()
                }
                _ => self.obs_refused.inc(),
            }
        }
        let elapsed = btpub_obs::clock::now().saturating_sub(started);
        self.obs_apply_ns.record(elapsed);
        btpub_obs::trace::record_complete_since(self.announce_sym, started, elapsed);
    }

    /// Phase-1 admission for one item, under its stripe lock. The
    /// precedence (downtime → dropped → blacklisted → unknown →
    /// rate-limit) is exactly `TrackerSim`'s. The second return value is
    /// `false` when the refusal is an exact retransmit that must not be
    /// counted again.
    fn admit(
        &self,
        stripe: &mut EnforceStripe,
        registered: &FxHashSet<InfoHash>,
        item: &AnnounceItem,
        client: u32,
    ) -> (Class, bool) {
        let class = self.classify(&mut stripe.enf, registered, item, client);
        match class {
            Class::Admitted | Class::Duplicate => (class, true),
            _ => {
                // A client's announce times never decrease, so a refusal
                // at `t` not beyond the last recorded refusal of the same
                // (client, torrent) can only be a retransmit — possibly a
                // stale one overtaken by a newer announce when two
                // workers race. It re-earns its class (strikes are
                // already retransmit-proof inside the enforcer), but only
                // the first arrival counts.
                let slot = stripe
                    .last_refusal
                    .entry((client, item.torrent()))
                    .or_insert(u64::MAX);
                let fresh = *slot == u64::MAX || item.t > *slot;
                if fresh {
                    *slot = item.t;
                }
                (class, fresh)
            }
        }
    }

    fn classify(
        &self,
        enf: &mut Enforcer,
        registered: &FxHashSet<InfoHash>,
        item: &AnnounceItem,
        client: u32,
    ) -> Class {
        let torrent = item.torrent();
        if let Some(plan) = &self.faults {
            let draw = key(&[u64::from(client), u64::from(torrent), item.t]);
            if plan.tracker_down(item.t).is_some() {
                return Class::Down;
            }
            if plan.check::<points::AnnounceDrop>(draw).is_some() {
                return Class::Dropped;
            }
        }
        if enf.is_blacklisted(client) {
            return Class::Blacklisted;
        }
        if !registered.contains(&item.info_hash) {
            return Class::Unknown;
        }
        // Lifecycle completions/departures are never throttled — a real
        // tracker must hear them or its counters rot.
        let exempt = matches!(
            item.event,
            AnnounceEvent::Completed | AnnounceEvent::Stopped
        );
        match enf.admit(client, TorrentId(torrent), SimTime(item.t), exempt) {
            Admission::Admit => Class::Admitted,
            Admission::Duplicate => Class::Duplicate,
            Admission::RateLimited { .. } => Class::RateLimited,
            Admission::Blacklisted => Class::Blacklisted,
        }
    }

    /// Samples up to `numwant` peers of `ih` for a reply. Not part of
    /// snapshot equality (real trackers randomise; we take table order).
    pub fn sample_peers(&self, ih: &InfoHash, numwant: usize, peers: &mut Vec<SocketAddrV4>) {
        peers.clear();
        let shard = self.swarms[shard_of(ih, self.cfg.shards)].lock();
        if let Some(swarm) = shard.swarms.get(ih) {
            for slot in swarm.peers.values().take(numwant) {
                peers.push(SocketAddrV4::new(slot.ip.into(), slot.port));
            }
        }
    }

    /// Scrape counters for one torrent.
    pub fn scrape(&self, ih: &InfoHash) -> ScrapeEntry {
        let shard = self.swarms[shard_of(ih, self.cfg.shards)].lock();
        match shard.swarms.get(ih) {
            Some(s) => ScrapeEntry {
                complete: s.seeders,
                downloaded: s.downloaded,
                incomplete: s.leechers,
            },
            None => ScrapeEntry::default(),
        }
    }

    /// Records one undecodable request. Returns whether the daemon
    /// should still pay for a polite error reply — once the breaker
    /// opens, garbage is counted and dropped, nothing more.
    pub fn note_garbled(&self, now_secs: u64) -> bool {
        self.counts.garbled.fetch_add(1, Ordering::Relaxed);
        self.obs_garbled.inc();
        let mut breaker = self.breaker.lock();
        let was_open = !breaker.allow(now_secs);
        breaker.on_failure(now_secs);
        !was_open
    }

    /// Like [`Plane::note_garbled`], but retransmit-invariant: an exact
    /// byte-for-byte repeat of a garbage frame already tallied counts as
    /// a `duplicate` instead of a second `garbled`. A driver confirming
    /// garbage delivery (see `wire::set_garbage_txn`) retransmits the
    /// identical frame when the error reply is lost, and the snapshot's
    /// `garbled` count must not drift when that happens. The seen-set is
    /// capped: past [`GARBAGE_SEEN_CAP`] unique frames the dedup
    /// degrades to plain counting rather than growing without bound
    /// under a unique-garbage flood.
    pub fn note_garbled_frame(&self, now_secs: u64, frame: &[u8]) -> bool {
        {
            let mut seen = self.garbage_seen.lock();
            if seen.contains(frame) {
                self.counts.duplicate.fetch_add(1, Ordering::Relaxed);
                self.obs_duplicate.inc();
                let mut breaker = self.breaker.lock();
                let was_open = !breaker.allow(now_secs);
                breaker.on_failure(now_secs);
                return !was_open;
            }
            if seen.len() < GARBAGE_SEEN_CAP {
                seen.insert(frame.to_vec());
            }
        }
        self.note_garbled(now_secs)
    }

    /// Records one successfully decoded request (closes the breaker's
    /// failure streak).
    pub fn note_decoded(&self) {
        self.breaker.lock().on_success();
    }

    /// The garble breaker's state at `now_secs` and, while open, when
    /// it next allows a half-open trial — the `/healthz` summary.
    pub fn breaker_status(&self, now_secs: u64) -> (BreakerState, Option<u64>) {
        let breaker = self.breaker.lock();
        (breaker.state(now_secs), breaker.retry_at(now_secs))
    }

    /// Deterministic counter values.
    pub fn counts(&self) -> CountsSnapshot {
        CountsSnapshot {
            admitted: self.counts.admitted.load(Ordering::Relaxed),
            rate_limited: self.counts.rate_limited.load(Ordering::Relaxed),
            blacklisted: self.counts.blacklisted.load(Ordering::Relaxed),
            unknown: self.counts.unknown.load(Ordering::Relaxed),
            down: self.counts.down.load(Ordering::Relaxed),
            dropped: self.counts.dropped.load(Ordering::Relaxed),
            malformed: self.counts.malformed.load(Ordering::Relaxed),
            garbled: self.counts.garbled.load(Ordering::Relaxed),
            duplicate: self.counts.duplicate.load(Ordering::Relaxed),
        }
    }

    /// Per-swarm-shard admitted tallies, for the balance report.
    pub fn shard_announce_counts(&self) -> Vec<u64> {
        self.shard_announces
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The canonical swarm snapshot: every registered torrent with
    /// state, in info-hash byte order (which is torrent-id order for
    /// scripted torrents, see [`info_hash_for`]), peers sorted by peer
    /// id and labelled by client id; every client with strikes or a
    /// blacklist entry; the deterministic counters. Two planes that
    /// processed the same per-client announce sequences produce
    /// byte-identical snapshots **regardless of shard count or
    /// interleaving** — the property `serve_soak.rs` enforces.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let c = self.counts();
        // Only torrents with swarm state print, and every one of those
        // is registered (unknown torrents are refused before phase 2).
        let mut hashes: Vec<InfoHash> = Vec::new();
        for shard in &self.swarms {
            hashes.extend(shard.lock().swarms.keys());
        }
        hashes.sort_unstable();
        out.push_str("serve-snapshot v1\n");
        let _ = writeln!(out, "torrents={}", self.registered.read().len());
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
        let mut peers: Vec<(PeerId, PeerSlot)> = Vec::new();
        for ih in &hashes {
            let shard = self.swarms[shard_of(ih, self.cfg.shards)].lock();
            let Some(swarm) = shard.swarms.get(ih) else {
                continue;
            };
            if swarm.peers.is_empty() && swarm.downloaded == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "torrent {} complete={} incomplete={} downloaded={}",
                torrent_of(ih),
                swarm.seeders,
                swarm.leechers,
                swarm.downloaded
            );
            peers.clear();
            peers.extend(
                swarm
                    .peers
                    .iter()
                    .map(|(&sym, &slot)| (*shard.interner.resolve(sym), slot)),
            );
            peers.sort_unstable_by_key(|a| a.0 .0);
            for (pid, slot) in &peers {
                let _ = writeln!(
                    out,
                    "  peer {} ip={} port={} left={}",
                    client_of(pid),
                    slot.ip,
                    slot.port,
                    slot.left
                );
            }
        }
        let mut clients = Vec::new();
        for stripe in &self.enforce {
            stripe.lock().enf.snapshot_into(&mut clients);
        }
        clients.sort_unstable();
        for (client, strikes, blacklisted) in clients {
            let _ = writeln!(
                out,
                "client {client} strikes={strikes} blacklisted={}",
                u8::from(blacklisted)
            );
        }
        out
    }
}

/// Applies one admitted announce to its swarm, returning the counts
/// after mutation.
fn apply_mutation(shard: &mut SwarmShard, item: &AnnounceItem) -> (u32, u32) {
    let swarm = shard.swarms.entry(item.info_hash).or_default();
    match item.event {
        AnnounceEvent::Stopped => {
            if let Some(sym) = shard.interner.lookup(&item.peer_id) {
                if let Some(slot) = swarm.peers.remove(&sym) {
                    swarm.tally_remove(&slot);
                }
            }
        }
        event => {
            if event == AnnounceEvent::Completed {
                swarm.downloaded += 1;
            }
            let sym = shard.interner.intern(&item.peer_id);
            let slot = PeerSlot {
                ip: item.ip,
                port: item.port,
                event,
                left: item.left,
            };
            if let Some(old) = swarm.peers.insert(sym, slot) {
                swarm.tally_remove(&old);
            }
            swarm.tally_insert(&slot);
        }
    }
    (swarm.seeders, swarm.leechers)
}

/// Whether a `Duplicate` lifecycle announce is in fact new. The enforcer
/// dedups on `(client, torrent, t)` alone, so a `stopped` or `completed`
/// in the same second as the peer's previous announce looks like a
/// retransmit of it. The swarm tells them apart: a retransmit finds its
/// effect already applied (the peer gone, or already completed).
fn lifecycle_pending(shard: &SwarmShard, item: &AnnounceItem) -> bool {
    let slot = shard
        .interner
        .lookup(&item.peer_id)
        .and_then(|sym| shard.swarms.get(&item.info_hash)?.peers.get(&sym));
    match item.event {
        AnnounceEvent::Stopped => slot.is_some(),
        AnnounceEvent::Completed => slot.is_some_and(|s| s.event != AnnounceEvent::Completed),
        AnnounceEvent::Started | AnnounceEvent::Interval => false,
    }
}

/// Reads a swarm's counts without mutating (duplicate re-serve).
fn read_counts(shard: &mut SwarmShard, ih: &InfoHash) -> (u32, u32) {
    match shard.swarms.get(ih) {
        Some(s) => (s.seeders, s.leechers),
        None => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::super::wire::{info_hash_for, peer_id_for};
    use super::*;

    fn item(
        seed: u64,
        client: u32,
        torrent: u32,
        t: u64,
        event: AnnounceEvent,
        left: u64,
    ) -> AnnounceItem {
        AnnounceItem {
            info_hash: info_hash_for(seed, torrent),
            peer_id: peer_id_for(client),
            t,
            left,
            event,
            ip: client,
            port: 6881,
        }
    }

    #[test]
    fn retransmitted_refusals_count_once() {
        let plane = Plane::new(PlaneConfig::new(5, 2, 4));
        let mut out = Vec::new();
        plane.apply_batch(&[item(5, 10, 0, 1000, AnnounceEvent::Started, 100)], &mut out);
        assert_eq!(out[0].class, Class::Admitted);
        // Re-query too soon: refused and counted.
        let early = item(5, 10, 0, 1030, AnnounceEvent::Interval, 100);
        plane.apply_batch(std::slice::from_ref(&early), &mut out);
        assert_eq!(out[0].class, Class::RateLimited);
        assert_eq!(plane.counts().rate_limited, 1);
        // The reply was lost; the client retransmits the exact datagram.
        // Same class back, but the counter must not move — the oracle
        // only ever sees the announce once.
        plane.apply_batch(std::slice::from_ref(&early), &mut out);
        assert_eq!(out[0].class, Class::RateLimited);
        assert_eq!(plane.counts().rate_limited, 1);
        // A newer refusal counts, then a stale retransmit of the old one
        // (two workers racing) still does not.
        plane.apply_batch(&[item(5, 10, 0, 1100, AnnounceEvent::Interval, 100)], &mut out);
        assert_eq!(out[0].class, Class::RateLimited);
        plane.apply_batch(std::slice::from_ref(&early), &mut out);
        assert_eq!(out[0].class, Class::RateLimited);
        assert_eq!(plane.counts().rate_limited, 2);
        // Unknown-torrent probes get the same idempotency.
        let probe = item(5, 11, 9, 50, AnnounceEvent::Interval, 0);
        plane.apply_batch(std::slice::from_ref(&probe), &mut out);
        plane.apply_batch(std::slice::from_ref(&probe), &mut out);
        assert_eq!(out[0].class, Class::Unknown);
        assert_eq!(plane.counts().unknown, 1);
    }

    #[test]
    fn lifecycle_updates_counts() {
        let plane = Plane::new(PlaneConfig::new(1, 4, 8));
        let mut out = Vec::new();
        plane.apply_batch(
            &[
                item(1, 10, 0, 100, AnnounceEvent::Started, 0),
                item(1, 11, 0, 101, AnnounceEvent::Started, 500),
            ],
            &mut out,
        );
        assert_eq!(out[0].class, Class::Admitted);
        assert_eq!((out[1].complete, out[1].incomplete), (1, 1));
        // The leecher completes (exempt from rate limiting).
        plane.apply_batch(&[item(1, 11, 0, 130, AnnounceEvent::Completed, 0)], &mut out);
        assert_eq!(out[0].class, Class::Admitted);
        assert_eq!((out[0].complete, out[0].incomplete), (2, 0));
        let entry = plane.scrape(&info_hash_for(1, 0));
        assert_eq!((entry.complete, entry.incomplete, entry.downloaded), (2, 0, 1));
        // The seeder leaves.
        plane.apply_batch(&[item(1, 10, 0, 200, AnnounceEvent::Stopped, 0)], &mut out);
        assert_eq!(out[0].class, Class::Admitted);
        assert_eq!((out[0].complete, out[0].incomplete), (1, 0));
    }

    #[test]
    fn unknown_and_rate_limit_precedence() {
        let plane = Plane::new(PlaneConfig::new(2, 2, 4));
        let mut out = Vec::new();
        plane.apply_batch(&[item(2, 5, 99, 100, AnnounceEvent::Started, 0)], &mut out);
        assert_eq!(out[0].class, Class::Unknown);
        plane.apply_batch(&[item(2, 5, 1, 100, AnnounceEvent::Started, 0)], &mut out);
        assert_eq!(out[0].class, Class::Admitted);
        // Immediate re-announce: rate limited (interval announces are
        // not exempt), and an exact retransmit is a duplicate.
        plane.apply_batch(&[item(2, 5, 1, 160, AnnounceEvent::Interval, 0)], &mut out);
        assert_eq!(out[0].class, Class::RateLimited);
        plane.apply_batch(&[item(2, 5, 1, 100, AnnounceEvent::Started, 0)], &mut out);
        assert_eq!(out[0].class, Class::Duplicate);
    }

    #[test]
    fn snapshots_identical_across_shard_counts() {
        let mk = |shards| Plane::new(PlaneConfig::new(3, shards, 16));
        let script: Vec<AnnounceItem> = (0..200u32)
            .map(|i| {
                let client = 100 + (i % 40);
                let torrent = i % 16;
                item(
                    3,
                    client,
                    torrent,
                    1000 + u64::from(i) * 7,
                    if i % 5 == 0 {
                        AnnounceEvent::Completed
                    } else {
                        AnnounceEvent::Started
                    },
                    u64::from(i % 3) * 100,
                )
            })
            .collect();
        let mut out = Vec::new();
        let one = mk(1);
        let eight = mk(8);
        for it in &script {
            one.apply_batch(std::slice::from_ref(it), &mut out);
        }
        // The 8-shard plane gets them in batches instead of one by one.
        for chunk in script.chunks(17) {
            eight.apply_batch(chunk, &mut out);
        }
        assert_eq!(one.snapshot(), eight.snapshot());
    }

    #[test]
    fn hammering_blacklists_across_the_plane() {
        let plane = Plane::new(PlaneConfig::new(4, 4, 4));
        let mut out = Vec::new();
        let mut saw_blacklist = false;
        for i in 0..40u64 {
            plane.apply_batch(
                &[item(4, 77, 2, 1000 + i * 10, AnnounceEvent::Interval, 100)],
                &mut out,
            );
            if out[0].class == Class::Blacklisted {
                saw_blacklist = true;
            }
        }
        assert!(saw_blacklist, "hammering client must get blacklisted");
        let snap = plane.snapshot();
        let offender = client_of(&peer_id_for(77));
        assert!(
            snap.contains(&format!("client {offender} ")),
            "snapshot records the offender:\n{snap}"
        );
        assert!(snap.contains("blacklisted=1"));
    }

    #[test]
    fn faulty_plane_matches_trackersim_precedence() {
        // Down/dropped draws use the same key space as TrackerSim, so a
        // hostile plane refuses announces at exactly the coordinates the
        // sim tracker would.
        let profile = FaultProfile::hostile();
        let plane = Plane::new(PlaneConfig {
            seed: 70,
            shards: 2,
            torrents: 4,
            profile: profile.clone(),
        });
        let plan = FaultPlan::new(70, profile);
        let mut out = Vec::new();
        let (mut down, mut dropped) = (0, 0);
        for client in 0..40u32 {
            for i in 0..20u64 {
                let t = i * 7200 + u64::from(client);
                let torrent = (i % 4) as u32;
                let it = item(70, client, torrent, t, AnnounceEvent::Interval, 1);
                plane.apply_batch(std::slice::from_ref(&it), &mut out);
                let draw = key(&[u64::from(it.client()), u64::from(torrent), t]);
                if plan.tracker_down(t).is_some() {
                    assert_eq!(out[0].class, Class::Down);
                    down += 1;
                } else if plan.check::<points::AnnounceDrop>(draw).is_some() {
                    assert_eq!(out[0].class, Class::Dropped);
                    dropped += 1;
                }
            }
        }
        assert!(down > 0, "hostile profile must hit downtime");
        assert!(dropped > 0, "hostile profile must drop announces");
        let c = plane.counts();
        assert_eq!(c.down, down);
        assert_eq!(c.dropped, dropped);
    }

    #[test]
    fn garbage_flood_trips_the_breaker() {
        let plane = Plane::new(PlaneConfig::new(5, 1, 1));
        let mut polite = 0;
        for _ in 0..100 {
            if plane.note_garbled(1) {
                polite += 1;
            }
        }
        assert!(polite >= 32, "replies until the threshold");
        assert!(polite < 100, "flood must open the breaker");
        assert_eq!(plane.counts().garbled, 100, "every datagram still counted");
        // Cooldown passes, valid traffic closes it again.
        plane.note_decoded();
        assert!(plane.note_garbled(100));
    }

    #[test]
    fn retransmitted_garbage_counts_duplicate_not_garbled() {
        let plane = Plane::new(PlaneConfig::new(5, 1, 1));
        let a = vec![0xFFu8; 40];
        let mut b = a.clone();
        b[12] = 0x01; // a different stamped txn = a different frame
        assert!(plane.note_garbled_frame(1, &a), "first copy earns a reply");
        assert!(plane.note_garbled_frame(1, &a), "retransmit re-earns it");
        assert!(plane.note_garbled_frame(1, &b));
        let c = plane.counts();
        assert_eq!(c.garbled, 2, "two unique frames");
        assert_eq!(c.duplicate, 1, "one exact retransmit");
    }

    /// Three real clients of one make (`-SD0002-…`) seed one torrent in
    /// the same second: three clients, three seeders, none a retransmit.
    #[test]
    fn same_prefix_peers_are_distinct_clients() {
        let plane = Plane::new(PlaneConfig::new(6, 1, 2));
        let ih = info_hash_for(6, 0);
        let items: Vec<AnnounceItem> = (0..3u8)
            .map(|i| AnnounceItem {
                info_hash: ih,
                peer_id: PeerId::azureus_style("SD", "0002", [i; 12]),
                t: 100,
                left: 0,
                event: AnnounceEvent::Started,
                ip: 0x7F00_0001,
                port: 40_000 + u16::from(i),
            })
            .collect();
        let mut out = Vec::new();
        plane.apply_batch(&items, &mut out);
        assert!(out.iter().all(|o| o.class == Class::Admitted), "{out:?}");
        assert_eq!((out[2].complete, out[2].incomplete), (3, 0));
        assert_eq!(plane.scrape(&ih).complete, 3);
        assert_eq!(plane.counts().admitted, 3);
    }

    #[test]
    fn sample_respects_numwant() {
        let plane = Plane::new(PlaneConfig::new(8, 2, 1));
        let items: Vec<AnnounceItem> = (0..60u32)
            .map(|c| item(8, c, 0, 100, AnnounceEvent::Started, 10))
            .collect();
        plane.apply_batch(&items, &mut Vec::new());
        let mut peers = Vec::new();
        plane.sample_peers(&info_hash_for(8, 0), 25, &mut peers);
        assert_eq!(peers.len(), 25);
        let unique: std::collections::HashSet<_> = peers.iter().collect();
        assert_eq!(unique.len(), 25, "sample has no duplicates");
    }

    #[test]
    fn runtime_registered_torrents_are_served_and_snapshotted() {
        let plane = Plane::new(PlaneConfig::new(9, 2, 2));
        let ih = InfoHash([0xAB; 20]);
        let mut it = item(9, 1, 0, 100, AnnounceEvent::Started, 0);
        it.info_hash = ih;
        let mut out = Vec::new();
        plane.apply_batch(std::slice::from_ref(&it), &mut out);
        assert_eq!(out[0].class, Class::Unknown);
        plane.register(ih);
        assert!(plane.is_registered(&ih));
        it.t = 200;
        plane.apply_batch(std::slice::from_ref(&it), &mut out);
        assert_eq!(out[0].class, Class::Admitted);
        plane.apply_batch(&[item(9, 2, 1, 100, AnnounceEvent::Started, 5)], &mut out);
        let snap = plane.snapshot();
        assert!(snap.contains("torrents=3\n"), "{snap}");
        // Hash-byte order: scripted torrent 1 (its hash leads with the
        // big-endian id) before the runtime torrent's 0xAB… hash.
        let scripted = snap.find("torrent 1 complete=0 incomplete=1").expect(&snap);
        let line = format!("torrent {} complete=1 incomplete=0", torrent_of(&ih));
        assert!(snap.find(&line).expect(&snap) > scripted, "{snap}");
    }

    /// Started, completed and stopped within one logical second are
    /// three announces, not one and two retransmits; repeating any of
    /// them is a retransmit.
    #[test]
    fn lifecycle_in_the_same_second_is_not_a_retransmit() {
        let plane = Plane::new(PlaneConfig::new(10, 1, 1));
        let mut out = Vec::new();
        let mut serve = |event, left| {
            plane.apply_batch(&[item(10, 1, 0, 50, event, left)], &mut out);
            (out[0].class, out[0].complete, out[0].incomplete)
        };
        use AnnounceEvent::{Completed, Started, Stopped};
        assert_eq!(serve(Started, 100), (Class::Admitted, 0, 1));
        assert_eq!(serve(Completed, 0), (Class::Admitted, 1, 0));
        assert_eq!(serve(Completed, 0), (Class::Duplicate, 1, 0));
        assert_eq!(serve(Stopped, 0), (Class::Admitted, 0, 0));
        assert_eq!(serve(Stopped, 0), (Class::Duplicate, 0, 0));
        // A retransmitted `started` stays a retransmit: no rejoin.
        assert_eq!(serve(Started, 100), (Class::Duplicate, 0, 0));
        assert_eq!(plane.scrape(&info_hash_for(10, 0)).downloaded, 1);
        assert_eq!(plane.counts().admitted, 3);
    }
}
