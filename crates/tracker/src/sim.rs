//! The in-simulation tracker.

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::Rng;

use btpub_faults::{key, points, Fault, FaultPlan};
use btpub_obs::{clock, SampledHistogram};
use btpub_sim::rngs;
use btpub_sim::{Ecosystem, SampleScratch, SimDuration, SimTime, SwarmCursor, TorrentId};

use crate::enforce::{Admission, Enforcer};
use crate::MAX_NUMWANT;

/// Identifies a querying client (one crawler vantage point).
pub use crate::enforce::ClientId;

/// Why a query was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The client queried before its minimum interval elapsed; retry at
    /// the contained time. Repeat offenders get blacklisted.
    RateLimited {
        /// Earliest permitted retry.
        retry_at: SimTime,
    },
    /// The client has been blacklisted for hammering the tracker.
    Blacklisted,
    /// Unknown torrent.
    UnknownTorrent,
    /// The tracker is inside an injected downtime window; it answers
    /// again at the contained time (which the client of course cannot
    /// see — it only observes a dead endpoint — but carrying it lets the
    /// crawler's backoff tests assert against ground truth).
    TrackerDown {
        /// First instant the tracker is reachable again.
        retry_at: SimTime,
    },
    /// The announce was lost before the tracker saw it; the client times
    /// out with no reply and no tracker state was touched.
    Dropped,
    /// The reply arrived but did not parse as bencode.
    Malformed {
        /// Truncated mid-stream (as opposed to garbled bytes).
        truncated: bool,
    },
}

/// Result of a peer-wire bitfield probe against one address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeOutcome {
    /// TCP connection failed: the peer is behind a NAT.
    Unreachable,
    /// Nobody at that address is in this swarm right now.
    Offline,
    /// Handshake + bitfield succeeded; completion fraction in [0, 1].
    Completion(f64),
}

impl ProbeOutcome {
    /// Whether the probe proves the peer is a seeder.
    pub fn is_seed(self) -> bool {
        matches!(self, ProbeOutcome::Completion(c) if c >= 1.0)
    }
}

/// The counts of a successful announce, minus the peer list — which
/// [`TrackerSim::query_into`] writes into a caller-owned buffer so the
/// steady-state announce path allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyCounts {
    /// Seeder count (`complete`), publisher included when seeding.
    pub complete: u32,
    /// Leecher count (`incomplete`).
    pub incomplete: u32,
    /// Minimum wait before this client may query again.
    pub min_interval: SimDuration,
}

/// The announce path's meters, kept as plain integers and folded into
/// the registry by [`TrackerSim::fold_meters`].
struct AnnounceMeters {
    /// `tracker.announce.total`: announces received.
    total: u64,
    /// `hotpath.alloc.saved`: announces that touched the heap zero times.
    alloc_saved: u64,
    /// `tracker.announce.latency_ns`: time to serve each peer list,
    /// counted for every served announce and timed on a sample of them.
    latency: SampledHistogram,
}

/// The simulated tracker: serves peer lists sampled from swarm traces,
/// enforcing the 10–15-minute per-client rate limit the paper worked
/// around with multiple vantage points.
///
/// Its hot-path meters live in the tracker itself and reach the
/// registry at [`TrackerSim::fold_meters`] (the crawler folds at every
/// RSS poll and at crawl end) and on drop. About one served announce in
/// 16 reads the clock (see [`SampledHistogram`]); the others read none.
///
/// Every key below is generated by our own deterministic simulation, so
/// the DoS-resistant (and slower) default SipHash buys nothing — the
/// announce-path maps use `FxHashMap` (see `crates/fxhash`).
pub struct TrackerSim<'a> {
    eco: &'a Ecosystem,
    /// Rate-limit clock, strike counter and blacklist — the shared
    /// policy in [`crate::enforce`], which the live serving plane
    /// ([`crate::serve`]) applies identically so the two can never
    /// drift.
    enforce: Enforcer,
    rng: StdRng,
    /// Injected network/tracker faults; `None` runs clean.
    faults: Option<FaultPlan>,
    /// Reusable buffers for swarm sampling (warm after the first query).
    scratch: SampleScratch,
    sampled: Vec<btpub_sim::PeerRecord>,
    /// Interned flight-recorder symbol for the announce span, resolved
    /// once at construction so the armed hot path pays a field read
    /// instead of a `OnceLock` round-trip.
    announce_sym: btpub_obs::trace::Sym,
    meters: AnnounceMeters,
}

impl<'a> TrackerSim<'a> {
    /// Creates a tracker over an ecosystem.
    pub fn new(eco: &'a Ecosystem) -> Self {
        TrackerSim {
            eco,
            enforce: Enforcer::tracker(),
            rng: rngs::derive(eco.config.seed, "tracker", 0),
            faults: None,
            scratch: SampleScratch::default(),
            sampled: Vec::new(),
            announce_sym: btpub_obs::trace::sym("tracker.announce"),
            meters: AnnounceMeters {
                total: 0,
                alloc_saved: 0,
                latency: SampledHistogram::new("tracker.announce.latency_ns"),
            },
        }
    }

    /// Creates a tracker whose announce path injects faults from `plan`.
    /// Every draw is a pure function of the plan's seed and the query's
    /// `(client, torrent, t)` coordinates, so concurrent crawls observe
    /// the same faults regardless of scheduling.
    pub fn with_faults(eco: &'a Ecosystem, plan: FaultPlan) -> Self {
        let mut sim = TrackerSim::new(eco);
        if !plan.profile().is_clean() {
            sim.faults = Some(plan);
        }
        sim
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Handles one peer-list query from `client` at time `t`, appending
    /// the sampled peer list to `peers` (cleared first). With a warm
    /// buffer the steady-state announce performs no heap allocation at
    /// all — the `hotpath.alloc.saved` counter tracks how often that held.
    ///
    /// `cursor` is the caller's place in `torrent`'s swarm, made by that
    /// swarm's [`cursor_at`](btpub_sim::SwarmTrace::cursor_at) and kept
    /// for the torrent's next announce: queries that move forward in time
    /// step it instead of searching. Any cursor of that swarm gives the
    /// same reply and RNG draws; an unknown torrent is refused before its
    /// cursor is read.
    pub fn query_into(
        &mut self,
        client: ClientId,
        torrent: TorrentId,
        cursor: &mut SwarmCursor,
        t: SimTime,
        numwant: usize,
        peers: &mut Vec<Ipv4Addr>,
    ) -> Result<ReplyCounts, QueryError> {
        peers.clear();
        // Only the served announces the latency sample picks read the
        // clock. An announce refused below leaves the sample where it
        // was, so the next one is timed in its place.
        let announce_start = self.meters.latency.wants().then(clock::now);
        self.meters.total += 1;
        // Coordinates of this query in the fault plan's draw space: one
        // independent draw per (client, torrent, time) triple, computed
        // only under a plan.
        let draw = || key(&[u64::from(client), u64::from(torrent.0), t.secs()]);
        if let Some(plan) = &self.faults {
            // Downtime is checked first: a dead tracker answers nobody,
            // and the query leaves no trace in tracker state.
            if let Some(until) = plan.tracker_down(t.secs()) {
                btpub_obs::static_counter!("tracker.announce.down").inc();
                btpub_obs::trace_instant!("tracker.announce.down", until);
                return Err(QueryError::TrackerDown {
                    retry_at: SimTime(until),
                });
            }
            // A dropped announce is lost on the way in: no state mutation,
            // no rate-limit bookkeeping (the tracker never saw it).
            if plan.check::<points::AnnounceDrop>(draw()).is_some() {
                btpub_obs::static_counter!("tracker.announce.dropped").inc();
                return Err(QueryError::Dropped);
            }
        }
        if self.enforce.is_blacklisted(client) {
            btpub_obs::static_counter!("tracker.announce.blacklisted").inc();
            return Err(QueryError::Blacklisted);
        }
        if torrent.0 as usize >= self.eco.swarms.len() {
            return Err(QueryError::UnknownTorrent);
        }
        let interval = crate::enforce::min_interval(t);
        match self.enforce.admit(client, torrent, t, false) {
            Admission::Admit | Admission::Duplicate => {}
            Admission::Blacklisted => return Err(QueryError::Blacklisted),
            Admission::RateLimited { retry_at } => {
                btpub_obs::static_counter!("tracker.announce.rate_limited").inc();
                return Err(QueryError::RateLimited { retry_at });
            }
        }

        let numwant = numwant.min(MAX_NUMWANT);
        let eco = self.eco;
        let swarm = &eco.swarms[torrent.0 as usize];
        swarm.seek(cursor, t);
        let publisher_on = swarm.publisher_seeding(t);
        // The publishing entity may seed from several servers in parallel.
        let entity_seeders = if publisher_on {
            usize::from(swarm.publisher_seed_count())
        } else {
            0
        };
        let complete = cursor.seeders() as u32 + entity_seeders as u32;
        let incomplete = cursor.leechers() as u32;
        let active_total = cursor.active() + entity_seeders;

        let cap_before = peers.capacity();
        peers.reserve(numwant.min(active_total));
        if entity_seeders > 0 {
            // Each entity server lands in the sample with the same chance
            // an ordinary peer would.
            let p_include = (numwant as f64 / active_total as f64).min(1.0);
            for addr in eco.publisher_addrs_iter(torrent, t) {
                if peers.len() < numwant
                    && (active_total <= numwant || self.rng.gen_bool(p_include))
                {
                    peers.push(addr);
                }
            }
        }
        let wanted_from_trace = numwant - peers.len();
        self.sampled.clear();
        swarm.sample_at(
            cursor,
            wanted_from_trace,
            &mut self.rng,
            &mut self.scratch,
            &mut self.sampled,
        );
        peers.extend(self.sampled.iter().map(|p| Ipv4Addr::from(p.ip)));
        if peers.capacity() == cap_before && cap_before > 0 {
            // Warm buffers: this announce touched the heap zero times.
            self.meters.alloc_saved += 1;
        }
        match announce_start {
            Some(start) => {
                let announce_ns = clock::now().saturating_sub(start);
                self.meters.latency.record(announce_ns);
                // Flight recorder: a timed announce as a complete ("X")
                // event. Tracing off, the call is one relaxed load;
                // armed, the epoch offset is one subtraction from the
                // readings the latency sample already paid for. Untimed
                // announces record nothing, so arming adds no clock read.
                btpub_obs::trace::record_complete_since(self.announce_sym, start, announce_ns);
            }
            None => self.meters.latency.skip(),
        }
        // Reply corruption happens on the way back: the tracker has fully
        // processed the announce (state mutated, rate-limit clock reset),
        // but the client cannot parse what it received.
        if let Some(plan) = &self.faults {
            let draw = draw();
            let corrupted = plan
                .check::<points::TruncatedReply>(draw)
                .or_else(|| plan.check::<points::MalformedReply>(draw));
            match corrupted {
                Some(Fault::TruncatedReply) => {
                    btpub_obs::static_counter!("tracker.announce.malformed").inc();
                    return Err(QueryError::Malformed { truncated: true });
                }
                Some(_) => {
                    btpub_obs::static_counter!("tracker.announce.malformed").inc();
                    return Err(QueryError::Malformed { truncated: false });
                }
                None => {}
            }
        }
        Ok(ReplyCounts {
            complete,
            incomplete,
            min_interval: interval,
        })
    }

    /// Whether a client has been blacklisted.
    pub fn is_blacklisted(&self, client: ClientId) -> bool {
        self.enforce.is_blacklisted(client)
    }

    /// Adds the announces served since the last fold to the registry's
    /// `tracker.announce.total`, `hotpath.alloc.saved` and
    /// `tracker.announce.latency_ns` (one count per served announce; the
    /// sum and quantiles are estimated from the timed sample).
    /// A meter that recorded nothing is not touched, so the registry
    /// names exactly the meters that counted something.
    pub fn fold_meters(&mut self) {
        let m = &mut self.meters;
        if m.total > 0 {
            btpub_obs::static_counter!("tracker.announce.total").add(std::mem::take(&mut m.total));
        }
        if m.alloc_saved > 0 {
            btpub_obs::static_counter!("hotpath.alloc.saved")
                .add(std::mem::take(&mut m.alloc_saved));
        }
        let latency = m.latency.settle();
        if latency.count() > 0 {
            btpub_obs::static_histogram!("tracker.announce.latency_ns").absorb(latency);
        }
    }
}

impl Drop for TrackerSim<'_> {
    fn drop(&mut self) {
        self.fold_meters();
    }
}

/// [`probe`] behind a fault plan: with `plan` set, some fraction of
/// connection attempts fail outright (`points::PeerProbe`), surfacing as
/// [`ProbeOutcome::Unreachable`] — indistinguishable, as on the real
/// network, from a NATted peer.
pub fn probe_with(
    eco: &Ecosystem,
    plan: Option<&FaultPlan>,
    torrent: TorrentId,
    ip: Ipv4Addr,
    t: SimTime,
) -> ProbeOutcome {
    if let Some(plan) = plan {
        let draw = key(&[u64::from(torrent.0), u64::from(u32::from(ip)), t.secs()]);
        if plan.check::<points::PeerProbe>(draw).is_some() {
            btpub_obs::static_counter!("tracker.probe.conn_failed").inc();
            return ProbeOutcome::Unreachable;
        }
    }
    probe(eco, torrent, ip, t)
}

/// Simulates a peer-wire connection to `ip` asking for its bitfield in the
/// swarm of `torrent` at time `t` (§2's initial-seeder identification).
pub fn probe(eco: &Ecosystem, torrent: TorrentId, ip: Ipv4Addr, t: SimTime) -> ProbeOutcome {
    let outcome = probe_inner(eco, torrent, ip, t);
    match outcome {
        ProbeOutcome::Completion(c) if c >= 1.0 => {
            btpub_obs::static_counter!("tracker.probe.seed").inc()
        }
        ProbeOutcome::Completion(_) => btpub_obs::static_counter!("tracker.probe.leech").inc(),
        ProbeOutcome::Unreachable => {
            btpub_obs::static_counter!("tracker.probe.unreachable").inc()
        }
        ProbeOutcome::Offline => btpub_obs::static_counter!("tracker.probe.offline").inc(),
    }
    outcome
}

fn probe_inner(eco: &Ecosystem, torrent: TorrentId, ip: Ipv4Addr, t: SimTime) -> ProbeOutcome {
    let swarm = &eco.swarms[torrent.0 as usize];
    // One of the publishing entity's seeding servers?
    if swarm.publisher_seeding(t) && eco.publisher_addrs(torrent, t).contains(&ip) {
        return if eco.publisher_natted(torrent) {
            ProbeOutcome::Unreachable
        } else {
            ProbeOutcome::Completion(1.0)
        };
    }
    match swarm.peer_by_ip(u32::from(ip), t) {
        None => ProbeOutcome::Offline,
        Some(peer) if peer.natted => ProbeOutcome::Unreachable,
        Some(peer) => ProbeOutcome::Completion(peer.completion(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpub_sim::{Ecosystem, EcosystemConfig};

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::tiny(70))
    }

    /// One announce through [`TrackerSim::query_into`] from a fresh
    /// cursor, returning the counts with the peer list it wrote. An
    /// unknown torrent borrows swarm 0's cursor, which it never reads.
    fn ask(
        tr: &mut TrackerSim,
        client: ClientId,
        torrent: TorrentId,
        t: SimTime,
        numwant: usize,
    ) -> Result<(ReplyCounts, Vec<Ipv4Addr>), QueryError> {
        let swarms = &tr.eco.swarms;
        let mut cursor = swarms
            .get(torrent.0 as usize)
            .unwrap_or(&swarms[0])
            .cursor_at(t);
        let mut peers = Vec::new();
        tr.query_into(client, torrent, &mut cursor, t, numwant, &mut peers)
            .map(|counts| (counts, peers))
    }

    #[test]
    fn query_returns_counts_and_peers() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        // Find a reasonably popular torrent and query mid-life.
        let (idx, _) = e
            .swarms
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.downloads())
            .unwrap();
        let t = e.publications[idx].at + SimDuration::from_hours(2.0);
        let (reply, peers) = ask(&mut tr, 1, TorrentId(idx as u32), t, 200).unwrap();
        let swarm = &e.swarms[idx];
        let expected_active =
            swarm.active_count(t) + usize::from(swarm.publisher_seeding(t));
        assert_eq!(
            (reply.complete + reply.incomplete) as usize,
            expected_active
        );
        assert!(peers.len() <= 200);
        assert!(peers.len() <= expected_active);
        assert!(reply.min_interval >= SimDuration(600));
        assert!(reply.min_interval <= SimDuration(900));
    }

    #[test]
    fn numwant_caps_at_protocol_maximum() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        let (_, peers) = ask(&mut tr, 1, TorrentId(0), e.publications[0].at, 100_000).unwrap();
        assert!(peers.len() <= MAX_NUMWANT);
    }

    #[test]
    fn rate_limiting_kicks_in_per_torrent() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        let t0 = e.publications[0].at;
        ask(&mut tr, 1, TorrentId(0), t0, 50).unwrap();
        let err = ask(&mut tr, 1, TorrentId(0), t0 + SimDuration(60), 50);
        match err {
            Err(QueryError::RateLimited { retry_at }) => {
                assert!(retry_at > t0 + SimDuration(60));
                assert!(retry_at <= t0 + SimDuration(900));
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        // A different torrent is fine.
        assert!(ask(&mut tr, 1, TorrentId(1), t0 + SimDuration(60), 50).is_ok());
        // A different client is fine.
        assert!(ask(&mut tr, 2, TorrentId(0), t0 + SimDuration(60), 50).is_ok());
        // After the interval the same client may re-query.
        assert!(ask(&mut tr, 1, TorrentId(0), t0 + SimDuration(901), 50).is_ok());
    }

    #[test]
    fn hammering_gets_blacklisted() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        let t0 = e.publications[0].at;
        ask(&mut tr, 9, TorrentId(0), t0, 50).unwrap();
        let mut blacklisted = false;
        for i in 1..100u64 {
            match ask(&mut tr, 9, TorrentId(0), t0 + SimDuration(i), 50) {
                Err(QueryError::Blacklisted) => {
                    blacklisted = true;
                    break;
                }
                Err(QueryError::RateLimited { .. }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(blacklisted);
        assert!(tr.is_blacklisted(9));
        // Polite clients are unaffected.
        assert!(ask(&mut tr, 10, TorrentId(0), t0 + SimDuration(100), 50).is_ok());
    }

    #[test]
    fn unknown_torrent_rejected() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        assert_eq!(
            ask(&mut tr, 1, TorrentId(u32::MAX), SimTime(0), 50),
            Err(QueryError::UnknownTorrent)
        );
    }

    #[test]
    fn publisher_appears_in_small_young_swarms() {
        let e = eco();
        let mut tr = TrackerSim::new(&e);
        // While a swarm is young and tiny, a seeding publisher must be in
        // the sample (§2: the pounce query catches the initial seeder
        // alone). Publishers start seeding up to ten minutes after the
        // announcement (and diurnal ones later still), so anchor the
        // probe 30 s into the first seeding session rather than at a
        // fixed offset from the announce, which only a lucky subset of
        // draws would satisfy.
        let mut publisher_seen = 0;
        let mut candidates = 0;
        for (i, _p) in e.publications.iter().enumerate().take(100) {
            let swarm = &e.swarms[i];
            let Some(start) = swarm.sessions.start() else {
                continue;
            };
            let t = start + SimDuration(30);
            if swarm.publisher_seeding(t) && swarm.active_count(t) < 10 {
                candidates += 1;
                let (_, peers) = ask(&mut tr, 77, TorrentId(i as u32), t, 200).unwrap();
                let pub_ip = e.publisher_addr(TorrentId(i as u32), t);
                if peers.contains(&pub_ip) {
                    publisher_seen += 1;
                }
            }
        }
        assert!(candidates > 0);
        assert_eq!(publisher_seen, candidates, "publisher always in small samples");
    }

    #[test]
    fn probe_identifies_publisher_and_respects_nat() {
        let e = eco();
        let mut tested_pub = false;
        let mut tested_nat = false;
        for (i, p) in e.publications.iter().enumerate() {
            let id = TorrentId(i as u32);
            let t = p.at + SimDuration(30);
            let swarm = &e.swarms[i];
            if swarm.publisher_seeding(t) {
                let ip = e.publisher_addr(id, t);
                let outcome = probe(&e, id, ip, t);
                if e.publisher_natted(id) {
                    assert_eq!(outcome, ProbeOutcome::Unreachable);
                    tested_nat = true;
                } else {
                    assert!(outcome.is_seed(), "publisher must probe as seeder");
                    tested_pub = true;
                }
            }
            if tested_pub && tested_nat {
                break;
            }
        }
        assert!(tested_pub, "no publisher probed");
    }

    #[test]
    fn probe_offline_for_unknown_ip() {
        let e = eco();
        assert_eq!(
            probe(&e, TorrentId(0), Ipv4Addr::new(203, 0, 113, 1), e.publications[0].at),
            ProbeOutcome::Offline
        );
    }

    #[test]
    fn clean_profile_injects_nothing() {
        let e = eco();
        let plan = FaultPlan::new(e.config.seed, btpub_faults::FaultProfile::clean());
        let mut faulty = TrackerSim::with_faults(&e, plan);
        let mut clean = TrackerSim::new(&e);
        let t = e.publications[0].at + SimDuration(60);
        assert_eq!(
            ask(&mut faulty, 1, TorrentId(0), t, 50),
            ask(&mut clean, 1, TorrentId(0), t, 50),
        );
        assert!(faulty.fault_plan().is_none(), "clean plan is dropped");
    }

    #[test]
    fn hostile_profile_injects_downtime_drops_and_corruption() {
        let e = eco();
        let plan = FaultPlan::new(e.config.seed, btpub_faults::FaultProfile::hostile());
        let mut tr = TrackerSim::with_faults(&e, plan);
        let (mut down, mut dropped, mut malformed, mut ok) = (0u32, 0u32, 0u32, 0u32);
        // Spread queries across clients, torrents and a week of sim time so
        // every fault class gets draws, while staying rate-limit polite.
        for client in 0..40u32 {
            for i in 0..20u64 {
                let t = SimTime(i * 7200 + u64::from(client));
                match ask(&mut tr, client, TorrentId((i % 4) as u32), t, 50) {
                    Err(QueryError::TrackerDown { retry_at }) => {
                        assert!(retry_at > t, "retry_at must be in the future");
                        down += 1;
                    }
                    Err(QueryError::Dropped) => dropped += 1,
                    Err(QueryError::Malformed { .. }) => malformed += 1,
                    Err(QueryError::RateLimited { .. } | QueryError::Blacklisted) => {}
                    Err(QueryError::UnknownTorrent) => panic!("torrent exists"),
                    Ok(_) => ok += 1,
                }
            }
        }
        assert!(down > 0, "hostile profile must hit downtime windows");
        assert!(dropped > 0, "hostile profile must drop announces");
        assert!(malformed > 0, "hostile profile must corrupt replies");
        assert!(ok > 0, "most queries still succeed");
    }

    #[test]
    fn faults_are_deterministic_across_instances() {
        let e = eco();
        let mk = || {
            TrackerSim::with_faults(
                &e,
                FaultPlan::new(e.config.seed, btpub_faults::FaultProfile::flaky()),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for client in 0..10u32 {
            for i in 0..10u64 {
                let t = SimTime(i * 3600);
                assert_eq!(
                    ask(&mut a, client, TorrentId(0), t, 50),
                    ask(&mut b, client, TorrentId(0), t, 50),
                );
            }
        }
    }

    #[test]
    fn dropped_announce_leaves_no_rate_limit_trace() {
        // A dropped announce must not start the client's rate-limit clock:
        // the tracker never saw the request.
        let e = eco();
        let plan = FaultPlan::new(e.config.seed, btpub_faults::FaultProfile::hostile());
        let mut tr = TrackerSim::with_faults(&e, plan);
        let t0 = e.publications[0].at;
        // Find a (client, t) pair whose announce gets dropped.
        let mut found = false;
        'search: for client in 0..200u32 {
            for i in 0..50u64 {
                let t = t0 + SimDuration(i * 3600);
                if let Err(QueryError::Dropped) = ask(&mut tr, client, TorrentId(0), t, 50) {
                    // An immediate retry must not be rate-limited for the
                    // dropped attempt (it may hit another injected fault,
                    // but never RateLimited from state the drop created).
                    if let Err(QueryError::RateLimited { .. }) =
                        ask(&mut tr, client, TorrentId(0), t + SimDuration(1), 50)
                    {
                        panic!("dropped announce mutated rate-limit state")
                    }
                    found = true;
                    break 'search;
                }
            }
        }
        assert!(found, "hostile profile should drop at least one announce");
    }

    #[test]
    fn probe_with_injects_connection_failures() {
        let e = eco();
        let plan = FaultPlan::new(e.config.seed, btpub_faults::FaultProfile::hostile());
        let t = e.publications[0].at;
        let ip = Ipv4Addr::new(203, 0, 113, 1);
        let mut failed = 0;
        let mut passed = 0;
        for i in 0..500u64 {
            let at = SimTime(t.secs() + i);
            let with = probe_with(&e, Some(&plan), TorrentId(0), ip, at);
            let without = probe(&e, TorrentId(0), ip, at);
            if with == without {
                passed += 1;
            } else {
                assert_eq!(with, ProbeOutcome::Unreachable);
                failed += 1;
            }
            // And the faulty draw is stable.
            assert_eq!(with, probe_with(&e, Some(&plan), TorrentId(0), ip, at));
        }
        assert!(failed > 0, "hostile profile must fail some probes");
        assert!(passed > 0, "most probes still go through");
        // No plan → identical to the raw probe.
        assert_eq!(probe_with(&e, None, TorrentId(0), ip, t), probe(&e, TorrentId(0), ip, t));
    }

    #[test]
    fn probe_leechers_are_not_seeders() {
        let e = eco();
        let mut checked = 0;
        'outer: for (i, s) in e.swarms.iter().enumerate() {
            for peer in s.peers().iter().take(20) {
                if peer.natted || peer.completed.is_none() {
                    continue;
                }
                // Probe while mid-download.
                let mid = SimTime((peer.arrival.secs() + peer.completed.unwrap().secs()) / 2);
                if let ProbeOutcome::Completion(c) =
                    probe(&e, TorrentId(i as u32), Ipv4Addr::from(peer.ip), mid)
                {
                    assert!(c < 1.0, "leecher reporting full bitfield");
                    checked += 1;
                    if checked > 20 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(checked > 0);
    }
}
