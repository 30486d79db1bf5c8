//! Per-torrent swarm traces.
//!
//! Rather than simulating every peer as an event-driven actor (which at
//! pb10 scale would mean tens of millions of events), each swarm is a
//! *trace*: the full arrival/completion/departure schedule of its peers,
//! generated once at publication time and queried analytically afterwards.
//! The tracker samples it, the crawler's bitfield probes interpolate
//! download progress from it, and the analysis validates against it as
//! ground truth. DESIGN.md §5 says why this beats the event-driven
//! alternative.

use btpub_fxhash::FxHashSet;
use rand::rngs::StdRng;
use rand::Rng;

use crate::intervals::IntervalSet;
use crate::publisher::PublisherId;
use crate::rngs;
use crate::time::{SimDuration, SimTime};

/// One downloader in a swarm trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerRecord {
    /// IPv4 address as a `u32`.
    pub ip: u32,
    /// When the peer joined the swarm.
    pub arrival: SimTime,
    /// When the peer finished downloading (became a seeder); `None` for
    /// peers that abort — every downloader of fake content aborts.
    pub completed: Option<SimTime>,
    /// When the peer left the swarm.
    pub departure: SimTime,
    /// Whether the peer is behind a NAT (unreachable for bitfield probes).
    pub natted: bool,
    /// Download progress reached at departure for aborting peers.
    pub abort_progress: f32,
}

impl PeerRecord {
    /// Whether the peer is in the swarm at `t`.
    pub fn active(&self, t: SimTime) -> bool {
        self.arrival <= t && t < self.departure
    }

    /// Whether the peer is a seeder at `t`.
    pub fn seeding(&self, t: SimTime) -> bool {
        self.active(t) && self.completed.is_some_and(|c| c <= t)
    }

    /// Download completion in [0, 1] at time `t` (linear interpolation).
    pub fn completion(&self, t: SimTime) -> f64 {
        if t < self.arrival {
            return 0.0;
        }
        match self.completed {
            Some(c) => {
                if t >= c {
                    1.0
                } else {
                    let total = c.since(self.arrival).secs().max(1);
                    t.since(self.arrival).secs() as f64 / total as f64
                }
            }
            None => {
                let total = self.departure.since(self.arrival).secs().max(1);
                let frac = (t.since(self.arrival).secs() as f64 / total as f64).min(1.0);
                f64::from(self.abort_progress) * frac
            }
        }
    }
}

/// Reusable buffers for [`SwarmTrace::sample_at`]. One per
/// announce loop (the tracker owns one); `clear()` is implicit.
#[derive(Debug, Default)]
pub struct SampleScratch {
    /// Window-relative indices picked by the sampling core.
    idxs: Vec<usize>,
    /// Dedup set for the rejection-sampling branch. Hash order is never
    /// observed — the set only answers "seen this index?" — so the
    /// deterministic-but-unordered FxHashSet is safe here.
    picked: FxHashSet<usize>,
}

/// Where one instant falls in a swarm's sorted schedules: the counts,
/// the sampling window and the active peers a tracker reply needs,
/// found once.
///
/// [`SwarmTrace::cursor_at`] finds them with binary searches and a scan
/// of the window; [`SwarmTrace::seek`] moves a cursor to a later
/// instant by stepping each index forward and updating the live list
/// with the peers that arrived or departed in between, which for a
/// torrent queried every few minutes is a handful of reads instead of a
/// dozen searches over cold arrays. A cursor belongs to the trace that
/// made it.
#[derive(Debug, Clone)]
pub struct SwarmCursor {
    /// The instant the indices describe.
    t: SimTime,
    /// Peers with `arrival <= t`: the end of the sampling window.
    arrived: usize,
    /// Departures `<= t`.
    departed: usize,
    /// Completions `<= t`.
    completed: usize,
    /// Completer departures `<= t`.
    gone: usize,
    /// Peers that arrived before `t - max_residency`, which cannot be
    /// active at `t`: the start of the sampling window.
    window_lo: usize,
    /// Indices into the trace's peers of those active at `t`, ascending.
    /// A peer that departed is tagged with `GONE` in place and stays
    /// until the tags outnumber the active entries, when one pass drops
    /// them all; so each departure costs a binary search, and the list
    /// holds at most about twice the active peers.
    live: Vec<u32>,
}

/// Tags a departed peer's entry in a cursor's live list. Peer indices
/// stay below it (checked when a trace is built), so a tagged entry
/// still sorts by its index once the tag is masked off.
const GONE: u32 = 1 << 31;

impl PartialEq for SwarmCursor {
    /// Equal positions: the same instant, indices and active peers,
    /// whatever departed entries either live list still holds.
    fn eq(&self, other: &Self) -> bool {
        let at = |c: &Self| (c.t, c.arrived, c.departed, c.completed, c.gone, c.window_lo);
        at(self) == at(other) && self.live().eq(other.live())
    }
}

impl Eq for SwarmCursor {}

/// Forward steps a [`SwarmTrace::seek`] takes one element at a time
/// before it binary-searches the rest, so a long jump costs O(log n).
const LINEAR_STEPS: usize = 16;

/// The first index at or after `from` whose element fails `before`,
/// given that every element before `from` satisfies it.
#[inline]
fn step_forward<T>(v: &[T], from: usize, before: impl Fn(&T) -> bool) -> usize {
    let end = (from + LINEAR_STEPS).min(v.len());
    let mut i = from;
    while i < end && before(&v[i]) {
        i += 1;
    }
    if i == end {
        i += v[i..].partition_point(before);
    }
    i
}

impl SwarmCursor {
    /// Non-publisher peers in the swarm ([`SwarmTrace::active_count`]).
    pub fn active(&self) -> usize {
        self.arrived - self.departed
    }

    /// Non-publisher seeders ([`SwarmTrace::seeder_count`]).
    pub fn seeders(&self) -> usize {
        self.completed - self.gone
    }

    /// Leechers ([`SwarmTrace::leecher_count`]).
    pub fn leechers(&self) -> usize {
        self.active() - self.seeders()
    }

    /// The sampling window: indices into the trace's peers (sorted by
    /// arrival) of those that arrived within the longest residency
    /// before the cursor's instant, up to and including it.
    pub fn window(&self) -> std::ops::Range<usize> {
        self.window_lo..self.arrived
    }

    /// Indices into the trace's peers of those active at the cursor's
    /// instant, ascending: [`Self::active`] of them, all in
    /// [`Self::window`].
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        self.live
            .iter()
            .filter(|&&i| (i & GONE) == 0)
            .map(|&i| i as usize)
    }
}

/// The complete trace of one swarm.
#[derive(Debug, Clone)]
pub struct SwarmTrace {
    /// The publishing entity.
    pub publisher: PublisherId,
    /// Index of this torrent within the publisher's output (selects the
    /// server in a multi-server address plan).
    pub pub_seq: u32,
    /// When the torrent appeared on the portal (RSS announcement).
    pub announce_at: SimTime,
    /// When the swarm actually started. Earlier than `announce_at` for
    /// torrents cross-posted on other portals first — the paper's
    /// "already published in other portals" case where IP identification
    /// fails.
    pub birth: SimTime,
    /// The publisher's seeding sessions (ground truth for Figure 4).
    pub sessions: IntervalSet,
    /// When the portal removed the content (fake torrents only).
    pub removal_at: Option<SimTime>,
    /// Peers sorted by arrival time.
    peers: Vec<PeerRecord>,
    /// Indices into `peers` in departure order (ties by index): the
    /// departed count at an instant, and which peers those are.
    departure_order: Vec<u32>,
    /// All completion times, sorted.
    completions: Vec<u64>,
    /// Departures of completing peers only, sorted.
    completer_departures: Vec<u64>,
    /// Longest peer residency, bounding the arrival window scan.
    max_residency: u64,
    /// How many of the publishing entity's servers seed this torrent in
    /// parallel (1 for normal publishers; fake entities often use several,
    /// which defeats the crawler's single-seeder identification — the
    /// reason most fake content has no identified IP in the datasets).
    publisher_seed_count: u8,
}

impl SwarmTrace {
    /// Builds a trace from raw peers (any order).
    pub fn new(
        publisher: PublisherId,
        pub_seq: u32,
        announce_at: SimTime,
        birth: SimTime,
        sessions: IntervalSet,
        removal_at: Option<SimTime>,
        mut peers: Vec<PeerRecord>,
    ) -> Self {
        assert!(birth <= announce_at, "birth after announcement");
        assert!(
            peers.len() < GONE as usize,
            "too many peers for u32 indices"
        );
        peers.sort_by_key(|p| p.arrival);
        // One counting scan buys exact capacities, then a single pass
        // fills the schedules and the residency bound together.
        let completers = peers.iter().filter(|p| p.completed.is_some()).count();
        let mut completions: Vec<u64> = Vec::with_capacity(completers);
        let mut completer_departures: Vec<u64> = Vec::with_capacity(completers);
        let mut max_residency = 0u64;
        for p in &peers {
            if let Some(c) = p.completed {
                completions.push(c.0);
                completer_departures.push(p.departure.0);
            }
            max_residency = max_residency.max(p.departure.since(p.arrival).secs());
        }
        let mut departure_order: Vec<u32> = (0..peers.len() as u32).collect();
        departure_order.sort_unstable_by_key(|&i| (peers[i as usize].departure, i));
        completions.sort_unstable();
        completer_departures.sort_unstable();
        SwarmTrace {
            publisher,
            pub_seq,
            announce_at,
            birth,
            sessions,
            removal_at,
            peers,
            departure_order,
            completions,
            completer_departures,
            max_residency,
            publisher_seed_count: 1,
        }
    }

    /// Sets how many entity servers seed this torrent in parallel.
    pub fn set_publisher_seed_count(&mut self, n: u8) {
        assert!(n >= 1, "at least one seeding server");
        self.publisher_seed_count = n;
    }

    /// Number of entity servers seeding this torrent while the publisher
    /// session is active.
    pub fn publisher_seed_count(&self) -> u8 {
        self.publisher_seed_count
    }

    /// Total downloaders over the swarm's life ("popularity" in the paper:
    /// downloaders regardless of progress).
    pub fn downloads(&self) -> usize {
        self.peers.len()
    }

    /// All peers, sorted by arrival.
    pub fn peers(&self) -> &[PeerRecord] {
        &self.peers
    }

    /// Whether the publisher is seeding at `t`.
    pub fn publisher_seeding(&self, t: SimTime) -> bool {
        self.sessions.contains(t)
    }

    /// Departures `<= t` (a prefix of `departure_order`).
    fn departed_by(&self, t: SimTime) -> usize {
        self.departure_order
            .partition_point(|&i| self.peers[i as usize].departure <= t)
    }

    /// A cursor at `t`, found by binary search and a scan of the
    /// sampling window — O(log n + window).
    pub fn cursor_at(&self, t: SimTime) -> SwarmCursor {
        self.locate(t, Vec::new())
    }

    /// [`Self::cursor_at`], filling `live` (cleared first) with the
    /// active peers so a rebuilt cursor keeps its buffer.
    fn locate(&self, t: SimTime, mut live: Vec<u32>) -> SwarmCursor {
        let window_start = t - SimDuration(self.max_residency);
        let arrived = self.peers.partition_point(|p| p.arrival <= t);
        let window_lo = self.peers.partition_point(|p| p.arrival < window_start);
        live.clear();
        live.extend(
            (window_lo..arrived)
                .filter(|&i| self.peers[i].active(t))
                .map(|i| i as u32),
        );
        SwarmCursor {
            t,
            arrived,
            departed: self.departed_by(t),
            completed: self.completions.partition_point(|&c| c <= t.0),
            gone: self.completer_departures.partition_point(|&d| d <= t.0),
            window_lo,
            live,
        }
    }

    /// Moves `cursor` to `t`: forward by stepping each index past what
    /// happened in between and updating the live list with the peers
    /// that arrived or departed there, backward by finding it afresh in
    /// the cursor's own buffer. Either way the result equals
    /// [`Self::cursor_at`]`(t)`.
    pub fn seek(&self, cursor: &mut SwarmCursor, t: SimTime) {
        if t < cursor.t {
            *cursor = self.locate(t, std::mem::take(&mut cursor.live));
            return;
        }
        if t == cursor.t {
            return;
        }
        let c = cursor;
        let window_start = t - SimDuration(self.max_residency);
        let (arrived, departed) = (c.arrived, c.departed);
        c.t = t;
        c.arrived = step_forward(&self.peers, arrived, |p| p.arrival <= t);
        c.departed = step_forward(&self.departure_order, departed, |&i| {
            self.peers[i as usize].departure <= t
        });
        c.completed = step_forward(&self.completions, c.completed, |&x| x <= t.0);
        c.gone = step_forward(&self.completer_departures, c.gone, |&d| d <= t.0);
        c.window_lo = step_forward(&self.peers, c.window_lo, |p| p.arrival < window_start);
        // Departed peers that were listed (they had arrived by the old
        // instant) are tagged where they stand; the list stays sorted
        // by index with the tags masked off.
        for &i in &self.departure_order[departed..c.departed] {
            if (i as usize) < arrived {
                let at = c.live.partition_point(|&x| (x & !GONE) < i);
                c.live[at] |= GONE;
            }
        }
        // Arrivals still here join after every earlier index.
        c.live.extend(
            (arrived..c.arrived)
                .filter(|&i| self.peers[i].departure > t)
                .map(|i| i as u32),
        );
        if c.live.len() > 2 * c.active() {
            c.live.retain(|&x| (x & GONE) == 0);
        }
    }

    /// Number of non-publisher peers in the swarm at `t` — O(log n).
    pub fn active_count(&self, t: SimTime) -> usize {
        self.peers.partition_point(|p| p.arrival <= t) - self.departed_by(t)
    }

    /// Number of non-publisher seeders at `t` — O(log n).
    pub fn seeder_count(&self, t: SimTime) -> usize {
        let completed = self.completions.partition_point(|&c| c <= t.0);
        let gone = self.completer_departures.partition_point(|&d| d <= t.0);
        completed - gone
    }

    /// Leechers (active non-seeders) at `t`.
    pub fn leecher_count(&self, t: SimTime) -> usize {
        self.active_count(t) - self.seeder_count(t)
    }

    /// Instant after which nothing ever happens again in this swarm.
    pub fn end_of_activity(&self) -> SimTime {
        let last_peer = self
            .departure_order
            .last()
            .map_or(0, |&i| self.peers[i as usize].departure.0);
        let last_session = self.sessions.end().map_or(0, |t| t.0);
        SimTime(last_peer.max(last_session))
    }

    /// Samples up to `want` distinct active peers at `t`, uniformly.
    ///
    /// Mirrors a tracker's random peer-list selection. The publisher is
    /// *not* included — the tracker layer adds it, because only the
    /// tracker knows the publisher's current address.
    ///
    /// Allocates per call; the announce fast path uses
    /// [`sample_at`](Self::sample_at) with a reusable [`SampleScratch`]
    /// instead. Both run the same core, so they draw the same RNG
    /// sequence and pick the same peers.
    pub fn sample_active(&self, t: SimTime, want: usize, rng: &mut StdRng) -> Vec<&PeerRecord> {
        let mut scratch = SampleScratch::default();
        let window = self.sample_core(&self.cursor_at(t), want, rng, &mut scratch);
        scratch.idxs.iter().map(|&i| &window[i]).collect()
    }

    /// Allocation-free sampling at the instant `cursor` describes,
    /// reusing the window it already found: picked peers are appended
    /// (copied) to `out`, reusing `scratch` across calls. Steady-state
    /// announces perform no heap allocation once the buffers have
    /// warmed up.
    pub fn sample_at(
        &self,
        cursor: &SwarmCursor,
        want: usize,
        rng: &mut StdRng,
        scratch: &mut SampleScratch,
        out: &mut Vec<PeerRecord>,
    ) {
        let window = self.sample_core(cursor, want, rng, scratch);
        out.extend(scratch.idxs.iter().map(|&i| window[i]));
    }

    /// Shared selection core: fills `scratch.idxs` with the picked
    /// window-relative indices and returns the arrival window.
    fn sample_core(
        &self,
        cursor: &SwarmCursor,
        want: usize,
        rng: &mut StdRng,
        scratch: &mut SampleScratch,
    ) -> &[PeerRecord] {
        scratch.idxs.clear();
        let active = cursor.active();
        if active == 0 || want == 0 {
            return &[];
        }
        // All active peers arrived within the residency window.
        let t = cursor.t;
        let window = &self.peers[cursor.window()];
        if active <= want || window.len() <= want * 4 {
            // Small case: take all active from the live list, in window
            // order, then subsample if needed.
            scratch
                .idxs
                .extend(cursor.live().map(|i| i - cursor.window_lo));
            if scratch.idxs.len() > want {
                // Partial Fisher-Yates for a uniform subset.
                for i in 0..want {
                    let j = rng.gen_range(i..scratch.idxs.len());
                    scratch.idxs.swap(i, j);
                }
                scratch.idxs.truncate(want);
            }
            return window;
        }
        // Large case: rejection-sample indices in the window.
        scratch.picked.clear();
        let mut attempts = 0usize;
        let max_attempts = want * 40;
        while scratch.idxs.len() < want && attempts < max_attempts {
            attempts += 1;
            let idx = rng.gen_range(0..window.len());
            if window[idx].active(t) && scratch.picked.insert(idx) {
                scratch.idxs.push(idx);
            }
        }
        window
    }

    /// Finds an active peer with address `ip` at `t` (bitfield probing).
    pub fn peer_by_ip(&self, ip: u32, t: SimTime) -> Option<&PeerRecord> {
        let window_start = t - SimDuration(self.max_residency);
        let lo = self.peers.partition_point(|p| p.arrival < window_start);
        let hi = self.peers.partition_point(|p| p.arrival <= t);
        self.peers[lo..hi]
            .iter()
            .find(|p| p.ip == ip && p.active(t))
    }
}

/// Parameters for generating a swarm's downloader trace.
#[derive(Debug, Clone, Copy)]
pub struct PeerGenParams {
    /// Target number of downloader arrivals (before removal truncation).
    pub target_downloads: usize,
    /// Swarm birth (arrivals begin here).
    pub birth: SimTime,
    /// Hard horizon: no arrivals at or after this instant.
    pub horizon: SimTime,
    /// Arrivals stop when the portal removes the listing.
    pub removal_at: Option<SimTime>,
    /// Popularity decay constant, days.
    pub tau_days: f64,
    /// Whether the content is fake (downloaders abort, never complete).
    pub fake: bool,
    /// Payload size in bytes (drives download duration).
    pub size_bytes: u64,
    /// Probability a downloader is NATted.
    pub nat_prob: f64,
}

/// Generates downloader arrivals with an exponentially decaying rate and
/// per-peer download/seeding lifetimes.
///
/// `draw_ip(rng, t)` supplies the downloader's address (and NAT override,
/// if `Some`) — the ecosystem uses it to mix in consuming publishers.
pub fn generate_peers<F>(params: &PeerGenParams, rng: &mut StdRng, mut draw_ip: F) -> Vec<PeerRecord>
where
    F: FnMut(&mut StdRng, SimTime) -> (u32, Option<bool>),
{
    let mut peers = Vec::with_capacity(params.target_downloads);
    let tau = params.tau_days * 86_400.0;
    let window = params.horizon.since(params.birth).secs() as f64;
    if window <= 0.0 {
        return peers;
    }
    // Truncated-exponential arrival offsets over [0, window).
    let trunc_mass = 1.0 - (-window / tau).exp();
    for _ in 0..params.target_downloads {
        let u: f64 = rng.gen_range(0.0..1.0);
        let offset = -tau * (1.0 - u * trunc_mass).ln();
        let arrival = params.birth + SimDuration(offset as u64);
        if let Some(removal) = params.removal_at {
            if arrival >= removal {
                continue; // the listing is gone; nobody finds the torrent
            }
        }
        if arrival >= params.horizon {
            continue;
        }
        let (ip, nat_override) = draw_ip(rng, arrival);
        let natted = nat_override.unwrap_or_else(|| rng.gen_bool(params.nat_prob));
        // Download duration: size / speed, speed log-normal with median
        // 250 KB/s, clamped to [10 min, 5 days].
        let speed = rngs::lognormal(rng, (250.0f64 * 1024.0).ln(), 0.9);
        let dl_secs = (params.size_bytes as f64 / speed).clamp(600.0, 5.0 * 86_400.0);
        let peer = if params.fake {
            // Victims notice the content is fake part-way and abort.
            let progress = rng.gen_range(0.05..0.6);
            let abort_after = SimDuration((dl_secs * progress) as u64);
            PeerRecord {
                ip,
                arrival,
                completed: None,
                departure: arrival + abort_after + SimDuration(60),
                natted,
                abort_progress: progress as f32,
            }
        } else {
            let completed = arrival + SimDuration(dl_secs as u64);
            // Seeding linger after completion: mostly short, heavy tail.
            let linger_h = match rng.gen_range(0u8..20) {
                0..=15 => rngs::lognormal(rng, 0.5f64.ln(), 0.8),
                16..=18 => rngs::lognormal(rng, 3.0f64.ln(), 0.6),
                _ => rngs::lognormal(rng, 20.0f64.ln(), 0.5),
            };
            let linger = SimDuration::from_hours(linger_h.min(36.0 * 24.0));
            PeerRecord {
                ip,
                arrival,
                completed: Some(completed),
                departure: completed + linger,
                natted,
                abort_progress: 1.0,
            }
        };
        peers.push(peer);
    }
    peers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::derive;
    use crate::time::{DAY, HOUR};

    fn mk_peer(ip: u32, arrive: u64, complete: Option<u64>, depart: u64) -> PeerRecord {
        PeerRecord {
            ip,
            arrival: SimTime(arrive),
            completed: complete.map(SimTime),
            departure: SimTime(depart),
            natted: false,
            abort_progress: if complete.is_some() { 1.0 } else { 0.3 },
        }
    }

    fn trace(peers: Vec<PeerRecord>) -> SwarmTrace {
        SwarmTrace::new(
            PublisherId(0),
            0,
            SimTime(0),
            SimTime(0),
            IntervalSet::from_raw([(SimTime(0), SimTime(1000))]),
            None,
            peers,
        )
    }

    #[test]
    fn counts_match_brute_force() {
        let peers = vec![
            mk_peer(1, 0, Some(50), 100),
            mk_peer(2, 10, Some(80), 90),
            mk_peer(3, 20, None, 60),
            mk_peer(4, 200, Some(300), 400),
        ];
        let tr = trace(peers.clone());
        for t in [0u64, 5, 15, 49, 55, 85, 95, 150, 250, 350, 450] {
            let t = SimTime(t);
            let active = peers.iter().filter(|p| p.active(t)).count();
            let seeding = peers.iter().filter(|p| p.seeding(t)).count();
            assert_eq!(tr.active_count(t), active, "active at {t:?}");
            assert_eq!(tr.seeder_count(t), seeding, "seeders at {t:?}");
            assert_eq!(tr.leecher_count(t), active - seeding, "leechers at {t:?}");
        }
    }

    #[test]
    fn completion_interpolates() {
        let p = mk_peer(1, 100, Some(200), 300);
        assert_eq!(p.completion(SimTime(50)), 0.0);
        assert!((p.completion(SimTime(150)) - 0.5).abs() < 1e-9);
        assert_eq!(p.completion(SimTime(200)), 1.0);
        assert_eq!(p.completion(SimTime(9999)), 1.0);
        let aborter = mk_peer(2, 100, None, 200);
        let c = aborter.completion(SimTime(150));
        assert!((c - 0.15).abs() < 1e-6, "half of 0.3 cap, got {c}");
        assert!(aborter.completion(SimTime(500)) <= 0.3 + 1e-6);
    }

    #[test]
    fn sampling_returns_only_active_unique_peers() {
        let peers: Vec<PeerRecord> = (0..500)
            .map(|i| mk_peer(i, u64::from(i), Some(u64::from(i) + 50), u64::from(i) + 100))
            .collect();
        let tr = trace(peers);
        let mut rng = derive(1, "sample", 0);
        let t = SimTime(250);
        let sample = tr.sample_active(t, 50, &mut rng);
        assert_eq!(sample.len(), 50);
        let mut ips: Vec<u32> = sample.iter().map(|p| p.ip).collect();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), 50, "no duplicates");
        assert!(sample.iter().all(|p| p.active(t)));
    }

    #[test]
    fn sampling_small_swarm_returns_everyone() {
        let tr = trace(vec![mk_peer(1, 0, Some(50), 100), mk_peer(2, 0, Some(60), 120)]);
        let mut rng = derive(2, "sample", 0);
        assert_eq!(tr.sample_active(SimTime(10), 200, &mut rng).len(), 2);
        assert!(tr.sample_active(SimTime(500), 200, &mut rng).is_empty());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // 1000 peers active; sample 100 many times; each peer's hit rate
        // should be near 10%.
        let peers: Vec<PeerRecord> = (0..1000).map(|i| mk_peer(i, 0, Some(10), 10_000)).collect();
        let tr = trace(peers);
        let mut rng = derive(3, "sample", 0);
        let mut hits = vec![0u32; 1000];
        for _ in 0..200 {
            for p in tr.sample_active(SimTime(100), 100, &mut rng) {
                hits[p.ip as usize] += 1;
            }
        }
        let mean = hits.iter().sum::<u32>() as f64 / 1000.0;
        assert!((mean - 20.0).abs() < 2.0, "mean hits {mean}");
        let min = *hits.iter().min().unwrap();
        let max = *hits.iter().max().unwrap();
        assert!(min > 0, "some peer never sampled");
        assert!(max < 60, "some peer oversampled: {max}");
    }

    #[test]
    fn sample_into_matches_allocating_version() {
        // The scratch-buffer sampler, reading a cursor carried forward
        // and back through the query times, must draw the same RNG
        // sequence and pick the same peers as the allocating one —
        // exercise both the small (Fisher-Yates) and large (rejection)
        // branches.
        let peers: Vec<PeerRecord> = (0..4000)
            .map(|i| mk_peer(i, u64::from(i % 337), Some(u64::from(i) + 5_000), u64::from(i) + 20_000))
            .collect();
        let tr = trace(peers);
        let mut scratch = SampleScratch::default();
        let mut out = Vec::new();
        let mut cursor = tr.cursor_at(SimTime(0));
        for (t, want) in [(100u64, 3000usize), (400, 25), (300, 0), (90_000, 10)] {
            let t = SimTime(t);
            let mut rng_a = derive(11, "eq", t.0);
            let mut rng_b = derive(11, "eq", t.0);
            let alloc: Vec<PeerRecord> =
                tr.sample_active(t, want, &mut rng_a).into_iter().copied().collect();
            out.clear();
            tr.seek(&mut cursor, t);
            tr.sample_at(&cursor, want, &mut rng_b, &mut scratch, &mut out);
            assert_eq!(alloc, out, "t={t:?} want={want}");
            // Both RNGs must be in the same state afterwards.
            assert_eq!(rng_a.gen_range(0..u64::MAX), rng_b.gen_range(0..u64::MAX));
        }
    }

    #[test]
    fn peer_by_ip_respects_activity() {
        let tr = trace(vec![mk_peer(77, 100, Some(200), 300)]);
        assert!(tr.peer_by_ip(77, SimTime(150)).is_some());
        assert!(tr.peer_by_ip(77, SimTime(50)).is_none());
        assert!(tr.peer_by_ip(77, SimTime(300)).is_none());
        assert!(tr.peer_by_ip(78, SimTime(150)).is_none());
    }

    #[test]
    fn end_of_activity_covers_sessions_and_peers() {
        let tr = SwarmTrace::new(
            PublisherId(0),
            0,
            SimTime(0),
            SimTime(0),
            IntervalSet::from_raw([(SimTime(0), SimTime(5000))]),
            None,
            vec![mk_peer(1, 0, Some(50), 100)],
        );
        assert_eq!(tr.end_of_activity(), SimTime(5000));
    }

    #[test]
    fn generate_peers_respects_removal_and_horizon() {
        let mut rng = derive(4, "gen", 0);
        let params = PeerGenParams {
            target_downloads: 2000,
            birth: SimTime(0),
            horizon: SimTime(30 * DAY.0),
            removal_at: Some(SimTime(DAY.0)), // removed after 1 day
            tau_days: 2.0,
            fake: true,
            size_bytes: 700 << 20,
            nat_prob: 0.5,
        };
        let peers = generate_peers(&params, &mut rng, |_, _| (1234, None));
        assert!(!peers.is_empty());
        assert!(peers.len() < 2000, "removal truncates arrivals");
        assert!(peers.iter().all(|p| p.arrival < SimTime(DAY.0)));
        assert!(peers.iter().all(|p| p.completed.is_none()), "fake: none complete");
        assert!(peers.iter().all(|p| p.abort_progress < 0.6001));
    }

    #[test]
    fn generate_peers_decays_over_time() {
        let mut rng = derive(5, "gen", 0);
        let params = PeerGenParams {
            target_downloads: 5000,
            birth: SimTime(0),
            horizon: SimTime(20 * DAY.0),
            removal_at: None,
            tau_days: 3.0,
            fake: false,
            size_bytes: 300 << 20,
            nat_prob: 0.6,
        };
        let peers = generate_peers(&params, &mut rng, |_, _| (1, None));
        let first_3d = peers.iter().filter(|p| p.arrival < SimTime(3 * DAY.0)).count();
        let last_10d = peers
            .iter()
            .filter(|p| p.arrival >= SimTime(10 * DAY.0))
            .count();
        assert!(
            first_3d > last_10d * 5,
            "front-loaded arrivals: {first_3d} vs {last_10d}"
        );
        // Non-fake peers complete and then depart.
        assert!(peers.iter().all(|p| p.completed.is_some()));
        assert!(peers.iter().all(|p| p.departure > p.completed.unwrap()));
        // NAT share near the configured probability.
        let nat_share =
            peers.iter().filter(|p| p.natted).count() as f64 / peers.len() as f64;
        assert!((nat_share - 0.6).abs() < 0.05, "nat share {nat_share}");
    }

    #[test]
    fn generate_peers_nat_override_wins() {
        let mut rng = derive(6, "gen", 0);
        let params = PeerGenParams {
            target_downloads: 100,
            birth: SimTime(0),
            horizon: SimTime(5 * DAY.0),
            removal_at: None,
            tau_days: 2.0,
            fake: false,
            size_bytes: 1 << 20,
            nat_prob: 1.0,
        };
        let peers = generate_peers(&params, &mut rng, |_, _| (9, Some(false)));
        assert!(peers.iter().all(|p| !p.natted));
    }

    #[test]
    fn download_durations_scale_with_size() {
        let mut rng = derive(7, "gen", 0);
        let small = PeerGenParams {
            target_downloads: 300,
            birth: SimTime(0),
            horizon: SimTime(5 * DAY.0),
            removal_at: None,
            tau_days: 2.0,
            fake: false,
            size_bytes: 5 << 20, // 5 MB
            nat_prob: 0.0,
        };
        let big = PeerGenParams {
            size_bytes: 4 << 30, // 4 GB
            ..small
        };
        let avg = |peers: &[PeerRecord]| {
            peers
                .iter()
                .map(|p| p.completed.unwrap().since(p.arrival).secs())
                .sum::<u64>() as f64
                / peers.len() as f64
        };
        let small_peers = generate_peers(&small, &mut rng, |_, _| (1, None));
        let big_peers = generate_peers(&big, &mut rng, |_, _| (1, None));
        assert!(avg(&big_peers) > avg(&small_peers) * 5.0);
        // clamp floor: nothing under 10 minutes
        assert!(small_peers
            .iter()
            .all(|p| p.completed.unwrap().since(p.arrival) >= SimDuration(600)));
        let _ = HOUR;
    }

    #[test]
    #[should_panic(expected = "birth after announcement")]
    fn birth_after_announce_panics() {
        SwarmTrace::new(
            PublisherId(0),
            0,
            SimTime(0),
            SimTime(10),
            IntervalSet::new(),
            None,
            vec![],
        );
    }
}
