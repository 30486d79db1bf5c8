//! Shared rate-limit / strike / blacklist enforcement.
//!
//! [`TrackerSim`](crate::sim::TrackerSim) and the live serving plane
//! ([`crate::serve`]) must refuse the same clients for the same reasons:
//! the load generator's oracle equality only holds if the two paths can
//! never drift. PR 3 found exactly such a drift once (the vantage
//! rotation bug), so the policy now lives in one place — this module —
//! and both trackers call into it.
//!
//! The policy, verbatim from the original `TrackerSim`:
//!
//! * the per-client minimum interval varies in [600, 900] s,
//!   deterministically per hour ([`min_interval`]);
//! * a re-query before the interval elapses is refused
//!   ([`Admission::RateLimited`]);
//! * a re-query within *half* the interval is an egregious violation and
//!   earns a strike; more than [`MAX_STRIKES`] strikes blacklists the
//!   client for good;
//! * blacklisted clients are refused outright, before anything else.
//!
//! The serving plane layers one extra rule on top, off by default so the
//! in-process simulation is bit-for-bit unchanged: *exact-duplicate
//! detection* ([`Enforcer::serving`]). A datagram retransmitted by a
//! retry ladder arrives with the same `(client, torrent, t)` coordinates
//! as the original; replaying it must neither mutate swarm state again
//! nor earn a second strike, or a lossy network would push honest
//! clients onto the blacklist and out of oracle parity.

use std::collections::hash_map::Entry;

use btpub_fxhash::{FxHashMap, FxHashSet};
use btpub_sim::{SimDuration, SimTime, TorrentId};

/// Identifies a querying client (crawler vantage point or live peer).
pub type ClientId = u32;

/// The per-client minimum query interval at time `t`. Varies in
/// [10, 15] minutes with load, deterministically per hour.
pub fn min_interval(t: SimTime) -> SimDuration {
    let hour = t.secs() / 3600;
    // Cheap deterministic jitter per hour: 600–900 s.
    let jitter = (hour.wrapping_mul(0x9E37_79B9) >> 7) % 301;
    SimDuration(600 + jitter)
}

/// Violations tolerated before a client is blacklisted, by both the
/// simulated tracker and the serving plane.
pub const MAX_STRIKES: u32 = 20;

/// What the enforcement layer decided about one announce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve it; the rate-limit clock has been reset.
    Admit,
    /// Exact retransmit of an already-served announce (same client,
    /// torrent and timestamp): re-serve without touching any state.
    /// Only produced by [`Enforcer::serving`]-mode enforcers.
    Duplicate,
    /// Too soon; retry at the contained time.
    RateLimited {
        /// Earliest permitted retry.
        retry_at: SimTime,
    },
    /// The client is (or just became) blacklisted.
    Blacklisted,
}

/// Rate-limit clock + strike counter + blacklist for one tracker.
///
/// Deliberately free of observability calls except the two blacklist
/// trace instants (which both paths must emit identically): callers own
/// their counters so `TrackerSim`'s report bytes stay pinned.
pub struct Enforcer {
    /// Last admitted (or exempt) query per (client, torrent).
    last_query: FxHashMap<(ClientId, TorrentId), SimTime>,
    strikes: FxHashMap<ClientId, u32>,
    blacklisted: FxHashSet<ClientId>,
    /// Retransmit tolerance (serving mode): exact `(client, torrent, t)`
    /// repeats are deduplicated instead of striked twice.
    dedup_exact: bool,
    /// When deduplicating, the timestamp of the last strike per
    /// (client, torrent), so a retransmitted violation strikes once.
    last_strike: FxHashMap<(ClientId, TorrentId), SimTime>,
}

impl Enforcer {
    /// The in-simulation tracker's enforcement: [`MAX_STRIKES`], no
    /// retransmit dedup (the in-process call path cannot retransmit).
    pub fn tracker() -> Enforcer {
        Enforcer::with_dedup(false)
    }

    /// The serving plane's enforcement: the same [`MAX_STRIKES`] policy,
    /// plus exact-duplicate detection for retransmitted datagrams.
    pub fn serving() -> Enforcer {
        Enforcer::with_dedup(true)
    }

    fn with_dedup(dedup_exact: bool) -> Enforcer {
        Enforcer {
            last_query: FxHashMap::default(),
            strikes: FxHashMap::default(),
            blacklisted: FxHashSet::default(),
            dedup_exact,
            last_strike: FxHashMap::default(),
        }
    }

    /// Whether a client has been blacklisted.
    pub fn is_blacklisted(&self, client: ClientId) -> bool {
        self.blacklisted.contains(&client)
    }

    /// Strikes recorded against a client so far.
    pub fn strikes_of(&self, client: ClientId) -> u32 {
        self.strikes.get(&client).copied().unwrap_or(0)
    }

    /// Applies the rate-limit policy to one announce from `client` for
    /// `torrent` at time `t`, mutating the clock/strike state.
    ///
    /// The caller must have refused blacklisted clients (via
    /// [`is_blacklisted`](Self::is_blacklisted)) and unknown torrents
    /// *before* calling this — in that order, which is the precedence
    /// the original `TrackerSim` established. [`Admission::Blacklisted`]
    /// here means the client crossed the strike threshold on *this*
    /// query.
    ///
    /// `exempt` announces (the serving plane passes lifecycle
    /// `completed`/`stopped` events, which real trackers never throttle)
    /// skip the rate-limit check but still reset the clock; the
    /// simulation tracker always passes `false`.
    pub fn admit(
        &mut self,
        client: ClientId,
        torrent: TorrentId,
        t: SimTime,
        exempt: bool,
    ) -> Admission {
        let interval = min_interval(t);
        // One probe of the clock map: the entry is read, and reset on
        // admission, through the same slot.
        let mut slot = match self.last_query.entry((client, torrent)) {
            Entry::Vacant(v) => {
                v.insert(t);
                return Admission::Admit;
            }
            Entry::Occupied(o) => o,
        };
        let last = *slot.get();
        if self.dedup_exact && t == last {
            return Admission::Duplicate;
        }
        let earliest = last + interval;
        if !exempt && t < earliest {
            // Only egregious violations (re-query within half the
            // interval) count toward blacklisting; mild drift caused
            // by the load-dependent interval is tolerated, as real
            // trackers do.
            if t < last + SimDuration(interval.secs() / 2) {
                let striked_already =
                    self.dedup_exact && self.last_strike.get(&(client, torrent)) == Some(&t);
                if !striked_already {
                    let strikes = self.strikes.entry(client).or_insert(0);
                    *strikes += 1;
                    btpub_obs::trace_instant!("tracker.blacklist.strike", u64::from(client));
                    if self.dedup_exact {
                        self.last_strike.insert((client, torrent), t);
                    }
                    if *strikes > MAX_STRIKES {
                        self.blacklisted.insert(client);
                        btpub_obs::trace_instant!("tracker.blacklist.added", u64::from(client));
                        return Admission::Blacklisted;
                    }
                }
            }
            return Admission::RateLimited { retry_at: earliest };
        }
        *slot.get_mut() = t;
        Admission::Admit
    }

    /// Appends every client with recorded strikes or a blacklist entry,
    /// sorted by client id — the canonical-snapshot form the serving
    /// plane's oracle equality compares.
    pub fn snapshot_into(&self, out: &mut Vec<(ClientId, u32, bool)>) {
        for (&client, &strikes) in &self.strikes {
            out.push((client, strikes, self.blacklisted.contains(&client)));
        }
        for &client in &self.blacklisted {
            if !self.strikes.contains_key(&client) {
                out.push((client, 0, true));
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_varies_within_bounds_per_hour() {
        for hour in 0..200u64 {
            let iv = min_interval(SimTime(hour * 3600 + 17));
            assert!(iv >= SimDuration(600) && iv <= SimDuration(900));
            // Constant within the hour.
            assert_eq!(iv, min_interval(SimTime(hour * 3600 + 3599)));
        }
    }

    #[test]
    fn admit_then_rate_limited_then_admit() {
        let mut e = Enforcer::tracker();
        let t0 = SimTime(1000);
        assert_eq!(e.admit(1, TorrentId(0), t0, false), Admission::Admit);
        match e.admit(1, TorrentId(0), SimTime(1500), false) {
            Admission::RateLimited { retry_at } => assert!(retry_at > SimTime(1500)),
            other => panic!("expected rate limit, got {other:?}"),
        }
        assert_eq!(
            e.admit(1, TorrentId(0), SimTime(1000 + 901), false),
            Admission::Admit
        );
    }

    #[test]
    fn strikes_escalate_to_blacklist() {
        let mut e = Enforcer::tracker();
        let t0 = SimTime(0);
        assert_eq!(e.admit(9, TorrentId(0), t0, false), Admission::Admit);
        let mut blacklisted = false;
        for i in 1..100u64 {
            match e.admit(9, TorrentId(0), SimTime(i), false) {
                Admission::Blacklisted => {
                    blacklisted = true;
                    break;
                }
                Admission::RateLimited { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(blacklisted);
        assert!(e.is_blacklisted(9));
        assert!(e.strikes_of(9) > MAX_STRIKES);
        // Polite clients unaffected.
        assert_eq!(e.admit(10, TorrentId(0), SimTime(100), false), Admission::Admit);
    }

    #[test]
    fn serving_mode_deduplicates_exact_retransmits() {
        let mut e = Enforcer::serving();
        let t = SimTime(5000);
        assert_eq!(e.admit(3, TorrentId(1), t, false), Admission::Admit);
        // The retransmitted datagram carries identical coordinates.
        assert_eq!(e.admit(3, TorrentId(1), t, false), Admission::Duplicate);
        assert_eq!(e.strikes_of(3), 0, "retransmit must not strike");
    }

    #[test]
    fn serving_mode_strikes_once_per_violation_timestamp() {
        let mut e = Enforcer::serving();
        assert_eq!(e.admit(4, TorrentId(0), SimTime(0), false), Admission::Admit);
        // Egregious re-query — one strike…
        assert!(matches!(
            e.admit(4, TorrentId(0), SimTime(10), false),
            Admission::RateLimited { .. }
        ));
        assert_eq!(e.strikes_of(4), 1);
        // …and its retransmit must not earn a second.
        assert!(matches!(
            e.admit(4, TorrentId(0), SimTime(10), false),
            Admission::RateLimited { .. }
        ));
        assert_eq!(e.strikes_of(4), 1);
        // A genuinely new violation strikes again.
        assert!(matches!(
            e.admit(4, TorrentId(0), SimTime(20), false),
            Admission::RateLimited { .. }
        ));
        assert_eq!(e.strikes_of(4), 2);
    }

    #[test]
    fn tracker_mode_strikes_on_every_violation() {
        // The in-process path has no retransmits, so identical
        // coordinates are genuine hammering and must strike each time —
        // pinning that the dedup layer changed nothing for TrackerSim.
        let mut e = Enforcer::tracker();
        assert_eq!(e.admit(4, TorrentId(0), SimTime(0), false), Admission::Admit);
        for _ in 0..3 {
            assert!(matches!(
                e.admit(4, TorrentId(0), SimTime(10), false),
                Admission::RateLimited { .. }
            ));
        }
        assert_eq!(e.strikes_of(4), 3);
    }

    #[test]
    fn exempt_bypasses_rate_limit_but_resets_clock() {
        let mut e = Enforcer::serving();
        assert_eq!(e.admit(5, TorrentId(0), SimTime(0), false), Admission::Admit);
        // A completed event 30 s later is served…
        assert_eq!(e.admit(5, TorrentId(0), SimTime(30), true), Admission::Admit);
        assert_eq!(e.strikes_of(5), 0);
        // …and restarts the interval from t=30.
        assert!(matches!(
            e.admit(5, TorrentId(0), SimTime(60), false),
            Admission::RateLimited { .. }
        ));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let mut e = Enforcer::tracker();
        e.admit(7, TorrentId(0), SimTime(0), false);
        for t in 1..=u64::from(MAX_STRIKES) {
            e.admit(7, TorrentId(0), SimTime(t), false); // strikes 1..=20
        }
        let last = SimTime(u64::from(MAX_STRIKES) + 1);
        assert_eq!(e.admit(7, TorrentId(0), last, false), Admission::Blacklisted); // strike 21
        e.admit(2, TorrentId(0), SimTime(0), false);
        e.admit(2, TorrentId(0), SimTime(1), false); // strike 1
        let mut snap = Vec::new();
        e.snapshot_into(&mut snap);
        assert_eq!(snap, vec![(2, 1, false), (7, 21, true)]);
    }
}
