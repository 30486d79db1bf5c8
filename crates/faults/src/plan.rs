//! The seeded fault plan: profile rates → concrete, reproducible faults.

use crate::mix;
use crate::profile::FaultProfile;

/// A concrete fault injected at one I/O edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The tracker is inside a downtime window ending at `until_secs`.
    TrackerDown {
        /// First second at which the tracker answers again.
        until_secs: u64,
    },
    /// The announce datagram/connection was lost; the client times out
    /// and the tracker never saw the request.
    AnnounceDropped,
    /// The reply arrived truncated mid-bencode.
    TruncatedReply,
    /// The reply arrived as garbled bencode.
    MalformedReply,
    /// The portal RSS endpoint returned an error page for this poll.
    FeedOutage,
    /// A peer-wire probe connection failed spuriously.
    ProbeConnFailed,
}

/// One injectable I/O edge. Implementors name a stable stream label (the
/// salt for every draw at this edge), pick which profile rate governs
/// them, and say what fault fires when the draw trips.
pub trait FaultPoint {
    /// Stable stream label, e.g. `"announce.drop"`. Part of the seed —
    /// renaming it reshuffles this edge's faults and no other's.
    const STREAM: &'static str;

    /// The governing rate, in parts per million.
    fn rate_ppm(profile: &FaultProfile) -> u32;

    /// The fault injected when the draw trips.
    fn fault() -> Fault;
}

/// The built-in injection points, one per I/O edge of the pipeline.
pub mod points {
    use super::{Fault, FaultPoint};
    use crate::profile::FaultProfile;

    /// Announce lost before the tracker saw it.
    pub struct AnnounceDrop;
    impl FaultPoint for AnnounceDrop {
        const STREAM: &'static str = "announce.drop";
        fn rate_ppm(p: &FaultProfile) -> u32 {
            p.announce_drop_ppm
        }
        fn fault() -> Fault {
            Fault::AnnounceDropped
        }
    }

    /// Reply truncated mid-bencode.
    pub struct TruncatedReply;
    impl FaultPoint for TruncatedReply {
        const STREAM: &'static str = "reply.truncated";
        fn rate_ppm(p: &FaultProfile) -> u32 {
            p.truncated_reply_ppm
        }
        fn fault() -> Fault {
            Fault::TruncatedReply
        }
    }

    /// Reply garbled into invalid bencode.
    pub struct MalformedReply;
    impl FaultPoint for MalformedReply {
        const STREAM: &'static str = "reply.malformed";
        fn rate_ppm(p: &FaultProfile) -> u32 {
            p.malformed_reply_ppm
        }
        fn fault() -> Fault {
            Fault::MalformedReply
        }
    }

    /// RSS poll against a down feed endpoint.
    pub struct RssPoll;
    impl FaultPoint for RssPoll {
        const STREAM: &'static str = "rss.outage";
        fn rate_ppm(p: &FaultProfile) -> u32 {
            p.rss_outage_ppm
        }
        fn fault() -> Fault {
            Fault::FeedOutage
        }
    }

    /// Peer-wire probe connection that fails spuriously.
    pub struct PeerProbe;
    impl FaultPoint for PeerProbe {
        const STREAM: &'static str = "probe.conn";
        fn rate_ppm(p: &FaultProfile) -> u32 {
            p.probe_fail_ppm
        }
        fn fault() -> Fault {
            Fault::ProbeConnFailed
        }
    }
}

/// Tracker downtime windows are drawn per block of this many seconds
/// (6 hours), matching the paper's reports of outages lasting tens of
/// minutes to a few hours rather than sub-second blips.
pub const DOWNTIME_BLOCK_SECS: u64 = 6 * 3600;

/// Fraction of blocks that contain an outage, in ppm (25 %). Within an
/// outage block the window length is scaled so the *long-run* downtime
/// fraction equals the profile rate.
const OUTAGE_BLOCK_PPM: u64 = 250_000;

/// A seeded fault plan: the profile plus the master seed, with every
/// decision derived statelessly from `(seed, stream, index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    /// Builds the plan for an ecosystem seed and a profile.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        FaultPlan { seed, profile }
    }

    /// The profile this plan realises.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The master seed (the ecosystem's).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checks injection point `P` at draw index `index`; `Some(fault)`
    /// when the edge fails this time. Injected faults are counted under
    /// `faults.injected.<stream>`.
    pub fn check<P: FaultPoint>(&self, index: u64) -> Option<Fault> {
        let ppm = P::rate_ppm(&self.profile);
        if ppm == 0 {
            return None;
        }
        if mix(self.seed, P::STREAM, index) % 1_000_000 < u64::from(ppm) {
            btpub_obs::counter(&format!("faults.injected.{}", P::STREAM)).inc();
            // Flight recorder: an instant event per injected fault, so a
            // trace shows *when* the chaos hit. record_named rather than
            // the cached trace_instant! macro — a `static` here would be
            // shared across every `P` monomorphization.
            if btpub_obs::trace::enabled() {
                btpub_obs::trace::record_named(
                    &format!("fault.{}", P::STREAM),
                    btpub_obs::trace::EventKind::Instant,
                    index,
                );
                // Black box: dump the rings the first time each stream
                // fires (trip dedupes per reason and is bounded per
                // process, so a hostile profile cannot I/O-storm this).
                btpub_obs::trace::trip(&format!("fault.{}", P::STREAM));
            }
            Some(P::fault())
        } else {
            None
        }
    }

    /// Whether the tracker is inside a downtime window at `t_secs`;
    /// returns the first second it is reachable again.
    ///
    /// Windows are derived per [`DOWNTIME_BLOCK_SECS`] block: a quarter
    /// of blocks carry one outage whose length is four times the
    /// profile's long-run downtime fraction (so the expectation matches),
    /// positioned by a second independent draw. Pure in `(seed, block)`.
    pub fn tracker_down(&self, t_secs: u64) -> Option<u64> {
        let rate = u64::from(self.profile.tracker_downtime_ppm);
        if rate == 0 {
            return None;
        }
        let block = t_secs / DOWNTIME_BLOCK_SECS;
        if mix(self.seed, "downtime.occur", block) % 1_000_000 >= OUTAGE_BLOCK_PPM {
            return None;
        }
        let len = (DOWNTIME_BLOCK_SECS * (rate * 4).min(1_000_000) / 1_000_000).max(60);
        let slack = DOWNTIME_BLOCK_SECS - len.min(DOWNTIME_BLOCK_SECS);
        let start_off = if slack == 0 {
            0
        } else {
            mix(self.seed, "downtime.start", block) % (slack + 1)
        };
        let start = block * DOWNTIME_BLOCK_SECS + start_off;
        let end = start + len;
        if (start..end).contains(&t_secs) {
            Some(end)
        } else {
            None
        }
    }

    /// Deterministic jitter in `[0, max]` for `(stream, index)` — the
    /// randomness source for retry backoff, with the same stateless
    /// guarantee as every other draw.
    pub fn jitter(&self, stream: &str, index: u64, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        mix(self.seed, stream, index) % (max + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(profile: FaultProfile) -> FaultPlan {
        FaultPlan::new(0xBEEF, profile)
    }

    #[test]
    fn clean_plan_never_faults() {
        let p = plan(FaultProfile::clean());
        for i in 0..10_000 {
            assert!(p.check::<points::AnnounceDrop>(i).is_none());
            assert!(p.check::<points::RssPoll>(i).is_none());
            assert!(p.tracker_down(i * 60).is_none());
        }
    }

    #[test]
    fn fault_rate_tracks_profile() {
        let p = plan(FaultProfile::hostile());
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&i| p.check::<points::AnnounceDrop>(i).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn draws_are_stateless_and_stream_separated() {
        let p = plan(FaultProfile::hostile());
        // Same index, same answer, regardless of call order.
        let first: Vec<bool> = (0..100)
            .map(|i| p.check::<points::AnnounceDrop>(i).is_some())
            .collect();
        let again: Vec<bool> = (0..100)
            .rev()
            .map(|i| p.check::<points::AnnounceDrop>(i).is_some())
            .collect();
        assert_eq!(first, again.into_iter().rev().collect::<Vec<_>>());
        // Streams are independent: identical indices, different pattern.
        let other: Vec<bool> = (0..100)
            .map(|i| p.check::<points::PeerProbe>(i).is_some())
            .collect();
        assert_ne!(first, other);
    }

    #[test]
    fn downtime_fraction_matches_rate() {
        let p = plan(FaultProfile::hostile());
        let month = 30 * 86_400u64;
        let step = 120u64;
        let down = (0..month / step)
            .filter(|i| p.tracker_down(i * step).is_some())
            .count();
        let frac = down as f64 / (month / step) as f64;
        assert!((0.05..0.17).contains(&frac), "downtime fraction {frac}");
    }

    #[test]
    fn downtime_windows_are_contiguous_and_end_when_promised() {
        let p = plan(FaultProfile::hostile());
        let mut t = 0u64;
        let horizon = 10 * 86_400;
        let mut windows = 0;
        while t < horizon {
            match p.tracker_down(t) {
                Some(until) => {
                    assert!(until > t);
                    // Down for every second of the window; at `until` the
                    // window is over (a new one may begin immediately, in
                    // which case it must end strictly later).
                    assert!(p.tracker_down(until.saturating_sub(1)).is_some());
                    assert!(p.tracker_down(until).is_none_or(|u2| u2 > until));
                    windows += 1;
                    t = until;
                }
                None => t += 600,
            }
        }
        assert!(windows > 0, "hostile profile must produce outages");
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(1, FaultProfile::hostile());
        let b = FaultPlan::new(2, FaultProfile::hostile());
        let va: Vec<bool> = (0..200)
            .map(|i| a.check::<points::AnnounceDrop>(i).is_some())
            .collect();
        let vb: Vec<bool> = (0..200)
            .map(|i| b.check::<points::AnnounceDrop>(i).is_some())
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = plan(FaultProfile::flaky());
        for i in 0..500 {
            let j = p.jitter("retry.test", i, 30);
            assert!(j <= 30);
            assert_eq!(j, p.jitter("retry.test", i, 30));
        }
        assert_eq!(p.jitter("retry.test", 7, 0), 0);
    }
}
