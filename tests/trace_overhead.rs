//! Arming the flight recorder costs at most 5% per announce on the
//! crawler's hot path: production-cheap enough to leave on.
//!
//! The laps announce into the repro-scale pb10 world, whose replies are
//! the size the paper's crawl sees; a tiny announce finishes in ~100 ns
//! and would inflate a fixed ~10 ns recorder cost into a percentage no
//! real announce pays. They are shaped like the crawl's: four vantage
//! clients take turns on each torrent, each re-announcing it every
//! 900 s, so no announce is refused, and the tracker's rate-limit map is
//! warm before the first timed lap, so no announce pays for its growth.
//! Each announce also ends one lap of a [`Laps`], as each event of the
//! crawl loop does. The tracker times about one announce in 16 and
//! records only those, but every lap reads the clock, so armed, every
//! announce records at least one complete event: the gate bounds the
//! recorder's cost per event, not a sixteenth of it.
//! A debug build says nothing about that cost, so the test is ignored
//! by default; `scripts/check.sh` runs it in release with `--ignored`.
//! It has a test binary of its own so no other test's threads share the
//! timed laps.

use std::net::Ipv4Addr;
use std::time::Instant;

use btpub::{Scale, Scenario};
use btpub_obs::span::Laps;
use btpub_obs::trace;
use btpub_sim::{Ecosystem, SimDuration, SimTime, SwarmCursor, TorrentId};
use btpub_tracker::TrackerSim;

/// Armed-recorder overhead ceiling on the announce lap, percent.
const TRACE_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Announces per lap.
const BATCH: u32 = 256;

/// Off/on lap pairs.
const ROUNDS: usize = 2056;

/// Vantage clients taking turns on each torrent, as in the crawler's
/// default fleet.
const VANTAGE: u32 = 4;

/// Seconds between two announces to one torrent: each client returns to
/// it every `VANTAGE * SPACING` = 900 s, the tracker's longest minimum
/// interval, which is the cadence the crawler keeps.
const SPACING: u64 = 225;

/// The crawl's state: per torrent a swarm cursor and the next round,
/// and the event loop's tick laps.
struct Crawl {
    cursors: Vec<SwarmCursor>,
    rounds: Vec<u32>,
    /// The torrent the next announce goes to; torrents take turns.
    next: usize,
    /// One lap per announce, as the crawl loop laps once per event.
    ticks: Laps,
}

/// One timed lap of warm announces; returns seconds per announce.
/// Each torrent's announces start a day into its swarm's life, near the
/// flash-crowd peak, where replies carry a real peer list, and move
/// forward by [`SPACING`] per round.
fn timed_lap(
    eco: &Ecosystem,
    tracker: &mut TrackerSim,
    crawl: &mut Crawl,
    peers: &mut Vec<Ipv4Addr>,
) -> f64 {
    let n = eco.publications.len();
    let mut refused = 0;
    let t0 = Instant::now();
    for _ in 0..BATCH {
        let i = crawl.next;
        crawl.next = (i + 1) % n;
        let round = crawl.rounds[i];
        crawl.rounds[i] += 1;
        let at = eco.publications[i].at
            + SimDuration::from_hours(24.0)
            + SimDuration(SPACING * u64::from(round));
        let reply = tracker.query_into(
            round % VANTAGE,
            TorrentId(i as u32),
            &mut crawl.cursors[i],
            at,
            50,
            peers,
        );
        crawl.ticks.lap();
        refused += usize::from(reply.is_err());
    }
    let secs = t0.elapsed().as_secs_f64() / f64::from(BATCH);
    assert_eq!(refused, 0, "a crawl-shaped announce was refused");
    secs
}

/// Median of the on/off ratios of every second pair, from `parity`.
fn cohort_median(off: &[f64], on: &[f64], parity: usize) -> f64 {
    let mut ratios: Vec<f64> = off
        .iter()
        .zip(on)
        .skip(parity)
        .step_by(2)
        .map(|(o, n)| n / o)
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Thousands of short off/on lap pairs over one warm tracker, scored as
/// the mean of the two order cohorts' median on/off ratios. A pair spans
/// ~300 µs, so slow drift (frequency scaling, cache placement) cancels
/// inside it; a preemption lands in one lap and makes one outlier ratio,
/// which the median rejects; and alternating the order inside the pair
/// (off-then-on, on-then-off) shifts the two cohorts in opposite
/// directions by any second-lap bias, which the mean cancels. That is
/// what lets a hard 5% gate hold on a small shared host whose single
/// lap walls swing by ±10%.
#[test]
#[ignore = "release-only: scripts/check.sh"]
fn armed_recorder_costs_at_most_five_percent_per_announce() {
    let eco = Ecosystem::generate(Scenario::pb10(Scale::default_repro()).eco.clone());
    let mut tracker = TrackerSim::new(&eco);
    let mut peers = Vec::new();
    // One swarm cursor per torrent, owned here as the crawler owns them.
    let mut crawl = Crawl {
        cursors: eco
            .swarms
            .iter()
            .map(|s| s.cursor_at(SimTime::ZERO))
            .collect(),
        rounds: vec![0; eco.publications.len()],
        next: 0,
        ticks: btpub_obs::laps!("test.trace_overhead.tick"),
    };
    // Warm laps until every client has announced every torrent: the
    // reply buffer, the tracker's maps and the interned trace symbols.
    trace::set_enabled(true);
    while crawl.rounds.iter().any(|&r| r < VANTAGE) {
        timed_lap(&eco, &mut tracker, &mut crawl, &mut peers);
    }
    let mut off = Vec::with_capacity(ROUNDS);
    let mut on = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let on_first = round % 2 == 1;
        for half in 0..2 {
            let armed = (half == 0) == on_first;
            trace::set_enabled(armed);
            let lap = timed_lap(&eco, &mut tracker, &mut crawl, &mut peers);
            if armed {
                on.push(lap);
            } else {
                off.push(lap);
            }
        }
    }
    trace::set_enabled(false);
    let events = trace::drain().event_count();
    let (off_first, on_first) = (cohort_median(&off, &on, 0), cohort_median(&off, &on, 1));
    let overhead_pct = ((off_first + on_first) / 2.0 - 1.0) * 100.0;
    let mut off_sorted = off.clone();
    off_sorted.sort_by(f64::total_cmp);
    let off_announce_ns = off_sorted[off_sorted.len() / 2] * 1e9;
    // The same ratio in absolute terms, so the headroom under the
    // ceiling reads the same on a faster or slower host.
    let armed_ns = overhead_pct / 100.0 * off_announce_ns;
    eprintln!(
        "cohort medians: off-first {:+.2}%, on-first {:+.2}%; overhead {overhead_pct:+.2}% \
         ({armed_ns:+.1} ns per announce); median off-lap announce {off_announce_ns:.0} ns; \
         {events} events drained",
        (off_first - 1.0) * 100.0,
        (on_first - 1.0) * 100.0,
    );

    // The recorder was armed: the armed laps left events to drain.
    assert!(
        events > 0,
        "trace overhead: the armed laps recorded no events"
    );
    assert!(
        overhead_pct <= TRACE_OVERHEAD_CEILING_PCT,
        "trace overhead: arming the recorder costs {overhead_pct:+.2}% per \
         announce, ceiling {TRACE_OVERHEAD_CEILING_PCT}%"
    );
}
