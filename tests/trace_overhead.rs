//! Arming the flight recorder costs at most 5% per announce on the
//! crawler's hot path: production-cheap enough to leave on.
//!
//! The laps announce into the repro-scale pb10 world, whose replies are
//! the size the paper's crawl sees; a tiny announce finishes in ~100 ns
//! and would inflate a fixed ~10 ns recorder cost into a percentage no
//! real announce pays. A debug build says nothing about that cost, so
//! the test is ignored by default; `scripts/check.sh` runs it in release
//! with `--ignored`. It has a test binary of its own so no other test's
//! threads share the timed laps.

use std::net::Ipv4Addr;
use std::time::Instant;

use btpub::{Scale, Scenario};
use btpub_obs::trace;
use btpub_sim::{Ecosystem, SimDuration, TorrentId};
use btpub_tracker::TrackerSim;

/// Armed-recorder overhead ceiling on the announce lap, percent.
const TRACE_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Announces per lap.
const BATCH: u32 = 256;

/// Off/on lap pairs.
const ROUNDS: usize = 2056;

/// One timed lap of warm announces; returns seconds per announce.
/// Announces land a day into each swarm's life, near the flash-crowd
/// peak, where replies carry a real peer list.
fn timed_lap(
    eco: &Ecosystem,
    tracker: &mut TrackerSim,
    peers: &mut Vec<Ipv4Addr>,
    base: u32,
) -> f64 {
    let n = eco.publications.len() as u32;
    let t0 = Instant::now();
    for i in 0..BATCH {
        let torrent = TorrentId(i % n);
        let at = eco.publications[(i % n) as usize].at + SimDuration::from_hours(24.0);
        let _ = tracker.query_into(base + i, torrent, at, 50, peers);
    }
    t0.elapsed().as_secs_f64() / f64::from(BATCH)
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
    let mut base = 10_000_000u32;
    // Warm lap: reply buffer, tracker maps, interned trace symbols.
    trace::set_enabled(true);
    timed_lap(&eco, &mut tracker, &mut peers, base);
    base += BATCH;
    let mut off = Vec::with_capacity(ROUNDS);
    let mut on = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let on_first = round % 2 == 1;
        for half in 0..2 {
            let armed = (half == 0) == on_first;
            trace::set_enabled(armed);
            let lap = timed_lap(&eco, &mut tracker, &mut peers, base);
            base += BATCH;
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
    eprintln!(
        "cohort medians: off-first {:+.2}%, on-first {:+.2}%; overhead {overhead_pct:+.2}%; \
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
