//! The crawler's steady-state announce path does not allocate: once the
//! reply buffer, the scratch space, the tracker's maps and each swarm
//! cursor's live list are warm, `TrackerSim::query_into` serves from
//! what it already holds.
//!
//! This is an integration test of its own so the process's global
//! allocator counts the announce loop and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use btpub::{Scale, Scenario};
use btpub_sim::{Ecosystem, SimDuration, SimTime, SwarmCursor, TorrentId};
use btpub_tracker::TrackerSim;

/// `System`, plus a count of the calls that ask for memory (alloc,
/// alloc_zeroed, realloc). Frees are not counted.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes to `System` with the caller's own arguments;
// the counting touches only an atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Announces per lap.
const QUERIES: u32 = 4096;

/// Allocator calls allowed per warm announce: a tenth, as slack for an
/// occasional map resize.
const MAX_ALLOCS_PER_ANNOUNCE: f64 = 0.1;

/// Between one announce of a torrent and its next in a lap.
const SPACING: SimDuration = SimDuration(900);

/// The `i`-th announce of a lap: its torrent and instant. Torrents take
/// turns, and a torrent's k-th announce of a lap falls an hour plus k
/// quarter-hours into its swarm: the crawler's steady state, where each
/// announce steps the torrent's cursor forward and its live list takes
/// in the peers that arrived and drops those that left.
fn announce(eco: &Ecosystem, i: u32) -> (usize, SimTime) {
    let n = eco.publications.len() as u32;
    let torrent = (i % n) as usize;
    let at = eco.publications[torrent].at
        + SimDuration::from_hours(1.0)
        + SimDuration(SPACING.0 * u64::from(i / n));
    (torrent, at)
}

/// Moves every cursor back to the epoch, which rebuilds its live list
/// in its own buffer, so the next lap repeats the first lap's steps.
fn rewind(eco: &Ecosystem, cursors: &mut [SwarmCursor]) {
    for (cursor, swarm) in cursors.iter_mut().zip(&eco.swarms) {
        swarm.seek(cursor, SimTime::ZERO);
    }
}

#[test]
fn warm_announces_do_not_allocate() {
    let scenario = Scenario::pb10(Scale::tiny());
    let eco = Ecosystem::generate(scenario.eco.clone());
    let mut tracker = TrackerSim::new(&eco);
    let mut peers = Vec::new();
    // One swarm cursor per torrent, owned here as the crawler owns them.
    let mut cursors: Vec<_> = eco
        .swarms
        .iter()
        .map(|s| s.cursor_at(SimTime::ZERO))
        .collect();
    // One announce per (client, torrent) pair. The first lap grows every
    // live list to the largest length a lap needs, and warms the reply
    // buffer, the scratch space and the tracker's maps. Returns how many
    // live-list entries the lap's announces added or dropped, net per
    // announce.
    let mut lap = |base: u32| -> usize {
        rewind(&eco, &mut cursors);
        let mut churn = 0;
        for i in 0..QUERIES {
            let (torrent, at) = announce(&eco, i);
            let cursor = &mut cursors[torrent];
            let before = cursor.active();
            let reply = tracker.query_into(
                base + i,
                TorrentId(torrent as u32),
                cursor,
                at,
                50,
                &mut peers,
            );
            assert!(reply.is_ok(), "every announce is served: {reply:?}");
            churn += cursor.active().abs_diff(before);
        }
        churn
    };
    let first = lap(1_000_000);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let warm = lap(2_000_000);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(warm, first, "the warm lap repeats the first lap's steps");
    assert!(warm > 0, "the laps must move the cursors' live lists");
    let per_announce = calls as f64 / f64::from(QUERIES);
    assert!(
        per_announce <= MAX_ALLOCS_PER_ANNOUNCE,
        "allocation-free announces: the warm lap made {calls} allocator calls \
         over {QUERIES} announces ({per_announce:.3} per announce), bound \
         {MAX_ALLOCS_PER_ANNOUNCE}"
    );
    // The cursors alone, stepped through a lap's instants once more: the
    // tracker's maps are out of it, so any allocation here is a live list
    // that the first lap left short of a later lap's length.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    rewind(&eco, &mut cursors);
    for i in 0..QUERIES {
        let (torrent, at) = announce(&eco, i);
        eco.swarms[torrent].seek(&mut cursors[torrent], at);
    }
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(calls, 0, "stepping warm cursors made {calls} allocator calls");
}
