//! The crawler's steady-state announce path does not allocate: once the
//! reply buffer, the scratch space and the tracker's maps are warm,
//! `TrackerSim::query_into` serves from what it already holds.
//!
//! This is an integration test of its own so the process's global
//! allocator counts the announce loop and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use btpub::{Scale, Scenario};
use btpub_sim::{Ecosystem, SimDuration, SimTime, TorrentId};
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
    let n = eco.publications.len() as u32;
    // One announce per (client, torrent) pair an hour into each swarm's
    // life, cycling torrents: the crawler's steady state. The first lap
    // warms the buffer, the scratch space and the tracker's maps.
    let mut lap = |base: u32| {
        for i in 0..QUERIES {
            let torrent = TorrentId(i % n);
            let at = eco.publications[(i % n) as usize].at + SimDuration::from_hours(1.0);
            let cursor = &mut cursors[(i % n) as usize];
            let _ = tracker.query_into(base + i, torrent, cursor, at, 50, &mut peers);
        }
    };
    lap(1_000_000);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    lap(2_000_000);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    let per_announce = calls as f64 / f64::from(QUERIES);
    assert!(
        per_announce <= MAX_ALLOCS_PER_ANNOUNCE,
        "allocation-free announces: the warm lap made {calls} allocator calls \
         over {QUERIES} announces ({per_announce:.3} per announce), bound \
         {MAX_ALLOCS_PER_ANNOUNCE}"
    );
}
