//! The streaming pipeline holds crawl + analysis memory flat as the
//! campaign grows: the pb10 tiny world at 100× the torrents over 100×
//! the days must peak under a fixed byte ceiling, grow far less than
//! 100× from the 1× peak, and at 1× print the materialized report's
//! bytes.
//!
//! Peaks are live heap bytes over the post-generation baseline, so the
//! simulated world (whose size scales with the campaign by construction)
//! stays out of the number. This is an integration test of its own so
//! the process's global allocator measures one pipeline at a time. A
//! debug build of the 100× crawl takes minutes, so the test is ignored
//! by default; `scripts/check.sh` runs it in release with `--ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use btpub::{Scale, Scenario, StreamOptions, StreamStudy, Study};
use btpub_par::Jobs;
use btpub_sim::Ecosystem;

/// `System`, plus live-byte accounting: `CUR` tracks the live heap
/// bytes, `PEAK` their high-water mark (`fetch_max`, so the producer and
/// consumer threads are both counted).
struct PeakAlloc;

static CUR: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn count_alloc(size: usize) {
    let cur = CUR.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

fn count_dealloc(size: usize) {
    CUR.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every call goes to `System` with the caller's own arguments;
// the accounting touches only atomics and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count_dealloc(layout.size());
            count_alloc(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Campaign-length multiplier of the large shape (torrents and days;
/// announcement density and the publisher population stay at tiny).
const MULTIPLIER: u64 = 100;

/// Ceiling on the streaming 100× peak, bytes. Fixed, so a regression
/// cannot ratchet itself in; about twice the ~12 MB the pipeline needs,
/// while a materializing pipeline needs ~66× that at this shape.
const STREAM_PEAK_CEILING_BYTES: u64 = 24 * 1024 * 1024;

/// The streaming peak at 100× the campaign length stays under this many
/// multiples of the 1× peak. A bounded pipeline sits near 8; a
/// materializing one near 100.
const MAX_PEAK_GROWTH_RATIO: f64 = 16.0;

/// Resets the high-water mark to the live bytes and returns them.
fn reset_peak() -> u64 {
    let cur = CUR.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Runs `pipeline` over a freshly generated world and returns its report
/// and its peak live bytes over the post-generation baseline.
fn measure(scenario: &Scenario, pipeline: fn(&Scenario, Ecosystem) -> String) -> (String, u64) {
    let eco = Ecosystem::generate(scenario.eco.clone());
    let baseline = reset_peak();
    let report = pipeline(scenario, eco);
    (report, PEAK.load(Ordering::Relaxed) - baseline)
}

fn streamed(scenario: &Scenario, eco: Ecosystem) -> String {
    StreamStudy::run_on(scenario, eco, &StreamOptions::default()).full_report()
}

fn materialized(scenario: &Scenario, eco: Ecosystem) -> String {
    Study::run_on(scenario, eco)
        .analyze()
        .experiments()
        .full_report()
}

#[test]
#[ignore = "release-only: scripts/check.sh"]
fn streaming_peak_is_bounded_at_100x_campaign_length() {
    btpub_par::set_global(Jobs::new(1));
    let tiny = Scenario::pb10(Scale::tiny());
    let large = Scenario::pb10(Scale::tiny()).times(MULTIPLIER);

    // Warm-up: allocator arenas and metric handles.
    let _ = measure(&tiny, materialized);
    let (mat_report, mat_1x) = measure(&tiny, materialized);
    let (stream_report, stream_1x) = measure(&tiny, streamed);
    let (_, stream_100x) = measure(&large, streamed);
    let growth = stream_100x as f64 / stream_1x.max(1) as f64;
    eprintln!(
        "1x: materialized peak {mat_1x} B, streamed peak {stream_1x} B; \
         {MULTIPLIER}x: streamed peak {stream_100x} B, growth {growth:.2}x"
    );

    // The meter counts: a pipeline that ran allocated something, and
    // the materialized one holds more than the streamed one.
    assert!(
        stream_1x > 0,
        "peak meter: the streamed 1x run measured 0 bytes"
    );
    assert!(
        mat_1x > stream_1x,
        "peak meter: the materialized 1x peak {mat_1x} B is not above the \
         streamed 1x peak {stream_1x} B"
    );
    assert!(
        stream_report == mat_report,
        "streamed = materialized: the 1x streamed report differs from the \
         materialized one"
    );
    assert!(
        stream_100x <= STREAM_PEAK_CEILING_BYTES,
        "streaming memory ceiling: the {MULTIPLIER}x peak {stream_100x} B is \
         above the {STREAM_PEAK_CEILING_BYTES} B ceiling"
    );
    assert!(
        growth <= MAX_PEAK_GROWTH_RATIO,
        "streaming memory growth: the peak grew {growth:.2}x from 1x to \
         {MULTIPLIER}x campaign length, bound {MAX_PEAK_GROWTH_RATIO}x"
    );
}
