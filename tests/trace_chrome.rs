//! Flight recorder → Chrome trace: the exported JSON is structurally
//! what Perfetto / `chrome://tracing` expects, with real worker lanes.
//!
//! Separate test binary on purpose: the recorder gate is process-global,
//! and these tests arm it without fighting the golden-report process.
//! They take [`RECORDER`] so one test's drain never sees the other's
//! events.

use std::sync::{Mutex, PoisonError};

use btpub_obs::trace;
use btpub_par::{Jobs, Pool};
use serde_json::Value;

/// Held by each test for as long as it arms the recorder.
static RECORDER: Mutex<()> = Mutex::new(());

/// One sequential test: enable → emit across explicit worker lanes →
/// drain → validate the Chrome JSON end to end.
#[test]
fn armed_recorder_exports_perfetto_loadable_chrome_trace() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    trace::set_enabled(true);

    // An explicit 3-worker pool: `Pool::new` takes the job count as
    // given (only the *global* default is capped to detected cores), so
    // even a 1-CPU CI machine materializes multiple worker lanes.
    let pool = Pool::new("tracelanes", Jobs::new(3));
    let results = pool.par_map_indexed(64, |i| {
        // Worker-side activity: a span (→ complete event) plus an
        // instant per item, attributed to the worker's own lane.
        let _span = btpub_obs::span!("sim.engine.tick");
        btpub_obs::trace_instant!("test.item", i as u64);
        i * 2
    });
    assert_eq!(results.len(), 64, "the pool really ran the work");

    // Main-thread activity: an instant and a counter-track sample.
    btpub_obs::trace_instant!("test.main.marker", 7u64);
    btpub_obs::trace_count!("test.main.progress", 64u64);

    trace::set_enabled(false);
    let snap = trace::drain();
    assert!(snap.event_count() > 64, "expected at least one event per item");
    let worker_lanes = snap
        .threads
        .iter()
        .filter(|t| t.name.starts_with("btpub-par/tracelanes/"))
        .filter(|t| !t.events.is_empty())
        .count();
    assert!(
        worker_lanes >= 2,
        "work must land on >= 2 worker lanes, got {worker_lanes}"
    );

    // The export itself: valid JSON with the Chrome trace event schema.
    let chrome = trace::chrome_trace(&snap);
    let text = serde_json::to_string(&chrome).unwrap();
    let parsed: Value = serde_json::from_str(&text).unwrap();
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    let mut phases = std::collections::BTreeSet::new();
    let mut lane_names = 0usize;
    for ev in events {
        let ph = ev["ph"].as_str().expect("every event has a phase");
        phases.insert(ph.to_string());
        match ph {
            "M" => {
                assert_eq!(ev["name"].as_str(), Some("thread_name"));
                if ev["args"]["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with("btpub-par/tracelanes/"))
                {
                    lane_names += 1;
                }
            }
            "X" => {
                assert!(ev["dur"].as_f64().is_some(), "complete events carry dur");
                assert!(ev["ts"].as_f64().is_some());
            }
            "i" => {
                assert_eq!(ev["s"].as_str(), Some("t"), "thread-scoped instant");
            }
            "C" => {
                assert!(
                    ev["args"]["value"].as_f64().is_some(),
                    "counter events carry a value"
                );
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    for required in ["M", "X", "i", "C"] {
        assert!(phases.contains(required), "missing phase {required}: {phases:?}");
    }
    assert!(lane_names >= 2, "worker lane metadata missing: {lane_names}");

    // Drained means drained: a second drain is empty.
    assert_eq!(trace::drain().event_count(), 0);
}

/// A span that stays open while its thread records several staged
/// batches of child events is drawn around them: every child complete
/// event lies inside the parent's `[ts, ts + dur]`, to 1 µs of rounding.
#[test]
fn long_span_encloses_children_recorded_across_stage_flushes() {
    /// Several times the recorder's per-thread staging batch (256).
    const CHILDREN: usize = 1000;
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    // A thread of its own, so the parent opens before anything else in
    // its lane.
    let snap = std::thread::Builder::new()
        .name("trace-nesting".into())
        .spawn(|| {
            trace::set_enabled(true);
            {
                let _parent = btpub_obs::span!("test.nesting.parent");
                for _ in 0..CHILDREN {
                    let _child = btpub_obs::span!("test.nesting.child");
                }
            }
            trace::set_enabled(false);
            trace::drain()
        })
        .expect("spawn the recording thread")
        .join()
        .expect("the recording thread finished");
    let lane = snap
        .threads
        .iter()
        .find(|t| t.name == "trace-nesting")
        .expect("the recording thread has a lane");

    let chrome = trace::chrome_trace(&snap);
    let span = |ev: &Value| {
        let ts = ev["ts"].as_f64().expect("ts");
        (ts, ts + ev["dur"].as_f64().expect("dur"))
    };
    let mut parent = None;
    let mut children = Vec::new();
    for ev in chrome["traceEvents"].as_array().expect("traceEvents array") {
        if ev["tid"].as_u64() != Some(u64::from(lane.tid)) || ev["ph"].as_str() != Some("X") {
            continue;
        }
        match ev["name"].as_str() {
            Some("test.nesting.parent") => parent = Some(span(ev)),
            Some("test.nesting.child") => children.push(span(ev)),
            _ => {}
        }
    }
    let (start, end) = parent.expect("the parent span was recorded");
    assert_eq!(children.len(), CHILDREN, "every child span was recorded");
    for (i, &(child_start, child_end)) in children.iter().enumerate() {
        assert!(
            child_start >= start - 1.0 && child_end <= end + 1.0,
            "child {i} at [{child_start}, {child_end}] µs lies outside its parent \
             [{start}, {end}] µs"
        );
    }
}
