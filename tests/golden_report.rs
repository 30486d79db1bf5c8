//! Golden-report fixtures: the tiny-scale reports are pinned byte for
//! byte — pb10 clean and hostile, mn08 (no usernames: the IP-keyed
//! branch of every analysis) and pb09 (single query per torrent) clean —
//! serial and parallel, materialized and streamed.
//!
//! The hotpath work (FxHash maps, interned symbols, scratch buffers,
//! coarsened pool tasks) is only admissible because it cannot change a
//! single report byte. The determinism tests compare `--jobs 1` against
//! `--jobs N` *within* one build, which would miss a change that shifts
//! both the same way; these fixtures compare against bytes committed to
//! the repository, so any semantic drift — faster or not — fails loudly
//! with a line-level diff.
//!
//! Regenerating (only after an *intentional* report change):
//! `./target/release/repro --scenario <name> --scale tiny [--fault-profile
//! hostile] 2>/dev/null` over each fixture file.

use btpub::{Scale, Scenario, StreamOptions, StreamStudy, Study};
use btpub_faults::FaultProfile;
use btpub_par::Jobs;
use std::fmt::Write as _;

/// Renders exactly what `repro --scenario <name> --scale tiny` prints to
/// stdout (see `run_scenario` in crates/bench/src/bin/repro.rs), through
/// the materialized `Study` or the streaming pipeline (`repro --stream`).
fn render_tiny(name: &str, profile: FaultProfile, jobs: usize, streamed: bool) -> String {
    btpub_par::set_global(Jobs::new(jobs));
    let mut scenario = match name {
        "mn08" => Scenario::mn08(Scale::tiny()),
        "pb09" => Scenario::pb09(Scale::tiny()),
        _ => Scenario::pb10(Scale::tiny()),
    };
    scenario.crawler.fault_profile = profile;
    let report = if streamed {
        StreamStudy::run(&scenario, &StreamOptions::default()).full_report()
    } else {
        Study::run(&scenario).analyze().experiments().full_report()
    };
    let mut out = String::new();
    writeln!(out, "################ scenario {name} ################").unwrap();
    writeln!(out, "# fault-profile: {}", scenario.crawler.fault_profile.name).unwrap();
    write!(out, "{report}").unwrap();
    out
}

fn render_pb10_tiny(profile: FaultProfile, jobs: usize) -> String {
    render_tiny("pb10", profile, jobs, false)
}

/// Points at the first diverging line so a failure is debuggable.
fn assert_matches_fixture(produced: &str, fixture: &str, what: &str) {
    if produced == fixture {
        return;
    }
    for (i, (got, want)) in produced.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{what}: first divergence from committed fixture at line {}",
            i + 1
        );
    }
    panic!(
        "{what}: identical common prefix but different lengths ({} vs {} fixture bytes)",
        produced.len(),
        fixture.len()
    );
}

// One test function on purpose: the jobs policy and the flight-recorder
// gate are process-global, so the configurations must run sequentially
// rather than as concurrently-scheduled #[test]s fighting over
// `set_global` / `trace::set_enabled`.
#[test]
fn pb10_reports_match_committed_fixtures_at_all_jobs_and_profiles() {
    let clean = include_str!("fixtures/golden_pb10_tiny_clean.txt");
    let hostile = include_str!("fixtures/golden_pb10_tiny_hostile.txt");
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::clean(), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}"),
        );
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::hostile(), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}"),
        );
    }
    // The streaming pipeline against the *same* fixtures: the bounded
    // channel, out-of-order arrival and the digest reorder buffer must
    // hand the fold the records a materialized dataset holds, serial and
    // parallel.
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_tiny("pb10", FaultProfile::clean(), jobs, true),
            clean,
            &format!("clean profile, --jobs {jobs}, streamed"),
        );
        assert_matches_fixture(
            &render_tiny("pb10", FaultProfile::hostile(), jobs, true),
            hostile,
            &format!("hostile profile, --jobs {jobs}, streamed"),
        );
    }
    // mn08 and pb09, both paths, both job counts.
    let others = [
        ("mn08", include_str!("fixtures/golden_mn08_tiny_clean.txt")),
        ("pb09", include_str!("fixtures/golden_pb09_tiny_clean.txt")),
    ];
    for (name, fixture) in others {
        for jobs in [1, 4] {
            for streamed in [false, true] {
                assert_matches_fixture(
                    &render_tiny(name, FaultProfile::clean(), jobs, streamed),
                    fixture,
                    &format!("{name} clean profile, --jobs {jobs}, streamed={streamed}"),
                );
            }
        }
    }
    // Same four configurations with the flight recorder armed, against
    // the *same* fixtures: recording must not move a single report byte.
    // (The recorder writes only to per-thread rings drained here, never
    // to the registry or stdout.)
    btpub_obs::trace::set_enabled(true);
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::clean(), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}, recorder armed"),
        );
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::hostile(), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}, recorder armed"),
        );
    }
    let snap = btpub_obs::trace::drain();
    assert!(
        snap.event_count() > 0,
        "armed runs must actually have recorded events"
    );
    // And again with deterministic sampling installed: dropping events
    // at the recorder is just as forbidden from moving report bytes as
    // recording them.
    btpub_obs::trace::set_sample_spec("tracker.announce:3,sim.engine.tick:5,seed:7")
        .expect("sample spec parses");
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::clean(), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}, recorder armed + sampled"),
        );
        assert_matches_fixture(
            &render_pb10_tiny(FaultProfile::hostile(), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}, recorder armed + sampled"),
        );
    }
    btpub_obs::trace::set_sample_spec("").expect("clearing sample spec");
    btpub_obs::trace::set_enabled(false);
    let snap = btpub_obs::trace::drain();
    assert!(
        snap.event_count() > 0,
        "sampled armed runs must still record the kept events"
    );
}
