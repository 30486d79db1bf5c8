//! Chaos-mode end-to-end checks: the measurement campaign run against a
//! deterministically broken world (`crates/faults`).
//!
//! Two claims are enforced. First, a *flaky* pb10 campaign — tracker
//! downtime windows, dropped announces, corrupted replies, feed outages,
//! failing probes — still recovers the paper's qualitative conclusions:
//! resilience is part of the apparatus, not an accident of clean inputs.
//! Second, the same seed + profile produces byte-identical datasets at
//! any job count: fault draws are pure functions of (seed, stream, index)
//! with no RNG state to race on.

use btpub::crawler::IpFailure;
use btpub::{Scale, Scenario, Study};
use btpub_faults::FaultProfile;
use btpub_par::Jobs;

/// A pb10 campaign with the given fault profile injected.
fn faulty_pb10(scale: Scale, profile: FaultProfile) -> Scenario {
    let mut scenario = Scenario::pb10(scale);
    scenario.crawler.fault_profile = profile;
    scenario
}

#[test]
fn flaky_pb10_recovers_the_papers_conclusions() {
    let study = Study::run(&faulty_pb10(Scale::small(), FaultProfile::flaky()));
    let ds = &study.dataset;
    assert!(ds.torrent_count() > 0, "campaign completed");
    // Identification still succeeds at the clean-run rate (~30 % at this
    // scale — the paper itself resolved roughly a third of pb10's IPs);
    // the faults that do cost identifications are recorded as explicit
    // causes, never silently.
    let identified = ds.ip_identified_count();
    assert!(
        identified as f64 > ds.torrent_count() as f64 * 0.25,
        "flaky faults must not destroy identification ({identified}/{})",
        ds.torrent_count()
    );
    let fault_caused = ds
        .torrents
        .iter()
        .filter(|t| {
            matches!(
                t.ip_failure,
                Some(
                    IpFailure::TrackerDown
                        | IpFailure::MalformedReply
                        | IpFailure::GaveUpRetrying
                )
            )
        })
        .count();
    assert!(
        ds.torrents
            .iter()
            .all(|t| t.publisher_ip.is_some() || t.ip_failure.is_some() || !t.sightings.is_empty()),
        "every record carries an outcome"
    );
    // The paper's headline conclusions survive the weather.
    let analyses = study.analyze();
    let report = analyses.experiments().report_data();
    let s33 = &report.s33;
    let majors_content = s33.fake_shares.0 + s33.top_shares.0;
    assert!(
        majors_content > 0.55,
        "majors content share {majors_content:.2} (fault-caused losses: {fault_caused})"
    );
    assert!(
        (0.20..=0.45).contains(&s33.fake_shares.0),
        "fake content share {:.2}",
        s33.fake_shares.0
    );
    assert!(
        s33.hosting.0 > 0.25,
        "top publishers still sit at hosting providers ({:.2})",
        s33.hosting.0
    );
    let f1 = &report.f1;
    assert!(
        f1.top_k_shares.1 > f1.top_k_shares.0,
        "downloads remain more concentrated than content"
    );
}

// One test function on purpose: the jobs policy is process-global, so
// the serial and parallel passes must run sequentially (same reasoning
// as tests/determinism_par.rs).
#[test]
fn hostile_faults_are_deterministic_across_job_counts() {
    let run = |jobs: usize, profile: FaultProfile| {
        btpub_par::set_global(Jobs::new(jobs));
        Study::run(&faulty_pb10(Scale::tiny(), profile)).dataset
    };

    // Byte-identical datasets at any job count, run after run.
    let serial = run(1, FaultProfile::hostile()).to_json();
    let parallel = run(4, FaultProfile::hostile()).to_json();
    assert_eq!(serial, parallel, "jobs=1 vs jobs=4 under hostile faults");
    let again = run(4, FaultProfile::hostile()).to_json();
    assert_eq!(parallel, again, "jobs=4 repeated");
    // ...and a different profile genuinely changes the weather.
    let clean = run(1, FaultProfile::clean()).to_json();
    assert_ne!(serial, clean, "hostile faults leave a trace");

    // A downtime-heavy custom profile mid-campaign, under a parallel
    // pipeline: the crawler records the outage per torrent instead of
    // panicking, and keeps monitoring once the tracker returns.
    let downtime = FaultProfile {
        name: "downtime-heavy".into(),
        tracker_downtime_ppm: 300_000,
        ..FaultProfile::clean()
    };
    let ds = run(4, downtime);
    let down: Vec<_> = ds
        .torrents
        .iter()
        .filter(|t| t.ip_failure == Some(IpFailure::TrackerDown))
        .collect();
    assert!(!down.is_empty(), "outage windows recorded as TrackerDown");
    assert!(
        down.iter().any(|t| !t.sightings.is_empty()),
        "monitoring resumed after the outage for some affected torrents"
    );
}
