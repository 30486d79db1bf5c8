//! The headline `btpub-par` invariant: serial and parallel runs produce
//! **byte-identical** reports, across all three scenario presets.
//!
//! Every stochastic component derives its RNG per item
//! (`rngs::derive(seed, stream, idx)`), so a task's output depends only
//! on its index, and ordered `par_map_indexed` assembly does the rest.
//! This test is the in-tree enforcement; `tests/golden_report.rs` pins
//! the bytes at both job counts, and `crates/bench/tests/repro_gates.rs`
//! holds the `repro` binary's `--jobs 4` stdout to the same fixtures.

use btpub::{Scale, Scenario, Study};
use btpub_par::Jobs;

fn tiny_scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        ("mn08", Scenario::mn08(Scale::tiny())),
        ("pb09", Scenario::pb09(Scale::tiny())),
        ("pb10", Scenario::pb10(Scale::tiny())),
    ]
}

/// The full `repro --scenario all`-equivalent report, with the scenario
/// fan-out itself going through the pool (exactly like the binary).
fn full_report_all(jobs: usize) -> String {
    btpub_par::set_global(Jobs::new(jobs));
    let scenarios = tiny_scenarios();
    btpub_par::par_map_indexed("repro.scenarios", scenarios.len(), |i| {
        let (name, scenario) = &scenarios[i];
        let study = Study::run(scenario);
        let analyses = study.analyze();
        format!(
            "################ scenario {name} ################\n{}",
            analyses.experiments().full_report()
        )
    })
    .concat()
}

/// Points at the first diverging line so a failure is debuggable without
/// dumping two multi-kilobyte reports.
fn assert_identical(a: &str, b: &str, what: &str) {
    if a == b {
        return;
    }
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "{what}: first divergence at line {}", i + 1);
    }
    panic!(
        "{what}: reports have identical common prefix but different lengths ({} vs {} bytes)",
        a.len(),
        b.len()
    );
}

// One test function on purpose: the jobs policy is process-global, so
// the serial and parallel passes must run sequentially, not as two
// concurrently-scheduled #[test]s fighting over it.
#[test]
fn serial_and_parallel_full_reports_are_byte_identical() {
    let serial = full_report_all(1);
    assert!(
        serial.contains("scenario mn08")
            && serial.contains("scenario pb09")
            && serial.contains("scenario pb10"),
        "report covers all three presets"
    );
    let parallel = full_report_all(4);
    assert_identical(&serial, &parallel, "jobs=1 vs jobs=4");
    // A second parallel pass also matches (no hidden run-to-run state).
    let again = full_report_all(4);
    assert_identical(&parallel, &again, "jobs=4 repeated");
}
