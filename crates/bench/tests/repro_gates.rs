//! Process-level gates on `repro` and `obs_diff`: what the report bytes,
//! metrics, manifests and traces of real runs must satisfy.
//!
//! The in-process byte-identity contract (serial ≡ parallel, armed ≡
//! disarmed, streamed ≡ materialized) lives in `tests/golden_report.rs`
//! and `tests/determinism_par.rs`. These gates cover what only the
//! binaries do: the `--metrics`, `--trace`, `--manifest`, `--spill-dir`
//! and `--scale` plumbing, the black-box dumps, and `obs_diff`'s exit
//! codes, including the inversions that must fail on a doctored input.

mod common;

use std::path::Path;

use common::{arg, dumps, run, tmp_dir, Run};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const OBS_DIFF: &str = env!("CARGO_BIN_EXE_obs_diff");

/// What `repro --scenario <name> --scale tiny` prints (pb10 clean and
/// hostile); `tests/golden_report.rs` pins the same bytes in process.
const CLEAN: &str = include_str!("../../../tests/fixtures/golden_pb10_tiny_clean.txt");
const HOSTILE: &str = include_str!("../../../tests/fixtures/golden_pb10_tiny_hostile.txt");
const MN08: &str = include_str!("../../../tests/fixtures/golden_mn08_tiny_clean.txt");
const PB09: &str = include_str!("../../../tests/fixtures/golden_pb09_tiny_clean.txt");

const PB10_TINY: [&str; 6] = ["--scenario", "pb10", "--scale", "tiny", "--jobs", "1"];

/// `repro` on the tiny pb10 campaign at one job, plus `extra`.
fn repro_pb10(extra: &[&str], env: &[(&str, &str)]) -> Run {
    let args: Vec<&str> = PB10_TINY
        .iter()
        .copied()
        .chain(extra.iter().copied())
        .collect();
    let out = run(REPRO, &args, env);
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        out.stderr
    );
    out
}

fn obs_diff(args: &[&str]) -> Run {
    run(OBS_DIFF, args, &[])
}

fn assert_exit(out: &Run, code: i32, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: wanted exit {code}\nstdout:\n{}\nstderr:\n{}",
        out.stdout,
        out.stderr
    );
}

/// A Chrome trace at `path` with at least `min` non-metadata events.
fn assert_valid_trace(path: &Path, min: usize) {
    let out = obs_diff(&[
        "--validate-trace",
        arg(path),
        "--min-events",
        &min.to_string(),
    ]);
    assert_exit(
        &out,
        0,
        &format!("--validate-trace {path:?} (>= {min} events)"),
    );
}

/// The manifest text with every value of counter `name` set to 0.
fn zero_counter(manifest: &str, name: &str) -> String {
    let key = format!("\"{name}\": ");
    let mut out = String::new();
    let mut rest = manifest;
    while let Some(at) = rest.find(&key) {
        let start = at + key.len();
        let digits = rest[start..].bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..start]);
        out.push('0');
        rest = &rest[start + digits..];
    }
    out.push_str(rest);
    assert_ne!(
        out, manifest,
        "the injected regression must change the manifest"
    );
    out
}

/// The binary's own scenario fan-out at four jobs prints the committed
/// fixtures, which `tests/golden_report.rs` pins at one job too, and
/// its pool counters reach `--metrics`.
#[test]
fn scenario_all_at_four_jobs_prints_the_fixtures_and_counts_pool_tasks() {
    let dir = tmp_dir("gate-pool");
    let metrics = dir.join("metrics.json");
    let out = run(
        REPRO,
        &[
            "--scenario",
            "all",
            "--scale",
            "tiny",
            "--jobs",
            "4",
            "--metrics",
            arg(&metrics),
        ],
        &[],
    );
    assert!(out.status.success(), "{}", out.stderr);
    assert_eq!(
        out.stdout,
        [MN08, PB09, CLEAN].concat(),
        "--scenario all at --jobs 4"
    );
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    for key in ["par.repro.scenarios.tasks", "par.sim.swarms.tasks"] {
        assert!(
            snapshot.contains(&format!("\"{key}\"")),
            "{key} missing from --metrics"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Arming the flight recorder, sampled or not, moves no report byte and
/// no deterministic metric; `obs_diff` reads the manifests and catches a
/// doctored one, once and under `--watch`; an armed hostile run leaves
/// black-box dumps; and a clean/hostile pair is refused as cross-config.
#[test]
fn traced_runs_keep_report_bytes_and_obs_diff_reads_their_manifests() {
    let dir = tmp_dir("gate-trace");
    let p = |name: &str| dir.join(name);

    let plain = repro_pb10(&["--manifest", arg(&p("plain.json"))], &[]);
    let traced = repro_pb10(
        &[
            "--trace",
            arg(&p("trace.json")),
            "--manifest",
            arg(&p("traced.json")),
        ],
        &[],
    );
    assert_eq!(
        traced.stdout, plain.stdout,
        "arming the recorder moved report bytes"
    );
    assert_valid_trace(&p("trace.json"), 100);
    assert_exit(
        &obs_diff(&[arg(&p("plain.json")), arg(&p("traced.json"))]),
        0,
        "plain vs traced manifests",
    );

    let sampled = repro_pb10(
        &["--trace", arg(&p("sampled.json"))],
        &[("BTPUB_TRACE_SAMPLE", "tracker.announce:8,seed:42")],
    );
    assert_eq!(
        sampled.stdout, plain.stdout,
        "sampling the recorder moved report bytes"
    );
    assert_valid_trace(&p("sampled.json"), 10);

    // The inversion: a manifest with one deterministic counter zeroed.
    let text = std::fs::read_to_string(p("plain.json")).unwrap();
    std::fs::write(p("broken.json"), zero_counter(&text, "crawler.query.total")).unwrap();
    assert_exit(
        &obs_diff(&[arg(&p("plain.json")), arg(&p("broken.json"))]),
        1,
        "obs_diff on an injected regression",
    );
    let watch = |live: &str| {
        obs_diff(&[
            "--watch",
            arg(&p("plain.json")),
            arg(&p(live)),
            "--interval-ms",
            "50",
            "--max-checks",
            "1",
        ])
    };
    assert_exit(&watch("traced.json"), 0, "--watch on a healthy manifest");
    assert_exit(&watch("broken.json"), 1, "--watch on a broken manifest");

    // A hostile armed run with a snapshot prefix trips the black box.
    let bb = p("bb");
    repro_pb10(
        &[
            "--fault-profile",
            "hostile",
            "--trace",
            arg(&p("trace-hostile.json")),
            "--manifest",
            arg(&p("hostile.json")),
        ],
        &[("BTPUB_TRACE_SNAPSHOT", arg(&bb))],
    );
    let found = dumps(&dir);
    assert!(
        !found.is_empty(),
        "hostile armed run produced no black-box dump"
    );
    assert_valid_trace(&found[0], 1);
    // Clean vs hostile describe different runs: refused with exit 2,
    // distinct from a regression's exit 1.
    assert_exit(
        &obs_diff(&[arg(&p("plain.json")), arg(&p("hostile.json"))]),
        2,
        "obs_diff on a cross-config pair",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Breaker-keyed full-rate windows open in armed hostile runs and move
/// no report byte, at one job and at four.
#[test]
fn adaptive_windows_open_and_keep_report_bytes() {
    let dir = tmp_dir("gate-adaptive");
    for jobs in ["1", "4"] {
        let metrics = dir.join(format!("metrics-j{jobs}.json"));
        let bb = dir.join(format!("bb-j{jobs}"));
        let out = run(
            REPRO,
            &[
                "--scenario",
                "pb10",
                "--scale",
                "tiny",
                "--fault-profile",
                "hostile",
                "--jobs",
                jobs,
                "--trace",
                arg(&dir.join(format!("trace-j{jobs}.json"))),
                "--metrics",
                arg(&metrics),
            ],
            &[("BTPUB_TRACE_SNAPSHOT", arg(&bb))],
        );
        assert!(out.status.success(), "{}", out.stderr);
        assert_eq!(
            out.stdout, HOSTILE,
            "adaptive windows moved report bytes (jobs {jobs})"
        );
        if jobs == "1" {
            let snapshot = std::fs::read_to_string(&metrics).unwrap();
            assert!(
                snapshot.contains("\"trace.adaptive.windows\""),
                "the armed hostile run opened no full-rate window"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_dir_keeps_report_bytes_and_an_unwritable_one_warns() {
    let dir = tmp_dir("gate-spill");
    let spilled = repro_pb10(&["--spill-dir", arg(&dir.join("spill"))], &[]);
    assert_eq!(spilled.stdout, CLEAN, "spill-to-disk moved report bytes");

    let not_a_dir = dir.join("not-a-dir");
    std::fs::write(&not_a_dir, b"").unwrap();
    let fallback = repro_pb10(&["--spill-dir", arg(&not_a_dir.join("sub"))], &[]);
    assert!(
        fallback.stderr.contains("falling back"),
        "an unwritable spill dir must warn:\n{}",
        fallback.stderr
    );
    assert_eq!(
        fallback.stdout, CLEAN,
        "the in-memory fallback moved report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scale_zero_warns_once_and_runs_at_1x() {
    let out = run(
        REPRO,
        &["--scenario", "pb10", "--scale", "0", "--jobs", "1"],
        &[],
    );
    assert!(out.status.success(), "{}", out.stderr);
    assert_eq!(
        out.stderr.matches("running at 1x").count(),
        1,
        "--scale 0 must warn exactly once:\n{}",
        out.stderr
    );
    assert_eq!(out.stdout, CLEAN, "--scale 0 did not run at 1x tiny");
}
