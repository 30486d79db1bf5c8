//! Kill-and-resume sweep: aborts `repro` at seeded crash points
//! mid-campaign, resumes from the on-disk checkpoint, and asserts the
//! final report is byte-identical to an uninterrupted run.
//!
//! This is the process-level proof of the crash-safety invariant: death
//! at *any* of the planted sites — mid-fold, mid-checkpoint-write (all
//! four stages of the atomic rename dance), mid-spill-flush — costs at
//! most one checkpoint interval of replay and never changes a report
//! byte. The hit index for each site comes from
//! [`btpub_faults::hit_for`], i.e. the same `mix(seed, site, index)`
//! family as every other seeded draw, so the sweep is deterministic and
//! a failure names a reproducible `BTPUB_CRASH=<site>:<hit>` spec.

mod common;

use std::path::Path;
use std::sync::OnceLock;

use btpub::{Scale, Scenario};

/// Crash site + the window its hit index is drawn from. The window must
/// stay under the site's occurrence count in a tiny pb10 campaign (384
/// folds, 6 checkpoint saves at `--checkpoint-every 64`, ≥2 spill runs
/// at `--spill-chunk 1024`), or the abort would never fire and the
/// "crash run must die" assertion below catches it.
const CHECKPOINT_SITES: [(&str, u64); 5] = [
    ("stream.checkpoint", 5),
    ("checkpoint.write.begin", 5),
    ("checkpoint.mid_write", 5),
    ("checkpoint.pre_rename", 5),
    ("checkpoint.write.end", 5),
];
const STREAM_SITES: [(&str, u64); 2] = [("stream.fold", 300), ("sink.emit", 300)];
const SPILL_SITES: [(&str, u64); 2] = [("spill.flush.frame", 2), ("spill.flush.finish", 2)];

fn campaign_seed() -> u64 {
    Scenario::pb10(Scale::tiny()).eco.seed
}

/// Runs `repro --scale tiny --scenario pb10 --stream <extra>`, optionally
/// with `BTPUB_CRASH=<spec>` armed. Returns (success, stdout, stderr).
fn run_repro(extra: &[&str], crash: Option<&str>) -> (bool, String, String) {
    let mut args = vec!["--scale", "tiny", "--scenario", "pb10", "--stream"];
    args.extend_from_slice(extra);
    let env: Vec<(&str, &str)> = crash
        .map(|spec| ("BTPUB_CRASH", spec))
        .into_iter()
        .collect();
    let run = common::run(env!("CARGO_BIN_EXE_repro"), &args, &env);
    (run.status.success(), run.stdout, run.stderr)
}

/// The uninterrupted streaming report — the byte-for-byte ground truth
/// every resumed run must reproduce. Computed once per test binary.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (ok, stdout, stderr) = run_repro(&[], None);
        assert!(ok, "uninterrupted baseline run failed:\n{stderr}");
        stdout
    })
}

/// Crash at `<site>:<hit>`, then resume; the resumed stdout must equal
/// the uninterrupted baseline byte for byte.
fn crash_then_resume(site: &str, hit: u64, dir: &Path, extra_args: &[&str]) {
    let ckpt = dir.join("ckpt");
    let mut args: Vec<&str> = vec!["--checkpoint-dir"];
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    args.push(&ckpt_s);
    args.extend_from_slice(&["--checkpoint-every", "64"]);
    args.extend_from_slice(extra_args);

    let spec = format!("{site}:{hit}");
    let (ok, _, stderr) = run_repro(&args, Some(&spec));
    assert!(!ok, "crash run at {spec} must die, but exited cleanly");
    assert!(
        stderr.contains(&format!("btpub-crash: injected abort at {spec}")),
        "crash run at {spec} died for the wrong reason:\n{stderr}"
    );

    let (ok, stdout, stderr) = run_repro(&args, None);
    assert!(ok, "resume after {spec} failed:\n{stderr}");
    assert_eq!(
        stdout,
        baseline(),
        "resume after {spec} changed report bytes"
    );
}

#[test]
fn crash_and_resume_at_checkpoint_sites() {
    let base = common::tmp_dir("ckpt-sites");
    let seed = campaign_seed();
    for (site, window) in CHECKPOINT_SITES {
        let hit = btpub_faults::hit_for(seed, site, window);
        crash_then_resume(site, hit, &base.join(site.replace('.', "-")), &[]);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn crash_and_resume_at_stream_sites() {
    let base = common::tmp_dir("stream-sites");
    let seed = campaign_seed();
    for (site, window) in STREAM_SITES {
        let hit = btpub_faults::hit_for(seed, site, window);
        crash_then_resume(site, hit, &base.join(site.replace('.', "-")), &[]);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn crash_and_resume_at_spill_sites() {
    let base = common::tmp_dir("spill-sites");
    let seed = campaign_seed();
    for (site, window) in SPILL_SITES {
        let dir = base.join(site.replace('.', "-"));
        let spill = dir.join("spill");
        let spill_s = spill.to_str().unwrap().to_string();
        let hit = btpub_faults::hit_for(seed, site, window);
        // A tiny chunk cap (clamped to its 1024 floor) forces run
        // flushing at tiny scale, so the spill crash sites actually
        // fire; the report still matches the in-memory baseline.
        crash_then_resume(
            site,
            hit,
            &dir,
            &["--spill-dir", &spill_s, "--spill-chunk", "1024"],
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Two kills in one campaign: crash, resume into a second crash later
/// in the fold sequence, resume again, and still match the baseline.
#[test]
fn chained_crashes_still_converge() {
    let base = common::tmp_dir("chained");
    let ckpt = base.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let args = ["--checkpoint-dir", &ckpt_s, "--checkpoint-every", "64"];

    let (ok, _, stderr) = run_repro(&args, Some("stream.fold:100"));
    assert!(!ok, "first crash must die:\n{stderr}");
    // The resumed process re-counts site arrivals from zero, so a
    // second armed run crashes again further into the campaign.
    let (ok, _, stderr) = run_repro(&args, Some("stream.fold:150"));
    assert!(!ok, "second crash must die:\n{stderr}");
    let (ok, stdout, stderr) = run_repro(&args, None);
    assert!(ok, "final resume failed:\n{stderr}");
    assert_eq!(stdout, baseline(), "chained resume changed report bytes");
    let _ = std::fs::remove_dir_all(&base);
}

/// The invariant holds under crawl parallelism: kill at jobs 4, resume
/// at jobs 4, compare against the (jobs-independent) baseline.
#[test]
fn crash_and_resume_at_jobs_4() {
    let base = common::tmp_dir("jobs4");
    let ckpt = base.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let args = [
        "--checkpoint-dir",
        &ckpt_s,
        "--checkpoint-every",
        "64",
        "--jobs",
        "4",
    ];

    let seed = campaign_seed();
    let hit = btpub_faults::hit_for(seed, "stream.checkpoint", 5);
    let spec = format!("stream.checkpoint:{hit}");
    let (ok, _, stderr) = run_repro(&args, Some(&spec));
    assert!(!ok, "crash run at {spec} (jobs 4) must die:\n{stderr}");
    let (ok, stdout, stderr) = run_repro(&args, None);
    assert!(ok, "resume at jobs 4 failed:\n{stderr}");
    assert_eq!(stdout, baseline(), "resume at jobs 4 changed report bytes");
    let _ = std::fs::remove_dir_all(&base);
}

/// A corrupted checkpoint must be *refused with a named reason*, never
/// silently reinterpreted: flip one payload byte and resume.
#[test]
fn corrupted_checkpoint_is_refused() {
    let base = common::tmp_dir("corrupt");
    let ckpt = base.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let args = ["--checkpoint-dir", &ckpt_s, "--checkpoint-every", "64"];

    let (ok, _, stderr) = run_repro(&args, Some("stream.fold:100"));
    assert!(!ok, "crash run must die:\n{stderr}");
    let file = ckpt.join("pb10").join("checkpoint.ckpt");
    let mut bytes = std::fs::read(&file).expect("checkpoint exists after crash");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();

    let (ok, _, stderr) = run_repro(&args, None);
    assert!(!ok, "resume from a corrupted checkpoint must fail");
    assert!(
        stderr.contains("crc mismatch") || stderr.contains("corrupt"),
        "refusal must name the corruption:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// An intact checkpoint from another campaign must be refused by name:
/// resume a clean pb10 checkpoint under the hostile fault profile, and
/// the fingerprint check must say which field disagrees.
#[test]
fn mismatched_checkpoint_is_refused_naming_the_field() {
    let base = common::tmp_dir("mismatch");
    let ckpt = base.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let args = [
        "--checkpoint-dir",
        &ckpt_s,
        "--checkpoint-every",
        "64",
        "--jobs",
        "1",
    ];

    let (ok, _, stderr) = run_repro(&args, Some("stream.fold:128"));
    assert!(!ok, "crash run must die:\n{stderr}");
    let mut hostile = args.to_vec();
    hostile.extend_from_slice(&["--fault-profile", "hostile"]);
    let (ok, _, stderr) = run_repro(&hostile, None);
    assert!(!ok, "resume under another fault profile must fail");
    assert!(
        stderr.contains("fault_profile"),
        "refusal must name the field that disagrees:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
