//! Process-level gates on the `btpub-monitor` daemon: periodic manifests
//! are deterministic and read correctly as in flight or overshooting,
//! and a crash or a SIGTERM followed by a restart ends in the summary an
//! uninterrupted run prints.
//!
//! Manifests are compared through `btpub_obs::manifest`, the functions
//! `obs_diff` calls. Nothing here sleeps on another process: the SIGTERM
//! waits for the daemon's own log line.

#[path = "../../bench/tests/common/mod.rs"]
mod common;

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::Stdio;

use btpub_obs::manifest::{diff, incompatible, watch_verdict};
use common::{arg, command, run, tmp_dir, Run};
use serde_json::Value;

const MONITOR: &str = env!("CARGO_BIN_EXE_btpub-monitor");

fn monitor(args: &[&str], env: &[(&str, &str)]) -> Run {
    let out = run(MONITOR, args, env);
    assert!(
        out.status.success(),
        "btpub-monitor {args:?} failed:\n{}",
        out.stderr
    );
    out
}

fn manifest(path: &Path) -> Value {
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Two identical runs emitting a manifest every 2 simulated days agree
/// on every deterministic metric; a 3-day run reads as in flight against
/// the 6-day baseline, and the 6-day run overshoots the 3-day baseline.
#[test]
fn periodic_manifests_are_deterministic_and_read_partial_runs() {
    let dir = tmp_dir("gate-monitor-manifests");
    let p = |name: &str| dir.join(name);
    std::thread::scope(|s| {
        for (name, days) in [("a.json", "6"), ("b.json", "6"), ("partial.json", "3")] {
            let path = p(name);
            s.spawn(move || {
                let mut args = vec!["--scale", "tiny", "--days", days, "--manifest", arg(&path)];
                if days == "6" {
                    args.extend_from_slice(&["--manifest-every", "2"]);
                }
                monitor(&args, &[]);
            });
        }
    });
    let (a, b, partial) = (
        manifest(&p("a.json")),
        manifest(&p("b.json")),
        manifest(&p("partial.json")),
    );

    assert_eq!(incompatible(&a, &b), Vec::<String>::new());
    assert_eq!(diff(&a, &b, 0.0), Vec::<String>::new(), "twin runs differ");
    let twin = watch_verdict(&a, &b, 0.0);
    assert!(
        twin.overshoots.is_empty() && twin.behind == 0,
        "twin run not at baseline"
    );

    assert_eq!(incompatible(&a, &partial), Vec::<String>::new());
    let in_flight = watch_verdict(&a, &partial, 0.0);
    assert!(
        in_flight.overshoots.is_empty(),
        "{:?}",
        in_flight.overshoots
    );
    assert!(
        in_flight.behind > 0,
        "a 3-day run must lag the 6-day baseline"
    );

    let overshoot = watch_verdict(&partial, &a, 0.0);
    assert!(
        !overshoot.overshoots.is_empty(),
        "the 6-day run must read as beyond the 3-day baseline"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_and_resume_prints_the_uninterrupted_summary() {
    let dir = tmp_dir("gate-monitor-crash");
    let ckpt = dir.join("ckpt");
    let args = [
        "--scale",
        "tiny",
        "--checkpoint-dir",
        arg(&ckpt),
        "--checkpoint-every",
        "50",
    ];
    let baseline = monitor(&["--scale", "tiny"], &[]);
    let crashed = run(MONITOR, &args, &[("BTPUB_CRASH", "stream.fold:100")]);
    assert!(
        !crashed.status.success(),
        "the armed crash run exited cleanly"
    );
    assert!(
        crashed
            .stderr
            .contains("btpub-crash: injected abort at stream.fold:100"),
        "the crash run died for the wrong reason:\n{}",
        crashed.stderr
    );
    let resumed = monitor(&args, &[]);
    assert_eq!(resumed.stdout, baseline.stdout, "resumed summary differs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
fn sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `kill(2)` on a child this test spawned and has not reaped.
    assert_eq!(unsafe { kill(pid as i32, SIGTERM) }, 0, "kill(2) failed");
}

/// SIGTERM mid-campaign: the daemon flushes a checkpoint and exits 0,
/// and a restart finishes with the uninterrupted run's summary. The
/// signal goes out once the daemon logs `generating ecosystem`, which it
/// does after installing its handlers and seconds before it finishes.
#[cfg(unix)]
#[test]
fn sigterm_flushes_a_checkpoint_and_a_restart_resumes() {
    let dir = tmp_dir("gate-monitor-sigterm");
    let ckpt = dir.join("ckpt");
    let args = [
        "--scale",
        "repro",
        "--days",
        "10",
        "--checkpoint-dir",
        arg(&ckpt),
        "--checkpoint-every",
        "100",
    ];
    let baseline = std::thread::scope(|s| {
        let baseline = s.spawn(|| monitor(&["--scale", "repro", "--days", "10"], &[]));

        let mut child = command(MONITOR, &args, &[("BTPUB_LOG", "info")])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn btpub-monitor");
        let mut stderr = String::new();
        let mut signalled = false;
        for line in BufReader::new(child.stderr.take().unwrap()).lines() {
            let line = line.unwrap();
            if !signalled && line.contains("generating ecosystem") {
                sigterm(child.id());
                signalled = true;
            }
            stderr.push_str(&line);
            stderr.push('\n');
        }
        let status = child.wait().unwrap();
        assert!(
            signalled,
            "the daemon never logged `generating ecosystem`:\n{stderr}"
        );
        assert_eq!(
            status.code(),
            Some(0),
            "a SIGTERM'd daemon must exit 0:\n{stderr}"
        );
        assert!(
            stderr.contains("interrupted by signal"),
            "the run finished before the signal landed:\n{stderr}"
        );
        baseline.join().unwrap()
    });
    let resumed = monitor(&args, &[]);
    assert_eq!(
        resumed.stdout, baseline.stdout,
        "post-SIGTERM summary differs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
