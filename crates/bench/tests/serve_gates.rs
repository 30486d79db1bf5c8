//! Process-level gates on the serving tools: `btpub-load` surfaces the
//! `serve.*` metrics, and `btpub-ops` bundles a live hostile
//! `btpub-serve` into an incident archive that triage reads and refuses
//! once corrupted.
//!
//! Nothing here sleeps on another process: the daemon is read until it
//! prints its addresses, then `/healthz` is polled against a deadline.

mod common;

use std::io::{BufRead, BufReader};
use std::net::UdpSocket;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use btpub_faults::NetConfig;
use btpub_tracker::client::HttpSession;
use common::{arg, command, dumps, run, tmp_dir, Run};

const LOAD: &str = env!("CARGO_BIN_EXE_btpub-load");
const OBS_DIFF: &str = env!("CARGO_BIN_EXE_obs_diff");
const SERVE: &str = env!("CARGO_BIN_EXE_btpub-serve");
const OPS: &str = env!("CARGO_BIN_EXE_btpub-ops");

/// How long the breaker may take to open and the daemon's artifacts to
/// appear before the ops gate fails.
const DEADLINE: Duration = Duration::from_secs(20);

fn load(extra: &[&str]) -> Run {
    let mut args = vec![
        "--seed",
        "7",
        "--announces",
        "800",
        "--clients",
        "32",
        "--drivers",
        "4",
    ];
    args.extend_from_slice(extra);
    let out = run(LOAD, &args, &[]);
    assert!(out.status.success(), "btpub-load failed:\n{}", out.stderr);
    out
}

/// Two independent live runs retransmit differently, so their raw
/// `serve.*` tallies drift; their manifests must still digest-compare
/// clean, because `serve.*` is out of the deterministic set.
#[test]
fn load_surfaces_serve_metrics_and_live_manifests_digest_equal() {
    let dir = tmp_dir("gate-load");
    let p = |name: &str| dir.join(name);
    // The two runs are independent daemons on their own ports, so they
    // run side by side.
    let (report, _) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            load(&[
                "--metrics",
                arg(&p("metrics.json")),
                "--manifest",
                arg(&p("manifest-a.json")),
                "--report",
            ])
        });
        let b = s.spawn(|| load(&["--manifest", arg(&p("manifest-b.json"))]));
        (a.join().unwrap(), b.join().unwrap())
    });
    let metrics = std::fs::read_to_string(p("metrics.json")).unwrap();
    for key in [
        "serve.announce.total",
        "serve.shard.0.announces",
        "serve.announce.apply_ns",
    ] {
        assert!(
            metrics.contains(&format!("\"{key}\"")),
            "{key} missing from --metrics"
        );
    }
    assert!(
        report.stdout.contains("serve.announce.total"),
        "serve.* counters missing from the text report:\n{}",
        report.stdout
    );
    let diff = run(
        OBS_DIFF,
        &[arg(&p("manifest-a.json")), arg(&p("manifest-b.json"))],
        &[],
    );
    assert!(
        diff.status.success(),
        "live manifests differ:\n{}",
        diff.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the daemon when the test ends, passing or not.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The value of `key=` in the daemon's address line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
}

/// A hostile daemon with periodic manifests and a black-box prefix; 40
/// garbage datagrams trip its breaker (threshold 32); the incident is
/// bundled live through the daemon's HTTP plane and triaged offline.
/// Then the inversion: one flipped byte and triage refuses the archive,
/// naming the crc.
#[test]
fn ops_bundle_triages_a_tripped_breaker_and_refuses_a_corrupted_archive() {
    let dir = tmp_dir("gate-ops");
    let p = |name: &str| dir.join(name);
    let child = command(
        SERVE,
        &[
            "--seed",
            "99",
            "--shards",
            "2",
            "--torrents",
            "8",
            "--profile",
            "hostile",
            "--duration",
            "30",
            "--manifest",
            arg(&p("serve-manifest.json")),
            "--manifest-every",
            "1",
        ],
        &[
            ("BTPUB_TRACE", "1"),
            ("BTPUB_TRACE_SNAPSHOT", arg(&p("bb"))),
        ],
    )
    .stdout(Stdio::piped())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn btpub-serve");
    let mut daemon = Daemon(child);

    // The first stdout line carries the bound addresses.
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(
        line.starts_with("udp="),
        "btpub-serve never printed its addresses: {line:?}"
    );
    let tcp = field(&line, "tcp=").to_string();
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..40 {
        socket
            .send_to(b"garbage-datagram", field(&line, "udp="))
            .unwrap();
    }

    // Poll until the breaker is open and the manifest and the black-box
    // dump it left are on disk.
    let mut http = HttpSession::connect(field(&line, "announce="), &NetConfig::default()).unwrap();
    let started = Instant::now();
    loop {
        let health = String::from_utf8(http.get("/healthz").unwrap()).unwrap();
        let tripped = !health.contains("breaker.serve state=closed");
        if tripped && p("serve-manifest.json").exists() && !dumps(&dir).is_empty() {
            break;
        }
        assert!(
            started.elapsed() < DEADLINE,
            "no open breaker, manifest and dump after {DEADLINE:?}:\n{health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let bundle = run(
        OPS,
        &[
            "bundle",
            "--out",
            arg(&p("incident.btinc")),
            "--manifest",
            arg(&p("serve-manifest.json")),
            "--daemon",
            &tcp,
            "--blackbox",
            arg(&p("bb")),
            "--note",
            "ops gate",
        ],
        &[],
    );
    drop(daemon);
    assert!(bundle.status.success(), "bundle failed:\n{}", bundle.stderr);
    for needle in ["healthz (", "metrics (", "blackbox/bb-"] {
        assert!(
            bundle.stdout.contains(needle),
            "bundle lacks {needle:?}:\n{}",
            bundle.stdout
        );
    }

    let triage = run(OPS, &["triage", arg(&p("incident.btinc"))], &[]);
    assert!(triage.status.success(), "triage failed:\n{}", triage.stderr);
    for needle in [
        "breaker.serve state=",
        "[TRIPPED]",
        "full-rate sampling windows opened:",
        "dump bb-",
    ] {
        assert!(
            triage.stdout.contains(needle),
            "triage lacks {needle:?}:\n{}",
            triage.stdout
        );
    }

    let corrupt = p("incident-corrupt.btinc");
    let mut bytes = std::fs::read(p("incident.btinc")).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(&corrupt, &bytes).unwrap();
    let refused = run(OPS, &["triage", arg(&corrupt)], &[]);
    assert_eq!(
        refused.status.code(),
        Some(1),
        "triage must refuse a corrupted archive"
    );
    assert!(
        refused.stderr.contains("crc mismatch"),
        "the refusal must name the crc:\n{}",
        refused.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}
