//! Compares two run manifests (or raw metric snapshots) and flags metric
//! regressions; also validates Chrome trace files and can *watch* a live
//! manifest path.
//!
//! ```text
//! obs_diff OLD.json NEW.json [--tolerance-pct P]
//! obs_diff --validate-trace TRACE.json [--min-events N]
//! obs_diff --watch BASELINE.json LIVE.json [--tolerance-pct P]
//!          [--interval-ms MS] [--max-checks N] [--expect-partial]
//! ```
//!
//! Exit codes: `0` — manifests match (or the trace is valid); `1` —
//! differences found (or the trace is invalid, or a watch saw a
//! regression); `2` — usage or I/O error, *or two manifests from
//! incompatible configurations* (different bin / scale / scenarios /
//! fault profile / effective jobs — diffing those would report config
//! skew as a bogus metric regression, so the comparison is refused).
//! `crates/bench/tests/repro_gates.rs` gates all three modes.
//!
//! Watch mode is the live-ops side of the manifest protocol: a daemon
//! emitting periodic manifests (`btpub-monitor --manifest-every N`) is
//! tailed here and compared against a known-good baseline every time
//! the file changes. Strict watch (the default) treats *any*
//! deterministic difference as a regression and exits 1 the moment one
//! appears; `--expect-partial` understands a still-running daemon —
//! metrics lagging the baseline are progress-in-flight, metrics
//! *above* baseline (or absent from it) are regressions, and reaching
//! the full baseline exits 0.
//!
//! Inputs are `repro --manifest` / `btpub-monitor --manifest` output,
//! but bare `--metrics` snapshots work too — comparison falls back to
//! the snapshot itself when there is no `"snapshot"` key. Timing
//! histograms, scheduling counters and `trace.*` recorder accounting
//! are excluded on both sides (see `btpub_obs::manifest`), so runs at
//! different job counts or with tracing armed compare equal unless a
//! *deterministic* metric really moved.

use serde_json::Value;

fn usage() -> ! {
    eprintln!(
        "usage: obs_diff OLD.json NEW.json [--tolerance-pct P]\n       \
         obs_diff --validate-trace TRACE.json [--min-events N]\n       \
         obs_diff --watch BASELINE.json LIVE.json [--tolerance-pct P] \
         [--interval-ms MS] [--max-checks N] [--expect-partial]"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_diff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obs_diff: {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

/// Refuses to compare manifests whose configuration meta disagrees —
/// exit 2, distinct from a metric regression's exit 1.
fn guard_compatible(old: &Value, new: &Value, old_path: &str, new_path: &str) {
    let clashes = btpub_obs::manifest::incompatible(old, new);
    if clashes.is_empty() {
        return;
    }
    eprintln!(
        "obs_diff: refusing to compare {old_path} and {new_path}: \
         they describe different run configurations:"
    );
    for c in &clashes {
        eprintln!("  {c}");
    }
    std::process::exit(2);
}

/// Validates a Chrome trace file: JSON parses, `traceEvents` is an array,
/// and it holds at least `min_events` non-metadata events. Replaces a
/// `jq`-based check so the gate has no dependency beyond this workspace.
fn validate_trace(path: &str, min_events: usize) -> ! {
    let root = read_json(path);
    let Some(events) = root.get("traceEvents").and_then(Value::as_array) else {
        eprintln!("obs_diff: {path}: no traceEvents array");
        std::process::exit(1);
    };
    let real = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
        .count();
    let lanes = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .count();
    if real < min_events {
        eprintln!(
            "obs_diff: {path}: {real} events (< {min_events} required), {lanes} lanes"
        );
        std::process::exit(1);
    }
    println!("trace ok: {path} ({real} events across {lanes} lanes)");
    std::process::exit(0);
}

/// File identity for change detection: (mtime, length). Cheap enough to
/// poll; the manifest writer renames into place, so a changed identity
/// means a complete new manifest.
fn file_sig(path: &str) -> Option<(std::time::SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

struct WatchOpts {
    tolerance_pct: f64,
    interval_ms: u64,
    max_checks: u64,
    expect_partial: bool,
}

/// Flight-recorder loss accounting in a live snapshot: total
/// `trace.dropped.*` / `trace.capped.*` events plus the per-lane lines.
/// The trace counters are digest-excluded, so a lossy trace would
/// otherwise sail through a watch silently — but a verdict over a lossy
/// run means any `/trace/snapshot` evidence is incomplete, which the
/// operator should know *before* trusting it.
fn trace_loss(live: &Value) -> (u64, Vec<String>) {
    let root = live.get("snapshot").unwrap_or(live);
    let mut total = 0u64;
    let mut lines = Vec::new();
    if let Some(counters) = root.get("counters").and_then(Value::as_object) {
        for (name, v) in counters.iter() {
            let lost = v.as_u64().unwrap_or(0);
            if lost == 0 {
                continue;
            }
            if let Some(lane) = name.strip_prefix("trace.dropped.") {
                total += lost;
                lines.push(format!("lane {lane}: {lost} events dropped (ring overflow)"));
            } else if let Some(lane) = name.strip_prefix("trace.capped.") {
                total += lost;
                lines.push(format!("lane {lane}: {lost} events capped (rate cap)"));
            }
        }
    }
    lines.sort();
    (total, lines)
}

/// Tails `live_path`, re-comparing against the baseline every time the
/// file changes. See the module docs for strict vs `--expect-partial`
/// semantics. With `--max-checks 0` a healthy watch runs forever (a
/// live health probe that only exits on regression).
fn watch(baseline_path: &str, live_path: &str, opts: &WatchOpts) -> ! {
    let baseline = read_json(baseline_path);
    let mut checks = 0u64;
    let mut last_sig = None;
    let mut last_loss = 0u64;
    loop {
        let sig = file_sig(live_path);
        if sig.is_some() && sig != last_sig {
            last_sig = sig;
            // The writer renames complete files into place, but the
            // path may briefly not parse while being replaced on
            // filesystems without atomic rename — tolerate and retry.
            let Ok(text) = std::fs::read_to_string(live_path) else {
                std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
                continue;
            };
            let Ok(live) = serde_json::from_str::<Value>(&text) else {
                std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
                continue;
            };
            guard_compatible(&baseline, &live, baseline_path, live_path);
            checks += 1;
            // Warn (once per growth) when the watched run's flight
            // recorder lost events — the verdict below still stands,
            // but its trace evidence is lossy.
            let (loss, lanes) = trace_loss(&live);
            if loss > last_loss {
                eprintln!(
                    "obs_diff: warning: watched run has a lossy trace \
                     ({loss} events dropped/capped):"
                );
                for l in &lanes {
                    eprintln!("  {l}");
                }
                last_loss = loss;
            }
            if opts.expect_partial {
                let v = btpub_obs::manifest::watch_verdict(&baseline, &live, opts.tolerance_pct);
                if !v.overshoots.is_empty() {
                    eprintln!(
                        "obs_diff: watch check {checks}: {} metric(s) beyond baseline:",
                        v.overshoots.len()
                    );
                    for o in &v.overshoots {
                        eprintln!("  {o}");
                    }
                    std::process::exit(1);
                }
                if v.behind == 0 {
                    println!(
                        "watch: {live_path} reached baseline {baseline_path} \
                         ({}/{} metrics, check {checks})",
                        v.matched, v.total
                    );
                    std::process::exit(0);
                }
                println!(
                    "watch: in flight — {}/{} metrics at baseline, {} behind (check {checks})",
                    v.matched, v.total, v.behind
                );
            } else {
                let diffs = btpub_obs::manifest::diff(&baseline, &live, opts.tolerance_pct);
                if !diffs.is_empty() {
                    eprintln!(
                        "obs_diff: watch check {checks}: {} regression(s) vs {baseline_path}:",
                        diffs.len()
                    );
                    for d in &diffs {
                        eprintln!("  {d}");
                    }
                    std::process::exit(1);
                }
                println!("watch: {live_path} matches baseline (check {checks})");
            }
            if opts.max_checks > 0 && checks >= opts.max_checks {
                if opts.expect_partial {
                    // Bounded partial watch that never converged: the
                    // daemon stalled short of baseline — a failure, not
                    // a pass.
                    eprintln!(
                        "obs_diff: watch gave up after {checks} check(s) \
                         without reaching baseline"
                    );
                    std::process::exit(1);
                }
                std::process::exit(0);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance_pct = 0.0f64;
    let mut validate: Option<String> = None;
    let mut min_events = 1usize;
    let mut watch_mode = false;
    let mut interval_ms = 500u64;
    let mut max_checks = 0u64;
    let mut expect_partial = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance-pct" => {
                i += 1;
                tolerance_pct = match args.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    Some(p) if p >= 0.0 => p,
                    _ => usage(),
                };
            }
            "--validate-trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => validate = Some(p.clone()),
                    None => usage(),
                }
            }
            "--min-events" => {
                i += 1;
                min_events = match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => n,
                    None => usage(),
                };
            }
            "--watch" => watch_mode = true,
            "--interval-ms" => {
                i += 1;
                interval_ms = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                };
            }
            "--max-checks" => {
                i += 1;
                max_checks = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => n,
                    None => usage(),
                };
            }
            "--expect-partial" => expect_partial = true,
            other if other.starts_with("--") => usage(),
            other => paths.push(other.to_string()),
        }
        i += 1;
    }

    if let Some(path) = validate {
        if !paths.is_empty() || watch_mode {
            usage();
        }
        validate_trace(&path, min_events);
    }
    if paths.len() != 2 {
        usage();
    }
    if watch_mode {
        let opts = WatchOpts {
            tolerance_pct,
            interval_ms,
            max_checks,
            expect_partial,
        };
        watch(&paths[0], &paths[1], &opts);
    }
    let old = read_json(&paths[0]);
    let new = read_json(&paths[1]);
    guard_compatible(&old, &new, &paths[0], &paths[1]);
    let diffs = btpub_obs::manifest::diff(&old, &new, tolerance_pct);
    if diffs.is_empty() {
        println!(
            "manifests match: {} == {} (tolerance {tolerance_pct}%)",
            paths[0], paths[1]
        );
        std::process::exit(0);
    }
    eprintln!(
        "obs_diff: {} deterministic metric difference(s) between {} and {}:",
        diffs.len(),
        paths[0],
        paths[1]
    );
    for d in &diffs {
        eprintln!("  {d}");
    }
    std::process::exit(1);
}
