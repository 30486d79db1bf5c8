//! `btpub-ops`: one-command incident archives for the serving plane.
//!
//! ```text
//! btpub-ops bundle --out PATH [--manifest PATH] [--daemon HOST:PORT]
//!                  [--blackbox PREFIX] [--note TEXT]
//! btpub-ops triage PATH [--baseline MANIFEST] [--p99-tolerance PCT]
//! ```
//!
//! `bundle` collects whatever evidence exists about a (possibly still
//! limping) daemon — the latest periodic manifest, a live
//! `/metrics`/`/healthz`/`/trace/snapshot` scrape, the black-box ring
//! dumps the breaker trips left behind — into **one** versioned,
//! CRC-trailered archive (the PR 8 checkpoint framing: magic, version,
//! length-prefixed named sections, whole-file CRC-32 trailer, atomic
//! write). `triage` verifies the CRC before parsing a single field,
//! then renders the operator-facing incident summary: breaker history,
//! full-rate adaptive-tracing windows, top dropped/capped trace sites,
//! the black-box dumps by name, and p99 latency regressions against a
//! baseline manifest.
//!
//! Exit codes: `0` rendered/written, `1` refused (corrupt archive, io
//! failure, nothing to bundle), `2` usage.

use std::path::{Path, PathBuf};

use btpub_bench::incident::{self, Section, ARCHIVE_VERSION};
use btpub_faults::NetConfig;
use btpub_tracker::client::HttpSession;
use serde_json::Value;

fn usage() -> ! {
    eprintln!(
        "usage: btpub-ops bundle --out PATH [--manifest PATH] [--daemon HOST:PORT] \
         [--blackbox PREFIX] [--note TEXT]\n\
         \x20      btpub-ops triage PATH [--baseline MANIFEST] [--p99-tolerance PCT]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("bundle") => bundle(&args[1..]),
        Some("triage") => triage(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// bundle
// ---------------------------------------------------------------------

fn bundle(args: &[String]) -> i32 {
    let mut out: Option<PathBuf> = None;
    let mut manifest: Option<PathBuf> = None;
    let mut daemon: Option<String> = None;
    let mut blackbox: Option<String> = None;
    let mut note: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--out" => out = Some(value(i).into()),
            "--manifest" => manifest = Some(value(i).into()),
            "--daemon" => daemon = Some(value(i)),
            "--blackbox" => blackbox = Some(value(i)),
            "--note" => note = Some(value(i)),
            _ => usage(),
        }
        i += 2;
    }
    let Some(out) = out else { usage() };
    if manifest.is_none() && daemon.is_none() && blackbox.is_none() {
        eprintln!("btpub-ops: nothing to bundle (give --manifest, --daemon, or --blackbox)");
        return 1;
    }

    // Section order is the render order: build meta first, then the
    // run-level evidence, then the per-dump black-box files.
    let mut sections: Vec<Section> = Vec::new();
    let meta = format!(
        "{{\"tool\":\"btpub-ops\",\"version\":\"{}\",\"archive_version\":{},\"note\":{}}}\n",
        env!("CARGO_PKG_VERSION"),
        ARCHIVE_VERSION,
        match &note {
            Some(n) => serde_json::Value::from(n.as_str()).to_string(),
            None => "null".into(),
        }
    );
    sections.push(("meta".into(), meta.into_bytes()));

    if let Some(path) = &manifest {
        match std::fs::read(path) {
            Ok(bytes) => sections.push(("manifest".into(), bytes)),
            Err(e) => {
                eprintln!("btpub-ops: cannot read manifest {}: {e}", path.display());
                return 1;
            }
        }
    }

    if let Some(addr) = &daemon {
        let net = NetConfig::loopback_test();
        let url = format!("http://{addr}/announce");
        let mut session = match HttpSession::connect(&url, &net) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("btpub-ops: cannot reach daemon at {addr}: {e}");
                return 1;
            }
        };
        for (name, target) in [
            ("healthz", "/healthz"),
            ("metrics", "/metrics?format=json"),
            ("trace", "/trace/snapshot"),
        ] {
            match session.get(target) {
                Ok(bytes) => sections.push((name.into(), bytes)),
                Err(e) => {
                    eprintln!("btpub-ops: daemon GET {target} failed: {e}");
                    return 1;
                }
            }
        }
    }

    if let Some(prefix) = &blackbox {
        match collect_blackbox(prefix) {
            Ok(dumps) => {
                for (name, bytes) in dumps {
                    sections.push((format!("blackbox/{name}"), bytes));
                }
            }
            Err(e) => {
                eprintln!("btpub-ops: cannot scan black-box prefix {prefix}: {e}");
                return 1;
            }
        }
    }

    let file = incident::encode(&sections);
    let crc = u32::from_le_bytes(file[file.len() - 4..].try_into().expect("4-byte trailer"));

    // Atomic: assemble next to the target, rename over it, so a watcher
    // (or a second bundle) never reads a torn archive.
    let tmp = out.with_extension("btinc.tmp");
    let write = std::fs::write(&tmp, &file).and_then(|()| std::fs::rename(&tmp, &out));
    if let Err(e) = write {
        eprintln!("btpub-ops: cannot write archive {}: {e}", out.display());
        return 1;
    }
    println!(
        "bundled {} sections into {} ({} bytes, crc {crc:#010x})",
        sections.len(),
        out.display(),
        file.len()
    );
    for (name, bytes) in &sections {
        println!("  {name} ({} bytes)", bytes.len());
    }
    0
}

/// Black-box dumps matching `<prefix>-*.json` (the naming
/// `trace::trip` uses), sorted by file name so the sequence numbers
/// keep trip order.
fn collect_blackbox(prefix: &str) -> std::io::Result<Vec<Section>> {
    let p = Path::new(prefix);
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let stem = p
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&format!("{stem}-")) && name.ends_with(".json") {
            out.push((name, std::fs::read(entry.path())?));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

// ---------------------------------------------------------------------
// triage
// ---------------------------------------------------------------------

fn triage(args: &[String]) -> i32 {
    let mut path: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut p99_tolerance = 25.0f64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--baseline" => {
                baseline = Some(value(i).into());
                i += 2;
            }
            "--p99-tolerance" => {
                p99_tolerance = value(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            a if !a.starts_with("--") && path.is_none() => {
                path = Some(a.into());
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let sections = match read_archive(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("btpub-ops: {e}");
            return 1;
        }
    };
    render_triage(&path, &sections, baseline.as_deref(), p99_tolerance)
}

/// Reads and fully validates an archive (see [`incident::decode`]).
fn read_archive(path: &Path) -> Result<Vec<Section>, String> {
    let data = std::fs::read(path)
        .map_err(|e| format!("cannot read incident archive {}: {e}", path.display()))?;
    incident::decode(&data).map_err(|e| format!("incident archive {} refused: {e}", path.display()))
}

fn section<'a>(sections: &'a [Section], name: &str) -> Option<&'a [u8]> {
    sections
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, b)| b.as_slice())
}

fn parse_json(bytes: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// The metrics snapshot to triage from: the live `/metrics` scrape when
/// the bundle has one, else the manifest's embedded snapshot.
fn snapshot_of(sections: &[Section]) -> Option<Value> {
    if let Some(v) = section(sections, "metrics").and_then(parse_json) {
        return Some(v);
    }
    let manifest = section(sections, "manifest").and_then(parse_json)?;
    Some(manifest["snapshot"].clone())
}

/// Counters under `prefix`, as `(suffix, value)`, descending by value.
fn counters_under(snapshot: &Value, prefix: &str) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = snapshot["counters"]
        .as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| {
                    let suffix = k.strip_prefix(prefix)?;
                    Some((suffix.to_string(), v.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

fn render_triage(
    path: &Path,
    sections: &[Section],
    baseline: Option<&Path>,
    p99_tolerance: f64,
) -> i32 {
    println!("incident archive v{ARCHIVE_VERSION}: {}", path.display());
    let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
    println!("sections: {} ({})", sections.len(), names.join(", "));

    if let Some(meta) = section(sections, "meta").and_then(parse_json) {
        println!("\n== build ==");
        println!(
            "tool={} version={}",
            meta["tool"].as_str().unwrap_or("?"),
            meta["version"].as_str().unwrap_or("?")
        );
        if let Some(note) = meta["note"].as_str() {
            println!("note: {note}");
        }
    }

    if let Some(health) = section(sections, "healthz") {
        println!("\n== health ==");
        for line in String::from_utf8_lossy(health).lines() {
            println!("  {line}");
        }
    }

    let snapshot = snapshot_of(sections);
    if let Some(snap) = &snapshot {
        println!("\n== breakers ==");
        let mut opened = counters_under(snap, "retry.breaker.");
        opened.retain(|(name, _)| name.ends_with(".opened"));
        if opened.is_empty() {
            println!("  no breaker ever opened");
        }
        for (name, count) in &opened {
            let tracker = name.trim_end_matches(".opened");
            println!("  breaker {tracker}: opened {count} time(s)  [TRIPPED]");
        }

        println!("\n== adaptive tracing ==");
        let windows = counters_under(snap, "trace.adaptive.windows");
        let total = windows
            .iter()
            .find(|(n, _)| n.is_empty())
            .map_or(0, |(_, v)| *v);
        if total == 0 {
            println!("  no full-rate sampling window opened");
        } else {
            println!("  full-rate sampling windows opened: {total}");
            for (name, count) in &windows {
                if let Some(reason) = name.strip_prefix('.') {
                    println!("    window by {reason}: {count} opened");
                }
            }
            for (reason, count) in counters_under(snap, "trace.adaptive.closed.") {
                println!("    window by {reason}: {count} closed");
            }
        }

        println!("\n== trace loss ==");
        let dropped = counters_under(snap, "trace.dropped.");
        let capped = counters_under(snap, "trace.capped.");
        if dropped.is_empty() && capped.is_empty() {
            println!("  lossless: no trace events dropped or capped");
        }
        for (lane, count) in dropped.iter().take(5) {
            println!("  dropped {count} events on lane {lane}");
        }
        for (lane, count) in capped.iter().take(5) {
            println!("  capped {count} events on lane {lane}");
        }
    } else {
        println!("\n(no metrics snapshot in this archive — breaker/adaptive/loss sections skipped)");
    }

    println!("\n== black box ==");
    let dumps: Vec<&str> = sections
        .iter()
        .filter_map(|(n, _)| n.strip_prefix("blackbox/"))
        .collect();
    if dumps.is_empty() {
        println!("  no black-box dumps bundled");
    }
    for name in &dumps {
        let size = section(sections, &format!("blackbox/{name}")).map_or(0, <[u8]>::len);
        println!("  dump {name} ({size} bytes)");
    }

    if let Some(base_path) = baseline {
        println!("\n== p99 vs baseline ==");
        let base = std::fs::read_to_string(base_path)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok());
        match (base, &snapshot) {
            (Some(base), Some(snap)) => {
                let regressions = p99_regressions(&base, snap, p99_tolerance);
                if regressions.is_empty() {
                    println!("  no p99 regressions beyond {p99_tolerance}%");
                }
                for line in regressions {
                    println!("  {line}");
                }
            }
            (None, _) => println!("  cannot read baseline manifest {}", base_path.display()),
            (_, None) => println!("  archive has no metrics snapshot to compare"),
        }
    }
    0
}

/// Histogram p99s that regressed beyond `tolerance_pct` against the
/// baseline manifest's snapshot. Latency can legitimately wobble, so
/// this is advisory triage, not a digest gate.
fn p99_regressions(baseline: &Value, snapshot: &Value, tolerance_pct: f64) -> Vec<String> {
    fn root(v: &Value) -> &Value {
        if v["snapshot"].as_object().is_some() {
            &v["snapshot"]
        } else {
            v
        }
    }
    let base = root(baseline);
    let snap = root(snapshot);
    let mut out = Vec::new();
    let (Some(base_h), Some(snap_h)) =
        (base["histograms"].as_object(), snap["histograms"].as_object())
    else {
        return out;
    };
    let mut names: Vec<&String> = base_h.keys().collect();
    names.sort();
    for name in names {
        let old = base_h.get(name).and_then(|h| h["p99"].as_f64());
        let new = snap_h.get(name).and_then(|h| h["p99"].as_f64());
        let (Some(old), Some(new)) = (old, new) else {
            continue;
        };
        if old > 0.0 && new > old * (1.0 + tolerance_pct / 100.0) {
            out.push(format!(
                "histogram {name}: p99 {old:.0} -> {new:.0} ({:+.1}%)",
                (new - old) / old * 100.0
            ));
        }
    }
    out
}
