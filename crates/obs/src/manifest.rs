//! Run manifests and snapshot diffing.
//!
//! A manifest pins *what a run was* — scale, seeds, fault profile,
//! jobs — next to a digest and full snapshot of its metrics, so two
//! runs can be compared mechanically (the `obs_diff` bin, whose exit
//! codes `crates/bench/tests/repro_gates.rs` holds).
//!
//! ## What is compared
//!
//! Only the **deterministic** metric set: counters and gauges, minus
//! the timing- and scheduling-dependent ones (`span.*` self-time
//! counters, `trace.*` flight-recorder accounting, `par.*.queue_depth`,
//! and the `serve.*` live-socket tallies, which retransmits inflate).
//! Histograms are excluded wholesale — every histogram in this
//! workspace measures wall-clock latency, which legitimately varies
//! between byte-identical runs. The digest is an FNV-1a 64 over the
//! canonical (name-sorted, compact) JSON of that set, so two runs of
//! the same build on the same inputs produce the same digest even
//! though their wall clocks differ.

use std::path::Path;

use serde_json::{Map, Value};

use crate::Registry;

/// FNV-1a 64-bit over `bytes` (stable, dependency-free — this is a
/// change detector, not a cryptographic commitment). Not `trace`'s
/// `fnv1a`: that one multiplies by another constant, and every seeded
/// draw depends on it, so the two cannot be merged without moving
/// either every world or every digest a manifest has recorded.
fn digest64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether a counter participates in digests and diffs.
fn deterministic_counter(name: &str) -> bool {
    // span.*.self_ns is accumulated wall time; trace.* is flight-recorder
    // drop/trip accounting that only exists when (and how hard) the
    // recorder is armed — a traced run must digest identically to its
    // traceless twin.
    // serve.* counters tally live socket traffic: retransmits and
    // reconnects legitimately inflate them between byte-identical swarm
    // snapshots, so the serve plane proves itself via snapshot parity,
    // not digests.
    // retry.breaker.serve.* is the serve plane's garble breaker: it
    // opens on wall-clock bursts, unlike the sim-time breakers, so it
    // shares the serve.* exemption.
    !name.starts_with("span.")
        && !name.starts_with("trace.")
        && !name.starts_with("serve.")
        && !name.starts_with("retry.breaker.serve.")
}

/// Whether a gauge participates in digests and diffs.
fn deterministic_gauge(name: &str) -> bool {
    !name.ends_with(".queue_depth")
}

/// Extracts the canonical (deterministic) counter+gauge subset from a
/// full snapshot (either a bare [`Registry::snapshot`] value or a
/// manifest wrapping one under `"snapshot"`).
fn canonical_metrics(snapshot: &Value) -> Value {
    let root = snapshot.get("snapshot").unwrap_or(snapshot);
    let mut counters = Map::new();
    if let Some(m) = root.get("counters").and_then(Value::as_object) {
        for (k, v) in m.iter() {
            if deterministic_counter(k) {
                counters.insert(k.clone(), v.clone());
            }
        }
    }
    let mut gauges = Map::new();
    if let Some(m) = root.get("gauges").and_then(Value::as_object) {
        for (k, v) in m.iter() {
            if deterministic_gauge(k) {
                gauges.insert(k.clone(), v.clone());
            }
        }
    }
    let mut out = Map::new();
    out.insert("counters", Value::Object(counters));
    out.insert("gauges", Value::Object(gauges));
    Value::Object(out)
}

/// Hex digest of a snapshot's canonical metric set.
pub fn snapshot_digest(snapshot: &Value) -> String {
    let canon = serde_json::to_string(&canonical_metrics(snapshot)).unwrap_or_default();
    format!("{:016x}", digest64(canon.as_bytes()))
}

/// Builds a run manifest: the caller's metadata fields (scale, seeds,
/// fault profile, jobs, …) in the given order, then the canonical
/// metric digest, then the full metric snapshot.
pub fn build(registry: &Registry, meta: &[(&str, Value)]) -> Value {
    let snapshot = registry.snapshot();
    let mut root = Map::new();
    for (k, v) in meta {
        root.insert(*k, v.clone());
    }
    root.insert("metrics_digest", Value::from(snapshot_digest(&snapshot)));
    root.insert("snapshot", snapshot);
    Value::Object(root)
}

/// Writes `manifest` to `path` as pretty JSON with a trailing newline.
///
/// The write is atomic (temp file + rename in the target directory):
/// periodic emission from a running daemon must never let a concurrent
/// `obs_diff --watch` read a half-written manifest.
pub fn write(path: &Path, manifest: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string_pretty(manifest)
        .map_err(|e| std::io::Error::other(format!("manifest serialization failed: {e}")))?;
    text.push('\n');
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Meta keys that define a run's configuration: two manifests that
/// disagree on any of these measure *different runs*, and diffing
/// their metrics would report configuration skew as a bogus
/// regression.
const CONFIG_META_KEYS: &[&str] = &[
    "bin",
    "scale",
    "scenarios",
    "fault_profile",
    "jobs_effective",
];

/// Configuration mismatches between two manifests — one line per meta
/// key present in both but different. Empty means the manifests are
/// comparable; callers (`obs_diff`) should refuse to diff otherwise.
/// Keys missing from either side are skipped, so older manifests
/// without the full meta block stay comparable.
pub fn incompatible(old: &Value, new: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for key in CONFIG_META_KEYS {
        if let (Some(a), Some(b)) = (old.get(key), new.get(key)) {
            if !a.is_null() && !b.is_null() && a != b {
                out.push(format!("meta {key}: {a} vs {b}"));
            }
        }
    }
    out
}

fn number_map<'v>(root: &'v Value, section: &str) -> Vec<(&'v String, f64)> {
    let root = root.get("snapshot").unwrap_or(root);
    root.get(section)
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k, n)))
                .collect()
        })
        .unwrap_or_default()
}

fn diff_section(
    old: &Value,
    new: &Value,
    section: &str,
    keep: fn(&str) -> bool,
    tolerance_pct: f64,
    out: &mut Vec<String>,
) {
    let old_m = number_map(old, section);
    let new_m = number_map(new, section);
    let label = section.trim_end_matches('s'); // "counters" -> "counter"
    for (name, old_v) in &old_m {
        if !keep(name) {
            continue;
        }
        match new_m.iter().find(|(k, _)| k == name) {
            None => out.push(format!(
                "{label} {name}: missing from new snapshot (was {old_v})"
            )),
            Some((_, new_v)) => {
                let allowed = old_v.abs() * tolerance_pct / 100.0;
                if (new_v - old_v).abs() > allowed {
                    let pct = if *old_v != 0.0 {
                        format!(" ({:+.1}%)", (new_v - old_v) / old_v * 100.0)
                    } else {
                        String::new()
                    };
                    out.push(format!("{label} {name}: {old_v} -> {new_v}{pct}"));
                }
            }
        }
    }
    for (name, new_v) in &new_m {
        if keep(name) && !old_m.iter().any(|(k, _)| k == name) {
            out.push(format!("{label} {name}: new in new snapshot ({new_v})"));
        }
    }
}

/// Compares the deterministic metric sets of two manifests (or bare
/// snapshots). Returns one human-readable line per difference beyond
/// `tolerance_pct` — empty means the runs agree. Missing, added, and
/// out-of-tolerance counters and gauges are all differences: for a
/// deterministic pipeline any unexplained metric drift is a
/// regression signal.
pub fn diff(old: &Value, new: &Value, tolerance_pct: f64) -> Vec<String> {
    let mut out = Vec::new();
    diff_section(
        old,
        new,
        "counters",
        deterministic_counter,
        tolerance_pct,
        &mut out,
    );
    diff_section(
        old,
        new,
        "gauges",
        deterministic_gauge,
        tolerance_pct,
        &mut out,
    );
    out
}

/// Where a live (possibly still-running) snapshot stands relative to a
/// finished baseline — the `obs_diff --watch --expect-partial` verdict.
#[derive(Debug)]
pub struct WatchVerdict {
    /// Baseline metrics the live snapshot already matches.
    pub matched: usize,
    /// Baseline metrics in the deterministic set.
    pub total: usize,
    /// Baseline metrics still below baseline or not yet present —
    /// expected mid-run, a regression only if it never converges.
    pub behind: usize,
    /// Hard failures: metrics *above* baseline beyond tolerance, or
    /// metrics the baseline never recorded. A mid-run snapshot of a
    /// deterministic pipeline can lag its baseline but never overshoot
    /// it.
    pub overshoots: Vec<String>,
}

fn verdict_section(
    old: &Value,
    new: &Value,
    section: &str,
    keep: fn(&str) -> bool,
    tolerance_pct: f64,
    v: &mut WatchVerdict,
) {
    let old_m = number_map(old, section);
    let new_m = number_map(new, section);
    let label = section.trim_end_matches('s');
    for (name, old_v) in &old_m {
        if !keep(name) {
            continue;
        }
        v.total += 1;
        let allowed = old_v.abs() * tolerance_pct / 100.0;
        match new_m.iter().find(|(k, _)| k == name) {
            None => v.behind += 1,
            Some((_, new_v)) if (new_v - old_v).abs() <= allowed => v.matched += 1,
            Some((_, new_v)) if *new_v < *old_v => v.behind += 1,
            Some((_, new_v)) => v.overshoots.push(format!(
                "{label} {name}: {old_v} -> {new_v} (above baseline)"
            )),
        }
    }
    for (name, new_v) in &new_m {
        if keep(name) && !old_m.iter().any(|(k, _)| k == name) {
            v.overshoots
                .push(format!("{label} {name}: not in baseline ({new_v})"));
        }
    }
}

/// Compares a live snapshot against a finished baseline with mid-run
/// semantics: being behind is progress-in-flight, being *ahead* (or
/// growing metrics the baseline never had) is a regression. Used by
/// `obs_diff --watch --expect-partial` to health-check a running
/// daemon against a known-good run.
pub fn watch_verdict(old: &Value, new: &Value, tolerance_pct: f64) -> WatchVerdict {
    let mut v = WatchVerdict {
        matched: 0,
        total: 0,
        behind: 0,
        overshoots: Vec::new(),
    };
    verdict_section(
        old,
        new,
        "counters",
        deterministic_counter,
        tolerance_pct,
        &mut v,
    );
    verdict_section(
        old,
        new,
        "gauges",
        deterministic_gauge,
        tolerance_pct,
        &mut v,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> Registry {
        let r = Registry::new();
        for (n, v) in counters {
            r.counter(n).add(*v);
        }
        for (n, v) in gauges {
            r.gauge(n).set(*v);
        }
        r
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = build(
            &registry_with(&[("crawler.polls", 7)], &[("store.items", 3)]),
            &[],
        );
        let b = build(
            &registry_with(&[("crawler.polls", 7)], &[("store.items", 3)]),
            &[],
        );
        let c = build(
            &registry_with(&[("crawler.polls", 8)], &[("store.items", 3)]),
            &[],
        );
        assert_eq!(a["metrics_digest"], b["metrics_digest"]);
        assert_ne!(a["metrics_digest"], c["metrics_digest"]);
        // Pinned, so manifests written by older builds stay comparable.
        assert_eq!(a["metrics_digest"].as_str(), Some("6a1920a289e0d84d"));
    }

    #[test]
    fn timing_and_scheduling_metrics_do_not_perturb_digest_or_diff() {
        let quiet = registry_with(&[("crawler.polls", 7)], &[]);
        let noisy = registry_with(
            &[
                ("crawler.polls", 7),
                ("span.sim.tick.self_ns", 123_456_789),
                ("trace.dropped.btpub-par/sim.swarms/1", 42),
                ("serve.announce.total", 10_128),
                ("serve.announce.duplicate", 128),
            ],
            &[("par.sim.swarms.queue_depth", 3)],
        );
        // The noisy registry records wall time, flight-recorder drops,
        // scheduling luck (queue depth) and live-socket traffic
        // (retransmit-inflated); the histogram section is excluded
        // wholesale.
        noisy.histogram("span.sim.tick.ns").record(999);
        let a = build(&quiet, &[]);
        let b = build(&noisy, &[]);
        assert_eq!(a["metrics_digest"], b["metrics_digest"]);
        assert!(diff(&a, &b, 0.0).is_empty(), "{:?}", diff(&a, &b, 0.0));
    }

    #[test]
    fn diff_flags_changed_missing_and_added_metrics() {
        let old = build(
            &registry_with(&[("a.total", 100), ("b.gone", 5)], &[("g.level", 2)]),
            &[],
        );
        let new = build(
            &registry_with(&[("a.total", 90), ("c.new", 1)], &[("g.level", 2)]),
            &[],
        );
        let lines = diff(&old, &new, 0.0);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.contains("a.total") && l.contains("-10.0%")));
        assert!(lines
            .iter()
            .any(|l| l.contains("b.gone") && l.contains("missing")));
        assert!(lines
            .iter()
            .any(|l| l.contains("c.new") && l.contains("new in")));
    }

    #[test]
    fn tolerance_swallows_small_drift() {
        let old = build(&registry_with(&[("a.total", 1000)], &[]), &[]);
        let new = build(&registry_with(&[("a.total", 1005)], &[]), &[]);
        assert!(!diff(&old, &new, 0.0).is_empty());
        assert!(diff(&old, &new, 1.0).is_empty());
    }

    #[test]
    fn meta_fields_lead_the_manifest() {
        let m = build(
            &Registry::new(),
            &[("bin", Value::from("repro")), ("jobs", Value::from(4u64))],
        );
        let keys: Vec<&String> = m.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            ["bin", "jobs", "metrics_digest", "snapshot"],
            "meta first, then digest, then snapshot"
        );
        assert_eq!(m["bin"].as_str(), Some("repro"));
    }

    #[test]
    fn trace_accounting_does_not_perturb_digest_or_diff() {
        let plain = registry_with(&[("crawler.polls", 7)], &[]);
        let traced = registry_with(
            &[
                ("crawler.polls", 7),
                ("trace.dropped.main", 512),
                ("trace.capped.main", 64),
                ("trace.blackbox.trips", 2),
            ],
            &[],
        );
        let a = build(&plain, &[]);
        let b = build(&traced, &[]);
        assert_eq!(a["metrics_digest"], b["metrics_digest"]);
        assert!(diff(&a, &b, 0.0).is_empty(), "{:?}", diff(&a, &b, 0.0));
    }

    #[test]
    fn incompatible_meta_blocks_cross_config_comparison() {
        let r = registry_with(&[("x", 1)], &[]);
        let a = build(
            &r,
            &[
                ("bin", Value::from("repro")),
                ("fault_profile", Value::from("clean")),
                ("jobs_effective", Value::from(1u64)),
            ],
        );
        let b = build(
            &r,
            &[
                ("bin", Value::from("repro")),
                ("fault_profile", Value::from("hostile")),
                ("jobs_effective", Value::from(4u64)),
            ],
        );
        let lines = incompatible(&a, &b);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("fault_profile")));
        assert!(lines.iter().any(|l| l.contains("jobs_effective")));
        assert!(incompatible(&a, &a).is_empty());
        // A manifest missing the key entirely (older format) stays
        // comparable.
        let legacy = build(&r, &[("bin", Value::from("repro"))]);
        assert!(incompatible(&a, &legacy).is_empty());
    }

    #[test]
    fn watch_verdict_tells_behind_from_overshoot() {
        let baseline = build(
            &registry_with(&[("a.total", 100), ("b.total", 50)], &[("g", 5)]),
            &[],
        );
        // Mid-run: a.total still climbing, b.total done, gauge matches.
        let midrun = build(
            &registry_with(&[("a.total", 40), ("b.total", 50)], &[("g", 5)]),
            &[],
        );
        let v = watch_verdict(&baseline, &midrun, 0.0);
        assert_eq!((v.matched, v.total, v.behind), (2, 3, 1));
        assert!(v.overshoots.is_empty(), "{:?}", v.overshoots);
        // Overshoot: a.total beyond baseline plus a metric the baseline
        // never recorded — both hard failures.
        let hot = build(
            &registry_with(
                &[("a.total", 130), ("b.total", 50), ("c.extra", 1)],
                &[("g", 5)],
            ),
            &[],
        );
        let v = watch_verdict(&baseline, &hot, 0.0);
        assert_eq!(v.overshoots.len(), 2, "{:?}", v.overshoots);
    }

    #[test]
    fn bare_snapshots_diff_like_manifests() {
        let r1 = registry_with(&[("x", 1)], &[]);
        let r2 = registry_with(&[("x", 2)], &[]);
        let lines = diff(&r1.snapshot(), &r2.snapshot(), 0.0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("counter x: 1 -> 2"));
    }
}
