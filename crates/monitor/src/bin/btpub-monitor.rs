//! CLI front-end for the §7 monitoring application, running on the
//! streaming spine.
//!
//! ```text
//! btpub-monitor [--scale tiny|repro] [--days N] [--json PATH] [--category CAT]
//!               [--jobs N] [--metrics PATH] [--fault-profile clean|flaky|hostile]
//!               [--trace PATH] [--manifest PATH] [--manifest-every N]
//!               [--checkpoint-dir DIR] [--checkpoint-every N]
//! ```
//!
//! Simulates a Pirate-Bay-style portal campaign and monitors it live
//! through [`btpub::StreamStudy`]: the crawl streams finalized records
//! over a bounded channel and the daemon folds each one into the
//! aggregation state — a months-long simulated campaign runs in flat
//! RSS, never materializing the dataset. On exit it prints the publisher
//! database summary from the streamed aggregates. Progress goes through
//! `btpub_obs` logging (`BTPUB_LOG=info` to watch); `--metrics` writes
//! the observability snapshot as JSON on exit. `--fault-profile` (else
//! the `BTPUB_FAULTS` environment variable) runs the daemon against a
//! deterministically broken feed/tracker/peer world. `--days N` caps the
//! monitored window without changing the simulated world (the capped run
//! observes a strict prefix of the full campaign).
//!
//! Live health-checking: `--manifest PATH` writes a run manifest on
//! exit; `--manifest-every N` *also* rewrites it (atomically) every N
//! simulated days as announcements cross each day boundary, so an
//! `obs_diff --watch` in another terminal can tail the path and compare
//! the live daemon against a known-good baseline as it goes.
//!
//! Crash safety: `--checkpoint-dir DIR` snapshots the fold state every
//! `--checkpoint-every N` folds (default 256) and resumes from it on the
//! next start — a crash, OOM-kill, or deploy restart costs at most one
//! checkpoint interval. SIGINT/SIGTERM trigger a graceful shutdown: the
//! daemon flushes a final checkpoint, rewrites the manifest, salvages
//! the flight-recorder rings when tracing is armed, and exits 0 — `kill`
//! is indistinguishable from a clean stop. `--json PATH` streams one
//! NDJSON line per folded record; on resume the file is truncated back
//! to the checkpoint's cursor so replayed records are never duplicated.

use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use btpub::analysis::fake::Group;
use btpub::analysis::streaming::RecordDigest;
use btpub::sim::content::Category;
use btpub::sim::Ecosystem;
use btpub::{CheckpointPolicy, Scale, Scenario, StreamOptions, StreamOutcome, StreamStudy};
use btpub_faults::FaultProfile;
use btpub_stream::checkpoint;

/// Flipped by the SIGINT/SIGTERM handlers; polled after every fold.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::tiny();
    let mut scale_name = "tiny".to_string();
    let mut days: Option<f64> = None;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut manifest_every: u64 = 0;
    let mut category: Option<Category> = None;
    let mut fault_profile: Option<FaultProfile> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 256u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::tiny(),
                    Some("repro") => Scale::default_repro(),
                    other => {
                        eprintln!("unknown scale {other:?} (expected tiny|repro)");
                        std::process::exit(2);
                    }
                };
                scale_name = args[i].clone();
            }
            "--days" => {
                i += 1;
                days = args.get(i).and_then(|d| d.parse().ok());
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => btpub_par::set_global(btpub_par::Jobs::new(n)),
                    _ => {
                        eprintln!("--jobs requires a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
            }
            "--metrics" => {
                i += 1;
                metrics_path = args.get(i).cloned();
                if metrics_path.is_none() {
                    eprintln!("--metrics requires a path");
                    std::process::exit(2);
                }
            }
            "--trace" => {
                i += 1;
                trace_path = args.get(i).cloned();
                if trace_path.is_none() {
                    eprintln!("--trace requires a path");
                    std::process::exit(2);
                }
            }
            "--manifest" => {
                i += 1;
                manifest_path = args.get(i).cloned();
                if manifest_path.is_none() {
                    eprintln!("--manifest requires a path");
                    std::process::exit(2);
                }
            }
            "--manifest-every" => {
                i += 1;
                manifest_every = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--manifest-every requires a positive day count");
                        std::process::exit(2);
                    }
                };
            }
            "--fault-profile" => {
                i += 1;
                fault_profile = match args.get(i).map(String::as_str) {
                    Some(name) => match FaultProfile::by_name(name) {
                        Some(p) => Some(p),
                        None => {
                            eprintln!(
                                "unknown fault profile {name} (expected clean|flaky|hostile)"
                            );
                            std::process::exit(2);
                        }
                    },
                    None => {
                        eprintln!("--fault-profile requires a name");
                        std::process::exit(2);
                    }
                };
            }
            "--category" => {
                i += 1;
                category = args.get(i).and_then(|c| {
                    Category::ALL
                        .into_iter()
                        .find(|cat| cat.label().eq_ignore_ascii_case(c))
                });
            }
            "--checkpoint-dir" => {
                i += 1;
                checkpoint_dir = args.get(i).map(PathBuf::from);
                if checkpoint_dir.is_none() {
                    eprintln!("--checkpoint-dir requires a path");
                    std::process::exit(2);
                }
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = match args.get(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--checkpoint-every requires a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // `--trace` beats `BTPUB_TRACE`, which beats off.
    if trace_path.is_some() {
        btpub_obs::trace::set_enabled(true);
    } else if btpub_obs::trace::enabled() {
        trace_path = Some(btpub_obs::trace::env_path().unwrap_or_else(|| "trace.json".to_string()));
    }
    // A crashing armed daemon still yields a loadable trace.
    if let Some(path) = trace_path.as_deref() {
        btpub_obs::trace::install_panic_hook(path);
    }
    if manifest_every > 0 && manifest_path.is_none() {
        eprintln!("--manifest-every requires --manifest PATH");
        std::process::exit(2);
    }

    install_signal_handlers();

    let mut scenario = Scenario::pb10(scale);
    // CLI beats environment, which beats the clean default.
    let fault_profile = fault_profile
        .or_else(FaultProfile::from_env)
        .unwrap_or_else(FaultProfile::clean);
    scenario.crawler.fault_profile = fault_profile.clone();
    // `--days` caps the monitored window *without* touching the world:
    // shrinking the ecosystem's own duration would change every seeded
    // draw, so a capped run could never resume into an uncapped one.
    if let Some(d) = days {
        scenario.crawler.horizon_secs = Some(btpub::sim::SimTime::from_days(d).secs());
    }
    btpub_obs::info!(
        "generating ecosystem";
        torrents = scenario.eco.torrents,
        days = scenario.eco.duration.as_days(),
    );
    let eco = Ecosystem::generate(scenario.eco.clone());
    let horizon_days = scenario.crawler.effective_horizon(&eco).as_days();
    let opts = StreamOptions {
        spill_dir: None,
        spill_chunk: None,
        checkpoint: checkpoint_dir.clone().map(|dir| CheckpointPolicy {
            dir,
            every: checkpoint_every,
        }),
    };

    // On resume, the NDJSON export must be cut back to the checkpoint's
    // cursor: every line past it describes a record whose fold was lost
    // with the crash, and the replay will re-emit it.
    let resumed_at = checkpoint_dir
        .as_deref()
        .and_then(|dir| match checkpoint::read_header(dir) {
            Ok(h) => h.map(|h| h.records_folded),
            Err(e) => {
                eprintln!("checkpoint error: {e}");
                std::process::exit(1);
            }
        });
    let mut json_out = json_path.as_deref().map(|path| {
        let keep = resumed_at.unwrap_or(0);
        truncate_ndjson(Path::new(path), keep);
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open json file");
        std::io::BufWriter::new(f)
    });

    // The live observer: called after every fold, in announcement
    // order, so `announced_at` is monotone across calls.
    let mut items = resumed_at.unwrap_or(0);
    let mut last_day = -1i64;
    let mut next_manifest_day: Option<u64> = None;
    let outcome = StreamStudy::try_run_observed(&scenario, eco, &opts, |digest: &RecordDigest| {
        let rec = &digest.rec;
        items += 1;
        let day = rec.announced_at.as_days();
        let day_floor = day.floor() as i64;
        if day_floor > last_day {
            last_day = day_floor;
            btpub_obs::info!("monitored"; days = day, items = items);
            // Periodic manifest emission: the manifest becomes the live
            // health-check protocol (`obs_diff --watch` tails the path).
            // The write is atomic, so a concurrent reader never sees a
            // torn manifest. On resume the cadence restarts from the
            // first boundary past the resume point.
            if manifest_every > 0 {
                let next = *next_manifest_day.get_or_insert(
                    ((day_floor as u64).checked_div(manifest_every).unwrap_or(0) + 1)
                        * manifest_every,
                );
                if day_floor as u64 >= next {
                    if let Some(path) = manifest_path.as_deref() {
                        write_manifest(path, &scale_name, day.floor(), &fault_profile);
                    }
                    next_manifest_day = Some(next + manifest_every);
                }
            }
        }
        if let Some(out) = json_out.as_mut() {
            use serde_json::Value;
            let mut obj = serde_json::Map::new();
            obj.insert("torrent", Value::from(rec.torrent.0 as u64));
            obj.insert("announced_day", Value::from(rec.announced_at.as_days()));
            obj.insert("category", Value::from(rec.category.label()));
            obj.insert(
                "username",
                rec.username.as_deref().map_or(Value::Null, Value::from),
            );
            obj.insert(
                "publisher_ip",
                rec.publisher_ip
                    .map_or(Value::Null, |ip| Value::from(ip.to_string())),
            );
            obj.insert("downloads", Value::from(rec.observed_downloaders() as u64));
            let line = serde_json::to_string(&Value::Object(obj)).expect("json line");
            writeln!(out, "{line}").expect("write json line");
        }
        if STOP.load(Ordering::Relaxed) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if let Some(out) = json_out.as_mut() {
        out.flush().expect("flush json file");
    }

    let study = match outcome {
        Ok(StreamOutcome::Complete(study)) => Some(study),
        Ok(StreamOutcome::Interrupted { records_folded }) => {
            eprintln!(
                "interrupted by signal: final checkpoint at {records_folded} records; \
                 restart with the same --checkpoint-dir to resume"
            );
            None
        }
        Err(e) => {
            eprintln!("checkpoint error: {e}");
            std::process::exit(1);
        }
    };

    if let Some(study) = &study {
        print_summary(study, category);
        if let Some(path) = &json_path {
            println!("\nndjson export written to {path}");
        }
    }

    // Drain the trace before the metrics/manifest writes: drain()
    // records the trace.dropped.* accounting into the registry, which
    // must be visible in --metrics output (and is excluded from
    // manifest digests). On a signal exit this is the salvage path —
    // the rings still hold the daemon's final moments.
    if let Some(path) = trace_path {
        match btpub_obs::trace::write_chrome_trace(Path::new(&path)) {
            Ok(events) => eprintln!("trace written: {path} ({events} events)"),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = metrics_path {
        let snapshot = btpub_obs::global().snapshot();
        let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
        std::fs::write(&path, json).expect("write metrics file");
        println!("metrics snapshot written to {path}");
    }
    if let Some(path) = manifest_path {
        // A completed run reports the full monitored window; a signalled
        // one reports the last announcement day it folded.
        let sim_days = if study.is_some() {
            horizon_days
        } else {
            last_day.max(0) as f64
        };
        write_manifest(&path, &scale_name, sim_days, &fault_profile);
    }
}

/// Keeps the first `keep` lines of an NDJSON export, dropping the rest.
/// Missing file is fine (fresh run); `keep == 0` truncates to empty.
fn truncate_ndjson(path: &Path, keep: u64) {
    let Ok(content) = std::fs::read_to_string(path) else {
        return;
    };
    let mut end = 0usize;
    for line in content.split_inclusive('\n').take(keep as usize) {
        end += line.len();
    }
    if end < content.len() {
        std::fs::write(path, &content[..end]).expect("truncate json file");
        btpub_obs::info!("ndjson export truncated to checkpoint cursor"; lines = keep);
    }
}

/// The publisher-database summary, rebuilt from the streamed aggregates
/// (the old daemon read these from its materialized store).
fn print_summary(study: &StreamStudy, category: Option<Category>) {
    let s = &study.analyses;
    let fake: Vec<_> = s
        .publishers
        .iter()
        .filter(|p| s.groups.contains(&p.key, Group::Fake))
        .collect();
    println!("== monitor summary ==");
    println!(
        "fault profile: {}",
        study.scenario.crawler.fault_profile.name
    );
    println!("items recorded: {}", s.totals.torrents_total);
    println!(
        "publishers: {} ({} flagged fake)",
        s.publishers.len(),
        fake.len()
    );
    println!(
        "filtered feed would hide {} items and save {} poisoned downloads",
        fake.iter().map(|p| p.content_count()).sum::<usize>(),
        fake.iter().map(|p| p.downloads).sum::<u64>()
    );
    println!("\n== top clean publishers ==");
    for p in s
        .publishers
        .iter()
        .filter(|p| !s.groups.contains(&p.key, Group::Fake))
        .take(10)
    {
        println!(
            "  {:<20} items={:<4} ips={:<2} downloads={}",
            p.key.to_string(),
            p.content_count(),
            p.ips.len(),
            p.downloads
        );
    }
    if let Some(cat) = category {
        println!("\n== top publishers in {} ==", cat.label());
        let mut rows: Vec<(String, usize)> = s
            .publishers
            .iter()
            .filter(|p| !s.groups.contains(&p.key, Group::Fake))
            .map(|p| {
                let count = p
                    .torrents
                    .iter()
                    .filter(|&&t| s.categories[t] == cat)
                    .count();
                (p.key.to_string(), count)
            })
            .filter(|(_, count)| *count > 0)
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (user, count) in rows.into_iter().take(10) {
            println!("  {user:<20} {count}");
        }
    }
}

/// Writes the daemon's run manifest (atomically — see
/// `btpub_obs::manifest::write`): configuration meta, the deterministic
/// metric digest and the full snapshot. `sim_days` records how far the
/// daemon had advanced at emission; it is informational, not part of
/// the config-compatibility meta, so a mid-run manifest stays
/// comparable (via `obs_diff --watch --expect-partial`) to a finished
/// baseline.
fn write_manifest(path: &str, scale: &str, sim_days: f64, profile: &FaultProfile) {
    use serde_json::Value;
    let meta = [
        ("bin", Value::from("btpub-monitor")),
        ("scale", Value::from(scale)),
        ("fault_profile", Value::from(profile.name.as_str())),
        (
            "jobs_effective",
            Value::from(btpub_par::global().get() as u64),
        ),
        ("sim_days", Value::from(sim_days)),
    ];
    let manifest = btpub_obs::manifest::build(btpub_obs::global(), &meta);
    if let Err(e) = btpub_obs::manifest::write(Path::new(path), &manifest) {
        eprintln!("failed to write manifest to {path}: {e}");
        std::process::exit(1);
    }
    btpub_obs::info!("run manifest written"; path = path, sim_days = sim_days);
}
