//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale tiny|repro|paper|<preset>xN|N] [--scenario mn08|pb09|pb10|all]
//!       [--exp ID] [--jobs N] [--stream] [--spill-dir DIR] [--spill-chunk N]
//!       [--checkpoint-dir DIR] [--checkpoint-every N]
//!       [--metrics out.json] [--fault-profile clean|flaky|hostile]
//!       [--trace out.json] [--manifest out.json]
//! ```
//!
//! Experiment ids: t1 f1 t2 t3 s33 f2 f3 f4 s51 t4 t5 s6 aa v1 (default:
//! the full report). Output is the side-by-side "ours vs paper" text that
//! EXPERIMENTS.md records. Diagnostics go through `btpub_obs` (set
//! `BTPUB_LOG=info` to watch progress); `--metrics` dumps the full
//! observability snapshot as JSON and a per-experiment wall-time table is
//! printed to stderr at the end.
//!
//! Fault injection: `--fault-profile <name>` (else `BTPUB_FAULTS`, else
//! `clean`) runs every campaign against a deterministically broken world —
//! see `crates/faults`. The active profile is echoed in each scenario
//! header so archived reports are self-describing.
//!
//! Parallelism: `--jobs N` (else `BTPUB_JOBS`, else all cores) sets the
//! worker count for every `btpub-par` pool; with `--scenario all` the
//! three campaigns also run concurrently. Reports are assembled in
//! scenario order off the workers, so stdout is **byte-identical** at any
//! job count — `scripts/check.sh` diffs `--jobs 1` against `--jobs 4`.
//!
//! Streaming: `--stream` runs each campaign through the bounded-channel
//! pipeline (`StreamStudy`) instead of materializing the dataset —
//! stdout stays byte-identical to the materialized path (gated by
//! `scripts/check.sh` at jobs 1 and 4, clean and hostile). `--spill-dir
//! DIR` (implies `--stream`) spills the global distinct-IP set to sorted
//! segment runs under DIR; an unwritable DIR warns once on stderr and
//! falls back to in-memory. `--spill-chunk N` (implies `--stream`)
//! overrides the spill chunk capacity — a small N forces run flushing at
//! tiny scales, which the crash-injection tests use. `--trace` still
//! records spans in stream mode, but per-scenario campaign timelines
//! need the materialized dataset and are skipped.
//!
//! Checkpointing: `--checkpoint-dir DIR` (implies `--stream`) snapshots
//! the fold state under `DIR/<scenario>/` every `--checkpoint-every N`
//! folds (default 256) and resumes from an existing checkpoint on start;
//! the final report is byte-identical to an uninterrupted run (gated by
//! `scripts/check.sh`, which kills a campaign mid-flight with
//! `BTPUB_CRASH` and diffs the resumed stdout). A corrupt or mismatched
//! checkpoint is refused with a named reason and exit code 1; an
//! unwritable DIR warns once and runs checkpoint-free.
//!
//! Scale: besides the presets, `--scale` accepts a campaign-length
//! multiplier — `tinyx100` (any `<preset>xN`) or a bare integer `N`
//! (shorthand for `tinyxN`): N× the torrents at unchanged swarm density
//! and major-publisher population. `0` warns once and runs at 1×.
//!
//! Tracing: `--trace PATH` (or `BTPUB_TRACE=1`/`BTPUB_TRACE=PATH`) arms
//! the flight recorder and drains it into Chrome trace event JSON at
//! exit — load it in Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//! Per-scenario campaign timelines go to **stderr**: stdout carries the
//! report alone and stays byte-identical whether or not tracing is on.
//! `--manifest PATH` writes a run manifest (arguments + a digest of the
//! deterministic metrics) for `obs_diff` to compare across runs.

use std::fmt::Write as _;
use std::path::PathBuf;

use btpub::experiments::{render_full_report, report_data, ReportData};
use btpub::{CheckpointPolicy, Scale, Scenario, StreamOptions, StreamOutcome, StreamStudy, Study};
use btpub_faults::FaultProfile;

/// The known experiment ids (`--exp`), excluding `all`.
const EXPERIMENT_IDS: [&str; 14] = [
    "t1", "f1", "t2", "t3", "s33", "f2", "f3", "f4", "s51", "t4", "t5", "s6", "aa", "v1",
];

fn scenario_by_name(name: &str, scale: Scale) -> Option<Scenario> {
    match name {
        "mn08" => Some(Scenario::mn08(scale)),
        "pb09" => Some(Scenario::pb09(scale)),
        "pb10" => Some(Scenario::pb10(scale)),
        _ => None,
    }
}

/// Parses `--scale`: a preset (`tiny|repro|paper`), a preset with a
/// campaign-length multiplier (`tinyx100`), or a bare multiplier `N`
/// (shorthand for `tinyxN`). A multiplier of `0` is meaningless — it
/// warns once on stderr, naming the value and the accepted forms, and
/// falls back to 1×.
fn parse_scale(raw: &str) -> Option<(Scale, u64)> {
    fn preset(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::tiny()),
            "repro" => Some(Scale::default_repro()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
    let (base, mult) = if let Ok(n) = raw.parse::<u64>() {
        (Scale::tiny(), n)
    } else if let Some((name, n)) = raw.split_once('x') {
        (preset(name)?, n.parse::<u64>().ok()?)
    } else {
        return preset(raw).map(|s| (s, 1));
    };
    let mult = if mult == 0 {
        btpub_stream::warn_once(
            "repro.scale.zero",
            &format!(
                "--scale {raw:?}: campaign multiplier 0 is meaningless, running at 1x \
                 (accepted forms: tiny|repro|paper, <preset>xN, or a bare positive \
                 integer N meaning tinyxN)"
            ),
        );
        1
    } else {
        mult
    };
    Some((base, mult))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_repro();
    let mut scale_mult = 1u64;
    let mut scale_name = "repro".to_string();
    let mut scenario_names = vec!["pb10".to_string()];
    let mut exp: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut manifest_path: Option<String> = None;
    let mut fault_profile: Option<FaultProfile> = None;
    let mut stream = false;
    let mut spill_dir: Option<PathBuf> = None;
    let mut spill_chunk: Option<usize> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 256u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                (scale, scale_mult) = match args.get(i).and_then(|raw| parse_scale(raw)) {
                    Some(parsed) => parsed,
                    None => {
                        eprintln!(
                            "unknown scale {:?} (accepted: tiny|repro|paper, <preset>xN, \
                             or a bare campaign multiplier N meaning tinyxN)",
                            args.get(i)
                        );
                        std::process::exit(2);
                    }
                };
                scale_name = args[i].clone();
            }
            "--stream" => stream = true,
            "--spill-dir" => {
                i += 1;
                spill_dir = args.get(i).map(PathBuf::from);
                if spill_dir.is_none() {
                    eprintln!("--spill-dir requires a path");
                    std::process::exit(2);
                }
                // Spilling only exists on the streaming path.
                stream = true;
            }
            "--spill-chunk" => {
                i += 1;
                spill_chunk = match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("--spill-chunk requires a positive integer");
                        std::process::exit(2);
                    }
                };
                stream = true;
            }
            "--checkpoint-dir" => {
                i += 1;
                checkpoint_dir = args.get(i).map(PathBuf::from);
                if checkpoint_dir.is_none() {
                    eprintln!("--checkpoint-dir requires a path");
                    std::process::exit(2);
                }
                // Checkpointing only exists on the streaming path.
                stream = true;
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
            "--scenario" => {
                i += 1;
                let v = args.get(i).cloned().unwrap_or_default();
                scenario_names = if v == "all" {
                    vec!["mn08".into(), "pb09".into(), "pb10".into()]
                } else {
                    vec![v]
                };
            }
            "--exp" => {
                i += 1;
                exp = args.get(i).cloned();
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
            "--fault-profile" => {
                i += 1;
                fault_profile = match args.get(i).map(String::as_str) {
                    Some(name) => match FaultProfile::by_name(name) {
                        Some(p) => Some(p),
                        None => {
                            eprintln!("unknown fault profile {name} (expected clean|flaky|hostile)");
                            std::process::exit(2);
                        }
                    },
                    None => {
                        eprintln!("--fault-profile requires a name");
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

    // Validate everything up front: the scenario fan-out below must not
    // discover bad arguments mid-flight.
    if let Some(id) = exp.as_deref() {
        if id != "all" && !EXPERIMENT_IDS.contains(&id) {
            eprintln!("unknown experiment {id}");
            std::process::exit(2);
        }
    }
    // CLI beats environment (`BTPUB_TRACE`), which beats off. Arming the
    // recorder up front means every span/fault/announce below is captured.
    if trace_path.is_some() {
        btpub_obs::trace::set_enabled(true);
    } else if btpub_obs::trace::enabled() {
        trace_path = Some(
            btpub_obs::trace::env_path().unwrap_or_else(|| "trace.json".to_string()),
        );
    }
    // A crashing armed run should still yield a loadable trace: the
    // hook drains the rings to the --trace path after the default
    // panic message.
    if let Some(path) = trace_path.as_deref() {
        btpub_obs::trace::install_panic_hook(path);
    }
    // CLI beats environment, which beats the clean default.
    let fault_profile = fault_profile
        .or_else(FaultProfile::from_env)
        .unwrap_or_else(FaultProfile::clean);
    let scenarios: Vec<(String, Scenario)> = scenario_names
        .iter()
        .map(|name| match scenario_by_name(name, scale) {
            Some(s) => {
                // The campaign-length multiplier lives on the scenario
                // (`tinyx100` = 100× the torrents over 100× the days), so
                // it composes with any preset.
                let mut s = s.times(scale_mult);
                s.crawler.fault_profile = fault_profile.clone();
                (name.clone(), s)
            }
            None => {
                eprintln!("unknown scenario {name}");
                std::process::exit(2);
            }
        })
        .collect();

    // Run the campaigns concurrently (`--scenario all` ⇒ three independent
    // studies), then print the assembled chunks in scenario order so
    // stdout does not depend on completion order or job count.
    let exp_ref = exp.as_deref();
    let stream_opts = stream.then_some(StreamOptions {
        spill_dir,
        spill_chunk,
        checkpoint: checkpoint_dir.map(|dir| CheckpointPolicy {
            dir,
            every: checkpoint_every,
        }),
    });
    let chunks = btpub_par::par_map_indexed("repro.scenarios", scenarios.len(), |i| {
        let (name, scenario) = &scenarios[i];
        run_scenario(name, scenario, exp_ref, stream_opts.as_ref())
    });
    for (chunk, _) in &chunks {
        print!("{chunk}");
    }
    // Campaign timelines render only under --trace, and only to stderr:
    // the report on stdout must not gain a byte when tracing is on.
    for (_, timeline) in &chunks {
        if let Some(tl) = timeline {
            eprint!("{tl}");
        }
    }

    print_experiment_timings();
    // Drain the trace *before* the metrics/manifest writes: drain() is
    // what records the trace.dropped.* / trace.capped.* accounting into
    // the registry, and silent event loss must be visible in --metrics
    // output (it is excluded from manifest digests, so traced and
    // traceless manifests still agree).
    if let Some(path) = trace_path {
        match btpub_obs::trace::write_chrome_trace(std::path::Path::new(&path)) {
            Ok(events) => eprintln!("trace written: {path} ({events} events)"),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = metrics_path {
        write_metrics(&path);
    }
    if let Some(path) = manifest_path {
        write_manifest(&path, &scale_name, &scenario_names, &fault_profile, stream);
    }
}

/// Runs one campaign end to end and renders its stdout chunk, plus the
/// stderr campaign timeline when the flight recorder is armed.
///
/// Both drivers funnel into one [`ReportData`] and one renderer
/// ([`render_exp`]), so the materialized and streaming paths cannot
/// disagree on a stdout byte without disagreeing on the data itself.
fn run_scenario(
    name: &str,
    scenario: &Scenario,
    exp: Option<&str>,
    stream: Option<&StreamOptions>,
) -> (String, Option<String>) {
    let started = std::time::Instant::now();
    let (data, timeline) = match stream {
        Some(opts) => {
            btpub_obs::info!(
                "[{name}] generating + streaming crawl";
                torrents = scenario.eco.torrents,
                days = scenario.eco.duration.as_days(),
            );
            // Per-scenario spill and checkpoint subdirectories:
            // `--scenario all` runs the campaigns concurrently, and
            // neither segment runs nor checkpoint files may collide
            // across them.
            let opts = StreamOptions {
                spill_dir: opts.spill_dir.as_ref().map(|d| d.join(name)),
                spill_chunk: opts.spill_chunk,
                checkpoint: opts.checkpoint.as_ref().map(|p| CheckpointPolicy {
                    dir: p.dir.join(name),
                    every: p.every,
                }),
            };
            let study = match StreamStudy::try_run(scenario, &opts) {
                Ok(StreamOutcome::Complete(study)) => study,
                Ok(StreamOutcome::Interrupted { .. }) => {
                    unreachable!("repro runs without an interrupting observer")
                }
                Err(e) => {
                    // A refused checkpoint (corrupt, or from a different
                    // scenario/seed) must fail loudly, not silently
                    // restart the campaign: the operator pointed us at
                    // state we cannot honour.
                    eprintln!("[{name}] checkpoint error: {e}");
                    std::process::exit(1);
                }
            };
            btpub_obs::info!(
                "[{name}] campaign done (streamed)";
                secs = started.elapsed().as_secs_f64(),
                torrents = study.analyses.totals.torrents_total,
                distinct_ips = study.analyses.totals.distinct_ips,
            );
            // Campaign timelines need the materialized dataset; the
            // streaming path deliberately never has one.
            (
                report_data(scenario, &study.eco, &study.analyses, &study.truth),
                None,
            )
        }
        None => {
            btpub_obs::info!(
                "[{name}] generating + crawling";
                torrents = scenario.eco.torrents,
                days = scenario.eco.duration.as_days(),
            );
            let study = Study::run(scenario);
            btpub_obs::info!(
                "[{name}] campaign done";
                secs = started.elapsed().as_secs_f64(),
                torrents = study.dataset.torrent_count(),
                distinct_ips = study.dataset.distinct_ip_count(),
            );
            let timeline = btpub_obs::trace::enabled().then(|| {
                let plan = (!scenario.crawler.fault_profile.is_clean()).then(|| {
                    btpub_faults::FaultPlan::new(
                        scenario.eco.seed,
                        scenario.crawler.fault_profile.clone(),
                    )
                });
                btpub_crawler::campaign_timeline(&study.dataset, plan.as_ref())
            });
            let analyses = study.analyze();
            (analyses.experiments().report_data(), timeline)
        }
    };
    let mut out = String::new();
    writeln!(out, "################ scenario {name} ################").unwrap();
    writeln!(out, "# fault-profile: {}", scenario.crawler.fault_profile.name).unwrap();
    render_exp(&mut out, exp, &data);
    (out, timeline)
}

/// Renders one experiment section (or the full report) from the
/// already-computed [`ReportData`].
fn render_exp(out: &mut String, exp: Option<&str>, data: &ReportData) {
    match exp {
        None | Some("all") => write!(out, "{}", render_full_report(data)).unwrap(),
        Some("t1") => writeln!(out, "{:#?}", data.t1).unwrap(),
        Some("f1") => {
            let f = &data.f1;
            writeln!(
                out,
                "top3%={:.1}% top_k={} shares={:.3}/{:.3}",
                f.share_top3pct, f.top_k, f.top_k_shares.0, f.top_k_shares.1
            )
            .unwrap();
            for p in f.cdf.iter().step_by((f.cdf.len() / 20).max(1)) {
                writeln!(
                    out,
                    "  {:6.2}% publishers -> {:6.2}% content",
                    p.pct_publishers, p.pct_content
                )
                .unwrap();
            }
        }
        Some("t2") => {
            for row in &data.t2 {
                writeln!(
                    out,
                    "{:<28} {:<16} {:>6.2}%",
                    row.name,
                    row.kind.to_string(),
                    row.pct_content
                )
                .unwrap();
            }
        }
        Some("t3") => writeln!(out, "{:#?}", data.t3).unwrap(),
        Some("s33") => writeln!(out, "{:#?}", data.s33).unwrap(),
        Some("f2") => {
            for (g, d) in &data.f2 {
                writeln!(
                    out,
                    "{:<7} n={:<6} video={:.1}% fractions={:?}",
                    g.label(),
                    d.n,
                    d.video_share() * 100.0,
                    d.fractions
                )
                .unwrap();
            }
        }
        Some("f3") => {
            for (g, b) in &data.f3 {
                writeln!(out, "{:<7} {:?}", g.label(), b).unwrap();
            }
        }
        Some("f4") => {
            for (g, b) in &data.f4 {
                writeln!(out, "{:<7} {:?}", g.label(), b).unwrap();
            }
        }
        Some("s51") => writeln!(out, "{:#?}", data.s51).unwrap(),
        Some("t4") => {
            for row in &data.t4 {
                writeln!(out, "{row:#?}").unwrap();
            }
        }
        Some("t5") => {
            for row in &data.t5 {
                writeln!(out, "{row:#?}").unwrap();
            }
        }
        Some("s6") => writeln!(out, "{:#?}", data.s6).unwrap(),
        Some("aa") => writeln!(out, "{:#?}", data.aa).unwrap(),
        Some("v1") => writeln!(out, "{:#?}", data.v1).unwrap(),
        Some(other) => unreachable!("experiment ids validated in main: {other}"),
    }
}

/// Writes the run manifest: the arguments that shaped this run plus a
/// digest of the deterministic slice of the metric snapshot, for
/// `obs_diff` to compare against another run's manifest.
fn write_manifest(
    path: &str,
    scale: &str,
    scenarios: &[String],
    profile: &FaultProfile,
    stream: bool,
) {
    use serde_json::Value;
    let meta = [
        ("bin", Value::from("repro")),
        ("scale", Value::from(scale)),
        ("scenarios", Value::from(scenarios.join(","))),
        ("fault_profile", Value::from(profile.name.as_str())),
        // Streaming and materialized runs exercise different span/counter
        // sets; obs_diff must refuse to compare them as if they were twins.
        ("stream", Value::from(stream)),
        // The *effective* job count (after the available-parallelism
        // cap): pool task counters legitimately differ across job
        // counts, so obs_diff refuses to compare manifests that
        // disagree here rather than reporting bogus regressions.
        ("jobs_effective", Value::from(btpub_par::global().get() as u64)),
    ];
    let manifest = btpub_obs::manifest::build(btpub_obs::global(), &meta);
    if let Err(e) = btpub_obs::manifest::write(std::path::Path::new(path), &manifest) {
        eprintln!("failed to write manifest to {path}: {e}");
        std::process::exit(1);
    }
    btpub_obs::info!("run manifest written"; path = path);
}

/// Wall-time table for every `exp.*` span recorded this run, sorted by
/// total time descending. Goes to stderr so stdout stays the report.
fn print_experiment_timings() {
    let reg = btpub_obs::global();
    let mut rows: Vec<(String, u64, u64)> = reg
        .histograms()
        .into_iter()
        .filter_map(|(name, h)| {
            let short = name.strip_prefix("span.exp.")?.strip_suffix(".ns")?;
            Some((short.to_string(), h.count(), h.sum()))
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    eprintln!("---------------- experiment timings ----------------");
    eprintln!("{:<8} {:>5} {:>12} {:>12}", "exp", "runs", "total", "mean");
    for (name, count, total_ns) in rows {
        let total = std::time::Duration::from_nanos(total_ns);
        let mean = std::time::Duration::from_nanos(total_ns / count.max(1));
        eprintln!("{name:<8} {count:>5} {total:>12.3?} {mean:>12.3?}");
    }
}

/// Dumps the global observability snapshot (counters, gauges, histogram
/// quantiles) to `path` as pretty-printed JSON. Pool metrics
/// (`par.<pool>.*`) ride along with everything else.
fn write_metrics(path: &str) {
    let snapshot = btpub_obs::global().snapshot();
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write metrics to {path}: {e}");
        std::process::exit(1);
    }
    btpub_obs::info!("metrics snapshot written"; path = path);
}
