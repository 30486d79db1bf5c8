//! `btpub-benchmark`: one benchmark for the repro pipeline and the
//! tracker daemon.
//!
//! ```text
//! btpub-benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//!                 [--trace-out PATH]
//! btpub-benchmark --list
//! btpub-benchmark --smoke
//! btpub-benchmark --compare BASELINE
//! ```
//!
//! Each workload is set up 5 to 51 times (the median is `setup_s`), then
//! measured for `--seconds`, then checked: campaign reports against their
//! pinned digests, daemon snapshots against the in-process oracle. The
//! last stdout line per workload is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`, carrying the
//! end-to-end metrics with `--trace 0` and the per-layer ledger with
//! `--trace 1`; stderr gets a table. `--trace-out` writes the traced
//! run's spans as Chrome trace JSON. The exit code is 1 when any output
//! was wrong. `--compare` judges a baseline of repeated runs (see
//! `baseline.py`) against each metric's bounds.
//!
//! Inputs come from `--seed` alone: seed 0 runs the paper's scenario seeds
//! and the default scripts, any other seed moves every world and script.
//! Everything runs in this one process with `--jobs 1`, one load
//! generator thread and one connection. See README.md beside this file.

mod campaign;
mod ledger;
mod serve;
mod stats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use btpub_obs::serde_json::{self, Value};
use campaign::{Campaign, Expect};
use ledger::Ledger;

/// `System`, plus live-byte accounting for `peak_heap_mb`: `CUR` is the
/// live heap, `PEAK` its high-water mark since the last [`heap::mark`].
struct CountingAlloc;

static CUR: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// side bookkeeping that never affects the pointers handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            heap::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        heap::shrink(layout.size());
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            heap::shrink(layout.size());
            heap::grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak-heap measurement over the counting allocator.
mod heap {
    use super::{Ordering, CUR, PEAK};

    pub(crate) fn grow(size: usize) {
        let cur = CUR.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        // Read before writing: most allocations do not set a new peak, and
        // a load leaves the line shared between the campaign's threads.
        if cur > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
    }

    pub(crate) fn shrink(size: usize) {
        CUR.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// Restarts the high-water mark at the live heap and returns it.
    pub fn mark() -> u64 {
        let cur = CUR.load(Ordering::Relaxed);
        PEAK.store(cur, Ordering::Relaxed);
        cur
    }

    /// Peak live bytes above `mark` since it was taken.
    pub fn peak_since(mark: u64) -> u64 {
        PEAK.load(Ordering::Relaxed).saturating_sub(mark)
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ReproAll,
    StreamFlaky,
    UdpBatch,
    UdpSingle,
    Http,
}

/// A named workload and why it is in the benchmark.
struct Workload {
    name: &'static str,
    kind: Kind,
    why: &'static str,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "repro-all",
        kind: Kind::ReproAll,
        why: "The researcher's headline command at repro swarm density: tracker peer sampling and the crawl event loop dominate, the fault layer draws nothing.",
    },
    Workload {
        name: "stream-flaky-x4",
        kind: Kind::StreamFlaky,
        why: "The long-campaign path: many small swarms through the bounded stream under faults, so per-torrent work, retries and the breaker weigh most.",
    },
    Workload {
        name: "serve-udp-batch",
        kind: Kind::UdpBatch,
        why: "Daemon capacity in 256-announce frames: Plane::apply_batch takes one lock per stripe per frame; one frame in flight, so a round trip is apply plus the worker's idle back-off.",
    },
    Workload {
        name: "serve-udp-single",
        kind: Kind::UdpSingle,
        why: "One BEP 15 announce in flight: single-datagram decode, apply, peer sample and encode, behind the UDP worker's idle sleep, which sets most of the round trip.",
    },
    Workload {
        name: "serve-http",
        kind: Kind::Http,
        why: "The HTTP front end, which the UDP workloads bypass: one keep-alive connection, each request in one write, closed loop.",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the pipeline or the daemon sees,
/// with the bounds of [`Metric::regressed`].
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Largest tolerated worsening, a share of the earlier median.
    bound: f64,
    /// Largest worsening, in `unit`, that counts as jitter whatever its
    /// share.
    floor: f64,
}

impl Metric {
    /// How much worse `after` is than `before`, in the metric's unit;
    /// negative when it is better.
    fn worse(&self, before: f64, after: f64) -> f64 {
        match self.better {
            Better::Lower => after - before,
            Better::Higher => before - after,
        }
    }

    /// Whether a median moving from `before` to `after` regresses: worse
    /// by more than `bound` of `before` and by more than `floor`, so that
    /// a metric a few milliseconds long is not failed on scheduler jitter.
    fn regressed(&self, before: f64, after: f64) -> bool {
        let worse = self.worse(before, after);
        worse > self.bound * before.abs() && worse > self.floor
    }
}

const END_TO_END: [Metric; 4] = [
    // Set-up before the first timed operation, median of repeated
    // set-ups: the scenario set plus a small warm-up pass, or script,
    // oracle, daemon start and client connect.
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    // Median time of one operation as its client sees it: a whole
    // campaign, or the round trip of a batch frame or of one announce.
    Metric {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
    },
    // Work delivered per second: torrent records reported per campaign
    // second, or announces answered per second at the median round trip.
    Metric {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    // Peak live heap over the level before the operation.
    Metric {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        floor: 1.0,
    },
];

/// A per-layer metric of the traced run, with the end-to-end metric and
/// workload it should move, and a workload where it should not.
struct Layer {
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
    flat_on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
    flat_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
        flat_on,
    }
}

use Better::{Higher, Lower};

/// One row per metric: name, unit, direction, then the end-to-end metric
/// it should move, the workload where it should, and one where it should
/// not.
#[rustfmt::skip]
const PER_LAYER: [Layer; 41] = [
    layer("sim.generate_s", "s", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("crawler.run_s", "s", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("crawler.self_s", "s", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("crawler.events", "count", Lower, "p50_ms", "stream-flaky-x4", "serve-udp-batch"),
    layer("crawler.queries", "count", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("crawler.useful_ratio", "ratio", Higher, "p50_ms", "stream-flaky-x4", "serve-udp-batch"),
    layer("tracker.announce_busy_s", "s", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("tracker.announces", "count", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("tracker.announce_p50_ns", "ns", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("tracker.refused", "count", Lower, "p50_ms", "stream-flaky-x4", "serve-udp-batch"),
    layer("tracker.probes", "count", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("portal.busy_s", "s", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("faults.injected", "count", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("faults.breaker_deferred", "count", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("faults.gaveup", "count", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("analysis.analyze_s", "s", Lower, "p50_ms", "repro-all", "stream-flaky-x4"),
    layer("analysis.reduce_s", "s", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("analysis.fold_s", "s", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("analysis.finish_s", "s", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("stream.channel_wait_s", "s", Lower, "p50_ms", "stream-flaky-x4", "repro-all"),
    layer("stream.reorder_peak", "count", Lower, "peak_heap_mb", "stream-flaky-x4", "repro-all"),
    layer("stream.records", "count", Higher, "throughput_per_s", "stream-flaky-x4", "repro-all"),
    layer("core.report_s", "s", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("ledger.unattributed_pct", "%", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
    layer("wire.decode_ns", "ns", Lower, "throughput_per_s", "serve-udp-batch", "serve-http"),
    layer("wire.encode_ns", "ns", Lower, "p50_ms", "serve-udp-single", "serve-http"),
    layer("plane.apply_ns", "ns", Lower, "throughput_per_s", "serve-udp-batch", "serve-udp-single"),
    layer("plane.apply_p50_ns", "ns", Lower, "throughput_per_s", "serve-udp-batch", "serve-udp-single"),
    layer("plane.sample_ns", "ns", Lower, "p50_ms", "serve-udp-single", "serve-udp-batch"),
    layer("plane.admitted_ratio", "ratio", Higher, "throughput_per_s", "serve-udp-batch", "serve-udp-single"),
    layer("plane.shard_imbalance_pct", "%", Lower, "throughput_per_s", "serve-udp-batch", "serve-udp-single"),
    layer("udp.residual_us", "us", Lower, "p50_ms", "serve-udp-single", "serve-http"),
    layer("udp.queue_depth_p50", "count", Lower, "p50_ms", "serve-udp-single", "serve-http"),
    layer("http.parse_ns", "ns", Lower, "p50_ms", "serve-http", "serve-udp-batch"),
    layer("http.write_ns", "ns", Lower, "p50_ms", "serve-http", "serve-udp-batch"),
    layer("http.residual_us", "us", Lower, "p50_ms", "serve-http", "serve-udp-batch"),
    layer("load.tail_us", "us", Lower, "p50_ms", "serve-udp-single", "repro-all"),
    layer("load.tail_pct", "%", Higher, "p50_ms", "serve-udp-single", "repro-all"),
    layer("load.samples", "count", Higher, "p50_ms", "serve-udp-single", "repro-all"),
    layer("load.timeouts", "count", Lower, "p50_ms", "serve-udp-single", "serve-udp-batch"),
    layer("trace.overhead_pct", "%", Lower, "p50_ms", "repro-all", "serve-udp-batch"),
];

/// Report digests the campaign workloads must reproduce at full size,
/// per `(workload, seed, world, scenario)`. Seed 0's world 0 runs the
/// paper's scenario seeds; seed 1 is held out.
#[rustfmt::skip]
const PINS: [(&str, u64, usize, &str, u64); 32] = [
    ("repro-all", 0, 0, "mn08", 0xbdce_084d_8a5e_1897),
    ("repro-all", 0, 0, "pb09", 0x4429_9f67_5701_df4a),
    ("repro-all", 0, 0, "pb10", 0x8610_f09b_07cb_8d6b),
    ("repro-all", 0, 1, "mn08", 0x6d95_97f7_d9e7_87e0),
    ("repro-all", 0, 1, "pb09", 0x40b5_35bb_667a_931a),
    ("repro-all", 0, 1, "pb10", 0x319a_9752_7df1_f098),
    ("repro-all", 0, 2, "mn08", 0x962a_5ccf_ff20_ff77),
    ("repro-all", 0, 2, "pb09", 0x86db_8e17_1914_ce2c),
    ("repro-all", 0, 2, "pb10", 0x9a68_a14a_b3ae_b9f5),
    ("repro-all", 0, 3, "mn08", 0x3bc9_77c1_f9f4_0261),
    ("repro-all", 0, 3, "pb09", 0xa5f2_02c4_0d01_f7cc),
    ("repro-all", 0, 3, "pb10", 0x30ba_8b83_5aba_1970),
    ("repro-all", 1, 0, "mn08", 0x3df7_7183_d072_4079),
    ("repro-all", 1, 0, "pb09", 0x58af_dd37_8a83_4250),
    ("repro-all", 1, 0, "pb10", 0xf885_62cb_b738_2fe8),
    ("repro-all", 1, 1, "mn08", 0x0389_5ad4_290e_1a4e),
    ("repro-all", 1, 1, "pb09", 0x9787_7ad7_2cd5_ca4d),
    ("repro-all", 1, 1, "pb10", 0x17a7_fc25_a111_7cbc),
    ("repro-all", 1, 2, "mn08", 0x5e51_7e50_4089_75c6),
    ("repro-all", 1, 2, "pb09", 0x5ceb_1171_0ee4_2c31),
    ("repro-all", 1, 2, "pb10", 0x46c2_5b30_77c7_a4ac),
    ("repro-all", 1, 3, "mn08", 0x96eb_933e_f371_5efd),
    ("repro-all", 1, 3, "pb09", 0xe554_d545_06aa_e52d),
    ("repro-all", 1, 3, "pb10", 0x4727_979e_aad7_3df2),
    // The report `repro --scale tinyx4 --scenario pb10 --stream
    // --fault-profile flaky --jobs 1` prints below its two header lines.
    ("stream-flaky-x4", 0, 0, "pb10", 0x6443_8bba_d6e2_6e97),
    ("stream-flaky-x4", 0, 1, "pb10", 0x9723_9972_7ef0_5c36),
    ("stream-flaky-x4", 0, 2, "pb10", 0x0f90_07ee_0bb3_2ce1),
    ("stream-flaky-x4", 0, 3, "pb10", 0x0d1d_f41c_0f54_3b0e),
    ("stream-flaky-x4", 1, 0, "pb10", 0x92a0_0375_7599_079d),
    ("stream-flaky-x4", 1, 1, "pb10", 0x3abe_626a_ed6a_0536),
    ("stream-flaky-x4", 1, 2, "pb10", 0x8c55_fad0_d963_245b),
    ("stream-flaky-x4", 1, 3, "pb10", 0x83cc_119f_f113_ec16),
];

fn pins_for(workload: &str, seed: u64) -> Vec<(usize, &'static str, u64)> {
    PINS.iter()
        .filter(|p| p.0 == workload && p.1 == seed)
        .map(|p| (p.2, p.3, p.4))
        .collect()
}

/// Moves a base seed to world `world` of benchmark seed `seed`: world 0
/// of seed 0 keeps the base, anything else gives an unrelated world or
/// script.
pub fn derive_seed(base: u64, seed: u64, world: u64) -> u64 {
    if seed == 0 && world == 0 {
        base
    } else {
        base ^ btpub_faults::mix(seed, "btpub-benchmark.seed", world)
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Every output checked was right.
    pub correct: bool,
    /// Operations attempted: campaign reports, or announces.
    pub ops: u64,
    /// Operations that failed: a wrong report, an announce with no reply
    /// within a second, or every announce of a run whose final snapshot
    /// was not the oracle's.
    pub ops_failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// How big and how long a run is.
struct Size {
    /// Work divisor: 1 for the benchmark, 50 for `--smoke`.
    divisor: usize,
    budget: Duration,
    /// Seconds of repeated set-up behind `setup_s`.
    setup: f64,
}

impl Size {
    fn full(seconds: u64) -> Size {
        Size {
            divisor: 1,
            budget: Duration::from_secs(seconds),
            setup: 1.0,
        }
    }

    fn smoke() -> Size {
        Size {
            divisor: campaign::SMOKE_DIVISOR,
            budget: Duration::from_millis(200),
            setup: 0.0,
        }
    }
}

/// Set-ups per run, fewest and most; `setup_s` is their median. Between
/// the two, set-up repeats until [`Size::setup`] is spent, so a set-up of
/// a few milliseconds is timed dozens of times and its median does not
/// rest on five samples of scheduler noise.
const SETUP_REPEATS: (usize, usize) = (5, 51);

/// Runs `f` as [`SETUP_REPEATS`] says, for about `seconds`, and keeps the
/// last product; returns it with the median set-up time. Earlier products
/// are dropped outside the timed span.
fn set_up<T>(seconds: f64, mut f: impl FnMut() -> T) -> (T, f64) {
    let (fewest, most) = SETUP_REPEATS;
    let mut times: Vec<f64> = Vec::with_capacity(most);
    let mut kept = None;
    while times.len() < fewest || (times.len() < most && times.iter().sum::<f64>() < seconds) {
        let t0 = Instant::now();
        let product = f();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(product);
    }
    (
        kept.expect("at least one set-up"),
        stats::median(&mut times),
    )
}

fn run_workload(w: &Workload, seed: u64, size: &Size, ledger: Option<&Ledger>) -> Outcome {
    let d = size.divisor;
    match w.kind {
        Kind::ReproAll | Kind::StreamFlaky => {
            let build = if w.kind == Kind::ReproAll {
                Campaign::repro_all
            } else {
                Campaign::stream_flaky
            };
            let (c, setup_s) = set_up(size.setup, || campaign::set_up(build, seed, d));
            let pins = if d == 1 {
                pins_for(w.name, seed)
            } else {
                Vec::new()
            };
            let mut expect = Expect::new(&pins);
            match ledger {
                None => campaign::run(&c, &mut expect, size.budget, setup_s),
                Some(l) => campaign::run_traced(&c, &mut expect, size.budget, l),
            }
        }
        Kind::UdpBatch => {
            let (w, setup_s) = set_up(size.setup, || {
                serve::ClosedLoop::batch(seed, serve::BATCH_LAP_ANNOUNCES / d)
            });
            serve::run_closed(w, size.budget, setup_s, ledger)
        }
        Kind::UdpSingle => {
            let (w, setup_s) = set_up(size.setup, || {
                serve::ClosedLoop::single(seed, serve::SINGLE_LAP_ANNOUNCES / d)
            });
            serve::run_closed(w, size.budget, setup_s, ledger)
        }
        Kind::Http => {
            let (w, setup_s) = set_up(size.setup, || {
                serve::ClosedLoop::http(seed, serve::HTTP_LAP_ANNOUNCES / d)
            });
            serve::run_closed(w, size.budget, setup_s, ledger)
        }
    }
}

/// The reported metrics of a run, in table order with their units: the
/// end-to-end set untraced, the per-layer set traced. A layer this
/// workload does not exercise reads 0.
fn reported(o: &Outcome, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let value = |name: &str| {
        o.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = reported(o, traced)
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                finite(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.ops,
        o.ops_failed,
        metrics.join(",")
    )
}

/// JSON has no NaN or infinity; a ratio over nothing reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_table(name: &str, seed: u64, o: &Outcome, traced: bool) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "---- {name} seed={seed} {} cpus={cpus}: ops={} ops_failed={} correct={}",
        if traced { "traced" } else { "untraced" },
        o.ops,
        o.ops_failed,
        o.correct
    );
    for (metric, unit, v) in reported(o, traced) {
        eprintln!("  {metric:<28} {v:>16.6} {unit}");
    }
}

/// Every workload untraced and traced at `1/50` size with short budgets:
/// keeps the measurement and checking code live without timing anything
/// that matters.
fn smoke() -> Vec<(&'static str, Outcome, Outcome)> {
    let size = Size::smoke();
    WORKLOADS
        .iter()
        .map(|w| {
            let untraced = run_workload(w, 0, &size, None);
            let traced = run_workload(w, 0, &size, Some(&Ledger::new()));
            (w.name, untraced, traced)
        })
        .collect()
}

fn print_list() {
    for w in &WORKLOADS {
        println!("workload {} -- {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} {} {} bound={} floor={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.floor
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer {} {} {} moves={} on={} flat_on={}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves,
            m.on,
            m.flat_on
        );
    }
}

/// The verdict on a baseline (the JSON `baseline.py` writes: per set, per
/// workload, per end-to-end metric, the median and the spread, IQR over
/// median): one table row per workload and metric, and whether all
/// passed. A metric fails when a set's spread is wider than its bound
/// (`setup_s` is exempt) or when a set's median regressed against the set
/// before it; a spread of a third of the bound or more is marked
/// unsteady, and a worsening past the bound but within the floor is
/// marked as such.
fn compare(baseline: &Value) -> (Vec<String>, bool) {
    let sets = baseline["sets"].as_array().map_or(&[][..], Vec::as_slice);
    let mut rows = Vec::new();
    let mut ok = !sets.is_empty();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let stats: Vec<(f64, f64)> = sets
                .iter()
                .filter_map(|s| {
                    let r = &s["workloads"][w.name][m.name];
                    Some((r["median"].as_f64()?, r["spread"].as_f64()?))
                })
                .collect();
            if stats.is_empty() {
                continue;
            }
            let mut notes = Vec::new();
            for &(_, spread) in stats.iter().filter(|_| m.name != "setup_s") {
                if spread > m.bound {
                    notes.push("spread past bound");
                    ok = false;
                } else if spread >= m.bound / 3.0 {
                    notes.push("unsteady");
                }
            }
            for pair in stats.windows(2) {
                let (before, after) = (pair[0].0, pair[1].0);
                if m.regressed(before, after) {
                    notes.push("sets disagree");
                    ok = false;
                } else if m.worse(before, after) > m.bound * before.abs() {
                    notes.push("past bound, within floor");
                }
            }
            let cells: Vec<String> = stats
                .iter()
                .map(|(median, spread)| format!("{median:>14.6} {spread:>8.4}"))
                .collect();
            let verdict = if notes.is_empty() {
                "ok".to_string()
            } else {
                notes.join(", ")
            };
            rows.push(format!(
                "{:<18} {:<18} {}  {verdict}",
                w.name,
                m.name,
                cells.join(" ")
            ));
        }
    }
    (rows, ok)
}

const USAGE: &str = "usage: btpub-benchmark --workload <name|all> [--seed N] [--seconds N] \
                     [--trace 0|1] [--trace-out PATH] | --list | --smoke | --compare BASELINE";

/// A parsed command line.
enum Mode {
    List,
    Smoke,
    Compare(String),
    Run {
        workloads: Vec<&'static Workload>,
        seed: u64,
        seconds: u64,
        traced: bool,
        trace_out: Option<String>,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut trace_out) = (0u64, 20u64, false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--list" => return Ok(Mode::List),
            "--smoke" => return Ok(Mode::Smoke),
            "--compare" => return Ok(Mode::Compare(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes an integer".to_string())?
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| workload == "all" || w.name == workload)
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Mode::Run {
        workloads,
        seed,
        seconds,
        traced,
        trace_out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("btpub-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    btpub_par::set_global(btpub_par::Jobs::new(1));
    let all_correct = match mode {
        Mode::List => {
            print_list();
            true
        }
        Mode::Smoke => {
            let results = smoke();
            for (name, untraced, traced) in &results {
                print_table(name, 0, untraced, false);
                print_table(name, 0, traced, true);
            }
            results.iter().all(|(_, u, t)| u.correct && t.correct)
        }
        Mode::Compare(path) => {
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| format!("{e:?}")))
                .unwrap_or_else(|e| {
                    eprintln!("btpub-benchmark: cannot read {path}: {e}");
                    std::process::exit(2);
                });
            let (rows, ok) = compare(&baseline);
            for row in rows {
                println!("{row}");
            }
            ok
        }
        Mode::Run {
            workloads,
            seed,
            seconds,
            traced,
            trace_out,
        } => {
            let ledger = traced.then(Ledger::new);
            let mut all = true;
            for w in workloads {
                let o = run_workload(w, seed, &Size::full(seconds), ledger.as_ref());
                print_table(w.name, seed, &o, traced);
                println!("{}", result_json(&o, traced));
                all &= o.correct;
            }
            if let (Some(l), Some(path)) = (&ledger, trace_out) {
                let trace = l.chrome_trace(&args.join(" ")).to_string();
                if let Err(e) = std::fs::write(&path, trace) {
                    eprintln!("btpub-benchmark: cannot write {path}: {e}");
                    std::process::exit(2);
                }
                let (kept, dropped) = l.counts();
                eprintln!("trace written: {path} ({kept} spans, {dropped} past the cap)");
            }
            all
        }
    };
    std::process::exit(if all_correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration at the repository root.
    fn declared() -> Value {
        serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|e| e["name"].as_str().expect("a name").to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let b = declared();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&b, "workloads"), workloads);
        assert_eq!(names(&b, "end_to_end"), e2e);
        assert_eq!(names(&b, "per_layer"), layers);
        assert!((2..=8).contains(&workloads.len()));
        assert!(e2e.len() <= 16 && layers.len() <= 128);
        let mut all: Vec<&str> = workloads
            .iter()
            .chain(&e2e)
            .chain(&layers)
            .copied()
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        all.sort_unstable();
        assert!(all.windows(2).all(|w| w[0] != w[1]), "names are used once");
        for (w, decl) in WORKLOADS.iter().zip(b["workloads"].as_array().unwrap()) {
            assert_eq!(decl["why"].as_str(), Some(w.why), "{}", w.name);
        }
        for (m, decl) in END_TO_END.iter().zip(b["end_to_end"].as_array().unwrap()) {
            assert_eq!(decl["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                decl["better"].as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(decl["bound"].as_f64(), Some(m.bound), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let largest = b["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|m| m["bound"].as_f64())
            .fold(0.0, f64::max);
        assert_eq!(b["end_to_end"][0]["name"].as_str(), Some("setup_s"));
        assert_eq!(
            b["end_to_end"][0]["bound"].as_f64(),
            Some(largest),
            "set-up gets the largest bound"
        );
        for (m, decl) in PER_LAYER.iter().zip(b["per_layer"].as_array().unwrap()) {
            assert_eq!(decl["unit"].as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(
                decl["better"].as_str(),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            // Each layer names the end-to-end metric it should move, the
            // workload where, and a workload where it should not.
            assert!(e2e.contains(&m.moves), "{} moves {}", m.name, m.moves);
            assert!(workloads.contains(&m.on), "{} on {}", m.name, m.on);
            assert!(
                workloads.contains(&m.flat_on) && m.on != m.flat_on,
                "{}",
                m.name
            );
        }
        assert_eq!(
            b["paths"][0].as_str(),
            Some("crates/bench/src/bin/btpub-benchmark")
        );
    }

    #[test]
    fn seed_zero_keeps_the_paper_seeds_and_others_move_them() {
        let base = 0x2010_0406;
        assert_eq!(derive_seed(base, 0, 0), base);
        assert_ne!(derive_seed(base, 0, 1), base);
        assert_ne!(derive_seed(base, 1, 0), base);
        assert_eq!(derive_seed(base, 7, 2), derive_seed(base, 7, 2));
        assert_ne!(derive_seed(base, 1, 0), derive_seed(base, 2, 0));
        assert_ne!(derive_seed(base, 1, 1), derive_seed(base, 1, 0));
        let paper = btpub::Scenario::pb10(btpub::Scale::tiny()).times(campaign::STREAM_MULTIPLIER);
        assert_eq!(
            Campaign::stream_flaky(0).worlds[0][0].eco.seed,
            paper.eco.seed
        );
        assert_ne!(
            Campaign::stream_flaky(1).worlds[0][0].eco.seed,
            paper.eco.seed
        );
        let c = Campaign::repro_all(1);
        assert_eq!(c.worlds.len() as u64, campaign::WORLDS);
        for world in &c.worlds {
            let names: Vec<&str> = world.iter().map(|s| s.name).collect();
            assert_eq!(names, ["mn08", "pb09", "pb10"]);
        }
        // Pins cover every world and scenario of seeds 0 and 1, no other.
        for (w, per_world) in [("repro-all", 3), ("stream-flaky-x4", 1)] {
            for seed in [0, 1] {
                assert_eq!(
                    pins_for(w, seed).len(),
                    per_world * campaign::WORLDS as usize
                );
            }
            assert!(pins_for(w, 2).is_empty());
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: false,
            ops: 3,
            ops_failed: 3,
            metrics: vec![("p50_ms", 1.25), ("throughput_per_s", f64::NAN)],
        };
        let v: Value = serde_json::from_str(&result_json(&o, false)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            (v["correct"].as_bool(), v["failed"].as_u64()),
            (Some(false), Some(3))
        );
        let metrics = v["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v["metrics"]["p50_ms"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["p50_ms"]["unit"].as_str(), Some("ms"));
        assert_eq!(
            v["metrics"]["throughput_per_s"]["value"].as_f64(),
            Some(0.0)
        );
        let traced: Value = serde_json::from_str(&result_json(&o, true)).unwrap();
        assert_eq!(
            traced["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn smoke_runs_every_workload_with_its_checks_live() {
        for (name, untraced, traced) in smoke() {
            for (o, is_traced) in [(&untraced, false), (&traced, true)] {
                assert!(o.correct, "{name} traced={is_traced}: output check failed");
                assert!(o.ops >= 1, "{name}");
                assert!(
                    reported(o, is_traced).iter().all(|(_, _, v)| v.is_finite()),
                    "{name}"
                );
            }
            // Every end-to-end metric is measured, never left at 0.
            assert!(
                reported(&untraced, false).iter().all(|&(_, _, v)| v > 0.0),
                "{name}"
            );
        }
    }

    fn metric(name: &str) -> &'static Metric {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a metric")
    }

    #[test]
    fn a_regression_is_past_both_the_bound_and_the_floor() {
        // Bound 0.25, floor 0.02 ms.
        let p50 = metric("p50_ms");
        assert!(!p50.regressed(400.0, 480.0), "20% worse: inside the bound");
        assert!(p50.regressed(400.0, 520.0), "30% and 120 ms worse");
        assert!(!p50.regressed(0.05, 0.065), "30% but 15 µs worse: jitter");
        assert!(p50.regressed(0.2, 0.26), "30% and 60 µs worse");
        assert!(!p50.regressed(400.0, 200.0), "better");
        // Higher is better, no floor.
        let rate = metric("throughput_per_s");
        assert!(rate.regressed(1000.0, 740.0));
        assert!(!rate.regressed(1000.0, 760.0));
        assert!(!rate.regressed(1000.0, 5000.0));
    }

    #[test]
    fn compare_fails_disagreeing_sets_and_wide_spreads() {
        let baseline = |sets: &[(f64, f64)]| -> Value {
            let sets: Vec<String> = sets
                .iter()
                .map(|(median, spread)| {
                    format!(
                        r#"{{"workloads":{{"serve-http":{{"p50_ms":{{"median":{median},"spread":{spread}}},"setup_s":{{"median":0.1,"spread":0.9}}}}}}}}"#
                    )
                })
                .collect();
            serde_json::from_str(&format!(r#"{{"sets":[{}]}}"#, sets.join(","))).unwrap()
        };
        let (rows, ok) = compare(&baseline(&[(44.0, 0.01), (45.0, 0.01)]));
        assert!(ok, "{rows:?}");
        assert_eq!(rows.len(), 2, "only the metrics the file holds");
        assert!(rows.iter().all(|r| r.ends_with("ok")), "{rows:?}");
        let (rows, ok) = compare(&baseline(&[(44.0, 0.01), (60.0, 0.01)]));
        assert!(!ok && rows[1].ends_with("sets disagree"), "{rows:?}");
        let (rows, ok) = compare(&baseline(&[(44.0, 0.3), (44.0, 0.1)]));
        assert!(
            !ok && rows[1].ends_with("spread past bound, unsteady"),
            "{rows:?}"
        );
        let (rows, ok) = compare(&baseline(&[(0.05, 0.01), (0.065, 0.01)]));
        assert!(
            ok && rows[1].ends_with("past bound, within floor"),
            "{rows:?}"
        );
        assert!(!compare(&baseline(&[])).1, "no sets, no verdict");
    }

    #[test]
    fn arguments_parse_to_a_run() {
        let args: Vec<String> = "--workload serve-http --seed 4 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Mode::Run {
            workloads,
            seed,
            seconds,
            traced,
            trace_out,
        }) = parse_args(&args)
        else {
            panic!("a run");
        };
        assert_eq!(workloads.len(), 1);
        assert_eq!(
            (workloads[0].name, seed, seconds, traced, trace_out),
            ("serve-http", 4, 3, true, None)
        );
        let all = ["--workload".to_string(), "all".to_string()];
        assert!(
            matches!(parse_args(&all), Ok(Mode::Run { workloads, .. }) if workloads.len() == 5)
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }
}
