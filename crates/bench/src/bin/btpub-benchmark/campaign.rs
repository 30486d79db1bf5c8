//! The campaign workloads: a whole measurement campaign, world generation
//! through rendered report, is one operation.
//!
//! The untraced run calls the library exactly as `repro` does
//! (`Study::run` → `analyze` → `full_report`, or `StreamStudy::run` →
//! `full_report`). The traced run drives the same layers one public call
//! at a time so each can be timed from here: world generation, the crawl
//! (`run_crawl_with` into a benchmark-side sink), the analysis, the
//! report. The crawl's inner layers are read from the program's always-on
//! obs histograms (tracker) or replayed afterwards (portal), and the
//! crawler's own event loop is what is left.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use btpub::analysis::streaming::{RecordDigest, StreamAggregator, StreamConfig};
use btpub::experiments::TruthCounters;
use btpub::{Scale, Scenario, StreamOptions, StreamStudy, Study};
use btpub_crawler::{run_crawl_with, Dataset, RecordSink, TorrentRecord};
use btpub_faults::{FaultPlan, FaultProfile};
use btpub_portal::Portal;
use btpub_sim::{Ecosystem, SimTime, TorrentId};
use btpub_stream::channel;
use btpub_stream::spill::DistinctU32;

use crate::ledger::{Ledger, ObsMark, SpanId};
use crate::stats::median;
use crate::{derive_seed, heap, Outcome};

/// `repro-all`'s scale: `repro`'s swarm density (`downloads`) and
/// publisher population (`majors`) over 1% of the paper's torrents, so
/// one campaign of all three datasets takes about half a second instead
/// of 22 s while the same layers dominate it, and a run's medians are
/// taken over a score of campaigns.
const REPRO_ALL_SCALE: Scale = Scale {
    torrents: 0.01,
    downloads: 0.10,
    majors: 0.25,
};

/// Campaign-length multiplier of the streaming workload (`tiny` swarms,
/// N× the torrents over N× the days).
pub const STREAM_MULTIPLIER: u64 = 4;

/// Torrent-count divisor of the warm-up pass and of `--smoke`.
pub const SMOKE_DIVISOR: usize = 50;

/// Which pipeline a campaign goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// `Study`: crawl into a dataset, then analyse it.
    Materialized,
    /// `StreamStudy`: crawl into a bounded channel, fold record by record.
    Streamed,
}

/// Worlds a run cycles through. A campaign's cost depends on its world's
/// particular swarms (one seed's campaign runs 15% longer than another's,
/// repeatably), so a run alternates between this many scenario sets
/// derived from its seed and averages over all of them.
pub const WORLDS: u64 = 4;

/// One campaign workload: a pipeline and, per world, the scenarios one
/// campaign runs in order.
#[derive(Clone)]
pub struct Campaign {
    pub pipeline: Pipeline,
    pub worlds: Vec<Vec<Scenario>>,
}

impl Campaign {
    /// `repro-all`: mn08, pb09 and pb10, materialized, clean profile.
    pub fn repro_all(seed: u64) -> Campaign {
        let scale = REPRO_ALL_SCALE;
        Campaign::new(Pipeline::Materialized, seed, || {
            vec![
                Scenario::mn08(scale),
                Scenario::pb09(scale),
                Scenario::pb10(scale),
            ]
        })
    }

    /// The streaming workload: pb10 at `tiny`×N under the flaky profile.
    pub fn stream_flaky(seed: u64) -> Campaign {
        Campaign::new(Pipeline::Streamed, seed, || {
            let mut s = Scenario::pb10(Scale::tiny()).times(STREAM_MULTIPLIER);
            s.crawler.fault_profile = FaultProfile::flaky();
            vec![s]
        })
    }

    /// World 0 of seed 0 keeps the paper's scenario seeds; every other
    /// world is a fresh one.
    fn new(pipeline: Pipeline, seed: u64, scenarios: impl Fn() -> Vec<Scenario>) -> Campaign {
        let worlds = (0..WORLDS)
            .map(|world| {
                let mut set = scenarios();
                for s in &mut set {
                    s.eco.seed = derive_seed(s.eco.seed, seed, world);
                }
                set
            })
            .collect();
        Campaign { pipeline, worlds }
    }

    /// The same campaign with `1/divisor` of the torrents (at least 8),
    /// over the same days: the warm-up pass and `--smoke`.
    pub fn shrunk(&self, divisor: usize) -> Campaign {
        let mut c = self.clone();
        for s in c.worlds.iter_mut().flatten() {
            s.eco.torrents = (s.eco.torrents / divisor).max(8);
        }
        c
    }
}

/// FNV-1a over the report bytes: the pinned identity of a campaign's
/// output.
pub fn digest(report: &str) -> u64 {
    report.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One scenario's report and torrent-record count, the way `repro`
/// computes it.
pub fn report(pipeline: Pipeline, s: &Scenario) -> (String, usize) {
    match pipeline {
        Pipeline::Materialized => {
            let study = Study::run(s);
            let records = study.dataset.torrent_count();
            (study.analyze().experiments().full_report(), records)
        }
        Pipeline::Streamed => {
            let study = StreamStudy::run(s, &StreamOptions::default());
            (study.full_report(), study.analyses.totals.torrents_total)
        }
    }
}

/// Per-world, per-scenario digests a run must reproduce: the pins for its
/// seed when there are any, else whatever the world's first campaign
/// produced.
pub struct Expect {
    digests: BTreeMap<(usize, &'static str), u64>,
}

impl Expect {
    pub fn new(pins: &[(usize, &'static str, u64)]) -> Expect {
        Expect {
            digests: pins.iter().map(|&(w, s, d)| ((w, s), d)).collect(),
        }
    }

    /// Whether `report` is right for `scenario` of `world`; a wrong one is
    /// named on stderr with both digests.
    fn check(&mut self, world: usize, scenario: &'static str, report: &str) -> bool {
        let got = digest(report);
        let want = *self.digests.entry((world, scenario)).or_insert(got);
        if got != want {
            eprintln!(
                "btpub-benchmark: world {world} {scenario} report digest {got:#018x}, \
                 expected {want:#018x}"
            );
        }
        got == want
    }
}

/// An iteration's wall time, heap peak and checked reports.
struct Iteration {
    wall: Duration,
    peak_bytes: u64,
    records: usize,
    failed: u64,
}

fn untraced_iteration(c: &Campaign, world: usize, expect: &mut Expect) -> Iteration {
    let scenarios = &c.worlds[world];
    let base = heap::mark();
    let t0 = Instant::now();
    let mut records = 0;
    let mut reports = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let (text, n) = report(c.pipeline, s);
        records += n;
        reports.push((s.name, text));
    }
    let wall = t0.elapsed();
    let peak_bytes = heap::peak_since(base);
    let failed = reports
        .iter()
        .filter(|(name, text)| !expect.check(world, name, text))
        .count() as u64;
    Iteration {
        wall,
        peak_bytes,
        records,
        failed,
    }
}

/// The campaign's set-up: `build`'s worlds for the seed at `1/divisor`
/// size, plus one pass of the same pipeline at `1/SMOKE_DIVISOR` size, so
/// lazy statics, metric handles and allocator arenas are warm before the
/// first timed campaign and whatever a change moves into first use shows
/// here. The pass runs on the paper's world whatever the seed, so set-up
/// costs the same on every seed.
pub fn set_up(build: fn(u64) -> Campaign, seed: u64, divisor: usize) -> Campaign {
    let warm = build(0).shrunk(SMOKE_DIVISOR);
    for s in &warm.worlds[0] {
        std::hint::black_box(report(warm.pipeline, s));
    }
    build(seed).shrunk(divisor)
}

/// Untraced run: whole campaigns back to back, cycling through the
/// worlds, until `budget` is spent (every world at least once). Each
/// metric is the median campaign of each world, averaged over the worlds:
/// the median sheds campaigns slowed by whatever else the machine was
/// doing, the mean keeps one world's particular cost from deciding it.
pub fn run(c: &Campaign, expect: &mut Expect, budget: Duration, setup_s: f64) -> Outcome {
    let start = Instant::now();
    let mut per_world: Vec<Vec<Iteration>> = c.worlds.iter().map(|_| Vec::new()).collect();
    let (mut ops, mut n) = (0, 0);
    while n < c.worlds.len() || start.elapsed() < budget {
        let world = n % c.worlds.len();
        ops += c.worlds[world].len() as u64;
        per_world[world].push(untraced_iteration(c, world, expect));
        n += 1;
    }
    let failed: u64 = per_world.iter().flatten().map(|i| i.failed).sum();
    let mean_of_medians = |f: &dyn Fn(&Iteration) -> f64| {
        per_world
            .iter()
            .map(|its| median(&mut its.iter().map(f).collect::<Vec<f64>>()))
            .sum::<f64>()
            / per_world.len() as f64
    };
    Outcome {
        correct: failed == 0,
        ops,
        ops_failed: failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("p50_ms", mean_of_medians(&|i| i.wall.as_secs_f64() * 1e3)),
            (
                "throughput_per_s",
                mean_of_medians(&|i| i.records as f64 / i.wall.as_secs_f64()),
            ),
            (
                "peak_heap_mb",
                mean_of_medians(&|i| i.peak_bytes as f64 / (1024.0 * 1024.0)),
            ),
        ],
    }
}

/// Benchmark-side sink: keeps what the portal replay needs and times its
/// own emit calls (for the streamed pipeline, the channel send: the
/// producer's backpressure wait).
struct TimedSink<'a> {
    out: SinkOut<'a>,
    emit: Duration,
    /// `(torrent, first contact)` for the portal replay.
    contacts: Vec<(TorrentId, Option<SimTime>, SimTime)>,
    ledger: &'a Ledger,
    parent: SpanId,
}

enum SinkOut<'a> {
    Collect(&'a mut Vec<TorrentRecord>),
    Channel(Option<channel::Sender<(usize, TorrentRecord)>>),
}

impl RecordSink for TimedSink<'_> {
    fn ordered(&self) -> bool {
        // The streamed pipeline reorders digests on the consumer side,
        // exactly as `ChannelSink` lets `StreamStudy` do.
        matches!(self.out, SinkOut::Collect(_))
    }

    fn emit(&mut self, idx: usize, record: TorrentRecord) {
        self.contacts
            .push((record.torrent, record.first_contact_at, record.announced_at));
        let start = Instant::now();
        match &mut self.out {
            SinkOut::Collect(records) => records.push(record),
            SinkOut::Channel(tx) => {
                let tx = tx
                    .as_ref()
                    .expect("the channel is open while the crawl runs");
                assert!(
                    tx.send((idx, record)).is_ok(),
                    "the consumer outlives the crawl"
                );
            }
        }
        let end = Instant::now();
        self.emit += end - start;
        self.ledger.record(
            "sink.emit",
            self.ledger.id(),
            self.parent,
            idx as u64,
            start,
            end,
        );
    }
}

/// What one traced campaign measured, summed over its scenarios.
#[derive(Default)]
struct Layers {
    wall: Duration,
    generate: Duration,
    crawl: Duration,
    emit: Duration,
    portal: Duration,
    analyze: Duration,
    reduce: Duration,
    fold: Duration,
    finish: Duration,
    report: Duration,
    channel_wait: Duration,
    answered: u64,
    reorder_peak: usize,
    stream_records: u64,
}

/// Re-issues the portal calls a crawl made: `try_rss` on the crawler's
/// poll grid (a failed poll re-covers its window next time, as the
/// crawler does) and one `torrent_listing` per record at first contact.
/// The crawl's own portal time is not separable from the outside; this
/// replay costs the same calls on the same world.
fn replay_portal(
    eco: &Ecosystem,
    s: &Scenario,
    contacts: &[(TorrentId, Option<SimTime>, SimTime)],
) -> Duration {
    let t0 = Instant::now();
    let portal = if s.crawler.fault_profile.is_clean() {
        Portal::new(eco)
    } else {
        Portal::with_faults(
            eco,
            FaultPlan::new(eco.config.seed, s.crawler.fault_profile.clone()),
        )
    };
    let horizon = s.crawler.effective_horizon(eco);
    let mut last = SimTime::ZERO;
    let mut now = SimTime::ZERO + s.crawler.rss_poll;
    while now <= horizon {
        if let Ok(items) = portal.try_rss(last, now) {
            std::hint::black_box(items);
            last = now;
        }
        now += s.crawler.rss_poll;
    }
    for &(torrent, contact, announced) in contacts {
        // Listings removed before contact were asked for at the pounce.
        let at = contact.unwrap_or(announced + btpub_sim::SimDuration(30));
        std::hint::black_box(portal.torrent_listing(torrent, at));
    }
    t0.elapsed()
}

fn traced_materialized(
    s: &Scenario,
    ledger: &Ledger,
    parent: SpanId,
    layers: &mut Layers,
) -> String {
    let t0 = Instant::now();
    let (eco, t) = ledger.span("sim.generate", parent, 0, |_| {
        Ecosystem::generate(s.eco.clone())
    });
    layers.generate += t;
    let mut records = Vec::new();
    let (sink, t) = ledger.span("crawler.run", parent, 0, |id| {
        let mut sink = TimedSink {
            out: SinkOut::Collect(&mut records),
            emit: Duration::ZERO,
            contacts: Vec::new(),
            ledger,
            parent: id,
        };
        run_crawl_with(&eco, &s.crawler, &mut sink);
        (sink.emit, sink.contacts)
    });
    layers.crawl += t;
    layers.emit += sink.0;
    // `run_crawl`'s dataset, assembled from the sink's records.
    let dataset = Dataset {
        name: s.crawler.name.clone(),
        start: SimTime::ZERO,
        end: s.crawler.effective_horizon(&eco),
        has_usernames: s.crawler.collect_usernames,
        torrents: records,
    };
    layers.answered += dataset
        .torrents
        .iter()
        .map(|r| r.sightings.len() as u64)
        .sum::<u64>();
    let study = Study {
        scenario: s.clone(),
        eco,
        dataset,
    };
    let (analyses, t) = ledger.span("analysis.analyze", parent, 0, |_| study.analyze());
    layers.analyze += t;
    let (text, t) = ledger.span("core.report", parent, 0, |_| {
        analyses.experiments().full_report()
    });
    layers.report += t;
    layers.wall += t0.elapsed();
    let (portal, _) = ledger.span("portal.replay", parent, 0, |_| {
        replay_portal(&study.eco, s, &sink.1)
    });
    layers.portal += portal;
    text
}

fn traced_streamed(s: &Scenario, ledger: &Ledger, parent: SpanId, layers: &mut Layers) -> String {
    let t0 = Instant::now();
    let (eco, t) = ledger.span("sim.generate", parent, 0, |_| {
        Ecosystem::generate(s.eco.clone())
    });
    layers.generate += t;
    let cfg = StreamConfig {
        has_usernames: s.crawler.collect_usernames,
        top_k: s.top_k(),
    };
    let mut agg = StreamAggregator::new(cfg, &eco.world.db, DistinctU32::in_memory());
    let mut truth = TruthCounters::default();
    let (tx, rx) = channel::bounded(channel::DEFAULT_CAPACITY);
    let crawl_id = ledger.id();
    let (emit, contacts) = std::thread::scope(|scope| {
        let eco = &eco;
        let producer = scope.spawn(move || {
            let start = Instant::now();
            let mut sink = TimedSink {
                out: SinkOut::Channel(Some(tx)),
                emit: Duration::ZERO,
                contacts: Vec::new(),
                ledger,
                parent: crawl_id,
            };
            run_crawl_with(eco, &s.crawler, &mut sink);
            // Closing the channel is what ends the consumer's loop.
            sink.out = SinkOut::Channel(None);
            let end = Instant::now();
            ledger.record("crawler.run", crawl_id, parent, 0, start, end);
            (end - start, sink.emit, sink.contacts)
        });
        // The consumer loop of `StreamStudy`: reduce on arrival, buffer
        // digests until their announcement turn, fold in order.
        let mut pending: BTreeMap<usize, RecordDigest> = BTreeMap::new();
        let mut next_fold = 0usize;
        let mut chunk = Vec::with_capacity(channel::DEFAULT_CHUNK);
        while rx.recv_chunk(&mut chunk, channel::DEFAULT_CHUNK) > 0 {
            for (idx, rec) in chunk.drain(..) {
                layers.answered += rec.sightings.len() as u64;
                let (digest, t) = ledger.span("analysis.reduce", parent, idx as u64, |_| {
                    RecordDigest::reduce(rec)
                });
                layers.reduce += t;
                pending.insert(idx, digest);
                layers.reorder_peak = layers.reorder_peak.max(pending.len());
                while let Some(d) = pending.remove(&next_fold) {
                    let ((), t) = ledger.span("analysis.fold", parent, next_fold as u64, |_| {
                        truth.observe(&d.rec, eco);
                        agg.fold(&d);
                    });
                    layers.fold += t;
                    next_fold += 1;
                }
            }
        }
        assert!(pending.is_empty(), "every digest folded in order");
        layers.stream_records += next_fold as u64;
        let (crawl, emit, contacts) = producer.join().expect("crawl thread panicked");
        layers.crawl += crawl;
        (emit, contacts)
    });
    layers.emit += emit;
    layers.channel_wait += emit;
    let (analyses, t) = ledger.span("analysis.finish", parent, 0, |_| agg.finish());
    layers.finish += t;
    let study = StreamStudy {
        scenario: s.clone(),
        eco,
        analyses,
        truth,
    };
    let (text, t) = ledger.span("core.report", parent, 0, |_| study.full_report());
    layers.report += t;
    layers.wall += t0.elapsed();
    let (portal, _) = ledger.span("portal.replay", parent, 0, |_| {
        replay_portal(&study.eco, s, &contacts)
    });
    layers.portal += portal;
    text
}

/// One traced campaign: layer timings plus the obs deltas it caused.
fn traced_iteration(
    c: &Campaign,
    world: usize,
    expect: &mut Expect,
    ledger: &Ledger,
) -> (Layers, ObsMark, ObsMark, u64) {
    let mut layers = Layers::default();
    let before = ObsMark::now();
    let mut failed = 0;
    let ((), _) = ledger.span("campaign", 0, world as u64, |campaign| {
        for s in &c.worlds[world] {
            let ((), _) = ledger.span("scenario", campaign, world as u64, |parent| {
                let text = match c.pipeline {
                    Pipeline::Materialized => traced_materialized(s, ledger, parent, &mut layers),
                    Pipeline::Streamed => traced_streamed(s, ledger, parent, &mut layers),
                };
                // The traced run must be the same program: same bytes.
                if !expect.check(world, s.name, &text) {
                    failed += 1;
                }
            });
        }
    });
    (layers, before, ObsMark::now(), failed)
}

/// Traced run: untraced and traced campaigns of the same world alternate
/// until `budget` is spent (at least one of each), so the tracing overhead
/// is measured against untraced campaigns of the same run. Layer metrics
/// are medians over the traced campaigns.
pub fn run_traced(c: &Campaign, expect: &mut Expect, budget: Duration, ledger: &Ledger) -> Outcome {
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut failed, mut ops) = (0, 0);
    while rows.is_empty() || start.elapsed() < budget {
        let world = rows.len() % c.worlds.len();
        ops += 2 * c.worlds[world].len() as u64;
        let it = untraced_iteration(c, world, expect);
        failed += it.failed;
        untraced.push(it.wall.as_secs_f64());
        let (layers, before, after, f) = traced_iteration(c, world, expect, ledger);
        failed += f;
        rows.push(layer_row(&layers, &before, &after));
    }
    let untraced_wall = median(&mut untraced);
    let mut metrics = median_row(&rows);
    let traced_wall = metrics
        .iter()
        .find(|(n, _)| *n == "campaign.wall_s")
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    metrics.retain(|(n, _)| *n != "campaign.wall_s");
    metrics.push((
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    ));
    Outcome {
        correct: failed == 0,
        ops,
        ops_failed: failed,
        metrics,
    }
}

/// Every campaign-layer metric of one traced campaign.
fn layer_row(l: &Layers, before: &ObsMark, after: &ObsMark) -> Vec<(&'static str, f64)> {
    let tracker = before.histogram(after, "tracker.announce.latency_ns");
    let tracker_busy = Duration::from_nanos(tracker.sum);
    let queries = before.counter(after, "crawler.query.total");
    let crawler_self = l.crawl.saturating_sub(tracker_busy + l.portal + l.emit);
    let secs = |d: Duration| d.as_secs_f64();
    // The layers on the path the campaign waits for. The streamed fold
    // runs beside the crawl and blocks it only through the channel, whose
    // wait is the sink's emit time.
    let blocking = l.generate
        + crawler_self
        + tracker_busy
        + l.portal
        + l.emit
        + l.analyze
        + l.finish
        + l.report;
    vec![
        ("campaign.wall_s", secs(l.wall)),
        (
            "ledger.unattributed_pct",
            (secs(l.wall) - secs(blocking)) / secs(l.wall) * 100.0,
        ),
        ("sim.generate_s", secs(l.generate)),
        ("crawler.run_s", secs(l.crawl)),
        ("crawler.self_s", secs(crawler_self)),
        (
            "crawler.events",
            before.histogram(after, "span.sim.engine.tick.ns").count() as f64,
        ),
        ("crawler.queries", queries as f64),
        (
            "crawler.useful_ratio",
            l.answered as f64 / queries.max(1) as f64,
        ),
        ("tracker.announce_busy_s", secs(tracker_busy)),
        (
            "tracker.announces",
            before.counter(after, "tracker.announce.total") as f64,
        ),
        ("tracker.announce_p50_ns", tracker.quantile(0.5)),
        (
            "tracker.refused",
            (before.counter(after, "tracker.announce.rate_limited")
                + before.counter(after, "tracker.announce.blacklisted")) as f64,
        ),
        (
            "tracker.probes",
            before.counters_with_prefix(after, "tracker.probe.") as f64,
        ),
        ("portal.busy_s", secs(l.portal)),
        (
            "faults.injected",
            before.counters_with_prefix(after, "faults.injected.") as f64,
        ),
        (
            "faults.breaker_deferred",
            before.counter(after, "crawler.query.breaker_deferred") as f64,
        ),
        (
            "faults.gaveup",
            before.counter(after, "crawler.query.gaveup") as f64,
        ),
        ("analysis.analyze_s", secs(l.analyze)),
        ("analysis.reduce_s", secs(l.reduce)),
        ("analysis.fold_s", secs(l.fold)),
        ("analysis.finish_s", secs(l.finish)),
        ("stream.channel_wait_s", secs(l.channel_wait)),
        ("stream.reorder_peak", l.reorder_peak as f64),
        ("stream.records", l.stream_records as f64),
        ("core.report_s", secs(l.report)),
    ]
}

/// Element-wise median of rows that share their names and order.
fn median_row(rows: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    (0..rows[0].len())
        .map(|i| {
            let mut v: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            (rows[0][i].0, median(&mut v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(profile: FaultProfile) -> Scenario {
        let mut s = Scenario::pb10(Scale::tiny());
        s.crawler.fault_profile = profile;
        s
    }

    fn traced_report(pipeline: Pipeline, s: &Scenario) -> String {
        let ledger = Ledger::new();
        let mut layers = Layers::default();
        match pipeline {
            Pipeline::Materialized => traced_materialized(s, &ledger, 0, &mut layers),
            Pipeline::Streamed => traced_streamed(s, &ledger, 0, &mut layers),
        }
    }

    #[test]
    fn traced_stream_replay_equals_stream_study_clean_and_flaky() {
        for profile in [FaultProfile::clean(), FaultProfile::flaky()] {
            let s = tiny(profile.clone());
            let expected = StreamStudy::run(&s, &StreamOptions::default()).full_report();
            assert_eq!(
                traced_report(Pipeline::Streamed, &s),
                expected,
                "profile {}",
                profile.name
            );
        }
    }

    #[test]
    fn traced_materialized_equals_untraced() {
        let s = tiny(FaultProfile::clean());
        assert_eq!(
            traced_report(Pipeline::Materialized, &s),
            report(Pipeline::Materialized, &s).0
        );
    }

    #[test]
    fn seed_zero_digests_are_the_reports_repro_prints() {
        // `repro`'s own per-scenario path (`run_scenario`: report data,
        // then the shared renderer) against both of the benchmark's paths
        // at seed 0, world 0: the untraced campaign and the traced one.
        let c = Campaign::repro_all(0).shrunk(SMOKE_DIVISOR);
        let paper = [
            Scenario::mn08(REPRO_ALL_SCALE),
            Scenario::pb09(REPRO_ALL_SCALE),
            Scenario::pb10(REPRO_ALL_SCALE),
        ];
        for (s, p) in c.worlds[0].iter().zip(paper) {
            assert_eq!(
                s.eco.seed, p.eco.seed,
                "seed 0 keeps the paper's scenario seed"
            );
            let study = Study::run(s);
            let printed = btpub::experiments::render_full_report(
                &study.analyze().experiments().report_data(),
            );
            let untraced = report(Pipeline::Materialized, s).0;
            assert_eq!(digest(&untraced), digest(&printed), "{}", s.name);
            let traced = traced_report(Pipeline::Materialized, s);
            assert_eq!(digest(&traced), digest(&printed), "{}", s.name);
        }
        // The other worlds are other worlds.
        assert_ne!(c.worlds[1][0].eco.seed, c.worlds[0][0].eco.seed);
        assert_ne!(c.worlds[2][0].eco.seed, c.worlds[1][0].eco.seed);
    }

    #[test]
    fn doctored_pin_fails_its_report() {
        let c = Campaign::stream_flaky(0).shrunk(SMOKE_DIVISOR);
        let mut expect = Expect::new(&[(0, "pb10", 0xDEAD_BEEF)]);
        let out = run(&c, &mut expect, Duration::ZERO, 0.0);
        assert!(!out.correct);
        // One campaign per world; only world 0's report is doctored.
        assert_eq!((out.ops, out.ops_failed), (WORLDS, 1));
    }
}
