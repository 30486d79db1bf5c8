//! The streaming study driver: crawl → bounded channel → record-at-a-time
//! aggregation, producing the exact report bytes of [`crate::Study`]
//! without ever materializing the campaign dataset.
//!
//! The crawl runs on a producer thread that emits each finalized
//! [`btpub_crawler::TorrentRecord`] through a [`btpub_stream::channel`]
//! as soon as its monitoring ends, so records arrive out of announcement
//! order. The consumer (this thread) reduces each one to a
//! [`btpub_analysis::streaming::RecordDigest`], holds digests in a
//! reorder buffer until their turn, and folds them in announcement order
//! into the [`btpub_analysis::streaming::StreamAggregator`] plus the V1
//! ground-truth tallies. That is the fold `Study::analyze` runs over a
//! materialized dataset, and [`crate::experiments::report_data`] builds
//! the report from it on both paths. Because the fold is single-threaded
//! and in announcement order, neither `--jobs` parallelism inside the
//! crawl nor the arrival order can reorder a single float operation: the
//! report is byte-identical to the materialized path at any job count
//! (asserted by `streaming_report_matches_materialized` below and by
//! `tests/golden_report.rs` at jobs 1 and 4, clean and hostile).
//!
//! # Checkpoint / resume
//!
//! With a [`CheckpointPolicy`] the consumer atomically snapshots its
//! entire fold state (aggregator, truth tallies, fold cursor) every
//! `every` folds via [`btpub_stream::checkpoint`]. A later run pointed at
//! the same directory restores that state and *replays* the crawl from
//! the top — the crawl itself cannot be fast-forwarded because
//! monitoring state (circuit breakers, rate limiters) spans torrents —
//! while the [`ChannelSink`] skips every record announced before the
//! restored cursor. Replayed records are regenerated by the same pure
//! `mix(seed, stream, index)` draws, so the records at and after the
//! cursor are bit-identical to the ones the interrupted run would have
//! folded, and the final report is byte-identical to an uninterrupted
//! run (proven process-level by `crates/bench/tests/crash_resume.rs`, at
//! jobs 1 and 4).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use btpub_analysis::stats::SKETCH_DEFAULT_BUDGET;
use btpub_analysis::streaming::{RecordDigest, StreamAggregator, StreamAnalyses, StreamConfig};
use btpub_crawler::{run_crawl_with, ChannelSink};
use btpub_sim::Ecosystem;
use btpub_stream::checkpoint::{self, CheckpointError, CheckpointHeader, Dec, Enc};
use btpub_stream::spill::{DistinctU32, DEFAULT_CHUNK_VALUES};

use crate::experiments::{render_full_report, report_data, TruthCounters};
use crate::scenario::Scenario;

/// Periodic checkpointing for a streaming run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding `checkpoint.ckpt`. Should be private to one
    /// scenario (the header refuses cross-scenario restores by name, but
    /// a shared directory means runs overwrite each other's progress).
    pub dir: PathBuf,
    /// Snapshot every `every` folds. `0` disables the periodic cadence:
    /// only the final graceful-shutdown checkpoint is written.
    pub every: u64,
}

/// Knobs for the streaming driver.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Directory for spill segments (the global distinct-IP set). `None`
    /// keeps everything in memory; an unwritable directory warns once and
    /// falls back to in-memory.
    pub spill_dir: Option<PathBuf>,
    /// Override for the spill chunk capacity (values per in-memory chunk
    /// before a sorted run is flushed). `None` uses
    /// [`DEFAULT_CHUNK_VALUES`]. Small values force spilling at tiny
    /// scales — the crash-injection tests use this to exercise the spill
    /// path without a 100× campaign.
    pub spill_chunk: Option<usize>,
    /// Periodic checkpointing. `None` runs checkpoint-free (the
    /// historical behaviour); an unwritable checkpoint directory warns
    /// once and also runs checkpoint-free.
    pub checkpoint: Option<CheckpointPolicy>,
}

/// How a streaming run ended.
// One short-lived value exists per campaign; boxing the study to shrink
// the enum would only complicate every caller.
#[allow(clippy::large_enum_variant)]
pub enum StreamOutcome {
    /// Ran to the campaign horizon; the checkpoint (if any) is cleared.
    Complete(StreamStudy),
    /// The observer requested a stop. A final checkpoint was flushed
    /// first (when a policy is active), so a later run resumes from
    /// exactly this cursor.
    Interrupted {
        /// Folds absorbed before stopping — the resume cursor.
        records_folded: u64,
    },
}

/// A completed streaming campaign: ground truth plus the aggregates —
/// but, unlike [`crate::Study`], never the materialized dataset.
pub struct StreamStudy {
    /// The scenario it ran.
    pub scenario: Scenario,
    /// The simulated world (validation + economics oracle, as in `Study`).
    pub eco: Ecosystem,
    /// Everything the analysis pipeline produced.
    pub analyses: StreamAnalyses,
    /// Per-record ground-truth tallies for V1, folded at ingest.
    pub truth: TruthCounters,
}

/// The identity fingerprint a checkpoint of this scenario must carry.
fn fingerprint(scenario: &Scenario, records_folded: u64) -> CheckpointHeader {
    CheckpointHeader {
        scenario: scenario.name.to_string(),
        seed: scenario.eco.seed,
        torrents: scenario.eco.torrents as u64,
        duration_secs: scenario.eco.duration.secs(),
        fault_profile: scenario.crawler.fault_profile.name.clone(),
        has_usernames: scenario.crawler.collect_usernames,
        single_query: scenario.crawler.single_query,
        top_k: scenario.top_k() as u64,
        horizon_cap_secs: scenario.crawler.horizon_secs.unwrap_or(u64::MAX),
        sketch_budget: SKETCH_DEFAULT_BUDGET as u64,
        records_folded,
    }
}

/// Snapshots the full consumer state. Everything the fold loop mutates is
/// here: the aggregator (including the distinct-IP spill manifest and
/// chunk), the truth tallies, and — in the header — the fold cursor.
fn flush_checkpoint(
    dir: &Path,
    header: &CheckpointHeader,
    agg: &StreamAggregator,
    truth: &TruthCounters,
) -> Result<(), CheckpointError> {
    btpub_faults::crash_point("stream.checkpoint");
    let mut enc = Enc::new();
    agg.encode_state(&mut enc);
    enc.usize(truth.identified);
    enc.usize(truth.correct);
    enc.u64(truth.observed_downloads);
    checkpoint::save(dir, header, &enc.into_bytes())?;
    btpub_obs::counter("stream.checkpoint.saved").add(1);
    Ok(())
}

impl StreamStudy {
    /// Generates the ecosystem and runs the crawl + aggregation as a
    /// producer/consumer pair over a bounded channel. Deterministic in
    /// the scenario, and byte-equivalent to `Study::run` + `analyze` +
    /// `full_report` at any job count.
    ///
    /// Panics on checkpoint errors (corrupt or mismatched checkpoint,
    /// unwritable snapshot mid-run); use [`Self::try_run`] to handle
    /// them.
    pub fn run(scenario: &Scenario, opts: &StreamOptions) -> StreamStudy {
        let eco = Ecosystem::generate(scenario.eco.clone());
        Self::run_on(scenario, eco, opts)
    }

    /// [`Self::run`] over an already-generated world — the entry point
    /// the memory test `tests/stream_memory.rs` uses so world generation
    /// (whose memory scales with the campaign by construction) stays out
    /// of the crawl+analysis peak-bytes measurement.
    pub fn run_on(scenario: &Scenario, eco: Ecosystem, opts: &StreamOptions) -> StreamStudy {
        match Self::try_run_on(scenario, eco, opts) {
            Ok(StreamOutcome::Complete(study)) => study,
            Ok(StreamOutcome::Interrupted { .. }) => {
                unreachable!("no observer requested interruption")
            }
            Err(e) => panic!("streaming checkpoint error: {e}"),
        }
    }

    /// Fallible [`Self::run`].
    pub fn try_run(
        scenario: &Scenario,
        opts: &StreamOptions,
    ) -> Result<StreamOutcome, CheckpointError> {
        let eco = Ecosystem::generate(scenario.eco.clone());
        Self::try_run_on(scenario, eco, opts)
    }

    /// Fallible [`Self::run_on`]. Never returns `Interrupted` (there is
    /// no observer to request a stop).
    pub fn try_run_on(
        scenario: &Scenario,
        eco: Ecosystem,
        opts: &StreamOptions,
    ) -> Result<StreamOutcome, CheckpointError> {
        Self::try_run_observed(scenario, eco, opts, |_| ControlFlow::Continue(()))
    }

    /// The full driver: runs the crawl + fold loop, calling `observer`
    /// after every fold. `Break` requests a graceful stop: a final
    /// checkpoint is flushed (when a policy is active), the crawl is
    /// cancelled, and the run returns [`StreamOutcome::Interrupted`] —
    /// `btpub-monitor` uses this to turn SIGTERM into "lose at most one
    /// checkpoint interval".
    pub fn try_run_observed(
        scenario: &Scenario,
        eco: Ecosystem,
        opts: &StreamOptions,
        mut observer: impl FnMut(&RecordDigest) -> ControlFlow<()>,
    ) -> Result<StreamOutcome, CheckpointError> {
        let _span = btpub_obs::span!("study.run_streamed");
        let chunk_cap = opts.spill_chunk.unwrap_or(DEFAULT_CHUNK_VALUES);
        let spill = opts.spill_dir.as_deref().map(|d| (d, chunk_cap));
        // An unwritable checkpoint dir degrades to checkpoint-free, same
        // as the spill-dir fallback: long campaigns should run, not die,
        // when the scratch volume is misconfigured.
        let policy = opts
            .checkpoint
            .as_ref()
            .filter(|p| checkpoint::probe_dir(&p.dir));

        let cfg = StreamConfig {
            has_usernames: scenario.crawler.collect_usernames,
            top_k: scenario.top_k(),
        };
        let restored = match policy {
            Some(p) => checkpoint::load(&p.dir)?,
            None => None,
        };
        let (mut agg, mut truth, cursor) = match restored {
            Some((header, payload)) => {
                header.ensure_matches(&fingerprint(scenario, 0))?;
                let mut dec = Dec::new(&payload);
                let agg = StreamAggregator::decode_state(cfg, &eco.world.db, spill, &mut dec)?;
                let truth = TruthCounters {
                    identified: dec.usize()?,
                    correct: dec.usize()?,
                    observed_downloads: dec.u64()?,
                };
                let cursor = header.records_folded as usize;
                btpub_obs::counter("stream.checkpoint.resumed").add(1);
                btpub_obs::info!(
                    "resuming {} from checkpoint: {} records already folded",
                    scenario.name,
                    cursor
                );
                (agg, truth, cursor)
            }
            None => {
                let distinct = match spill {
                    Some((dir, cap)) => DistinctU32::with_spill_dir(dir, cap),
                    None => DistinctU32::in_memory(),
                };
                let agg = StreamAggregator::new(cfg, &eco.world.db, distinct);
                (agg, TruthCounters::default(), 0)
            }
        };

        let (tx, rx) = btpub_stream::channel::bounded(btpub_stream::channel::DEFAULT_CAPACITY);
        let (interrupted, folded) =
            std::thread::scope(|scope| -> Result<(bool, u64), CheckpointError> {
                let eco_ref = &eco;
                let crawler_cfg = &scenario.crawler;
                let mut sink = ChannelSink::new(tx).with_resume_cursor(cursor);
                let cancel = sink.cancel_flag();
                scope.spawn(move || {
                    run_crawl_with(eco_ref, crawler_cfg, &mut sink);
                });
                // Records arrive the moment each torrent's monitoring
                // ends — *out of announcement order* (an unordered
                // `ChannelSink`), so a long-lived early torrent cannot
                // force the crawler to re-materialize the campaign behind
                // it (head-of-line blocking). Each record is reduced to a
                // digest on arrival (pure per-record function); only
                // digests — sightings already consumed — wait in the
                // reorder buffer for their announcement turn, and the
                // order-sensitive fold runs exactly as `Study::analyze`
                // runs it over a dataset. Truth tallies fold *with* the
                // digest, not at arrival: a checkpoint taken at fold `n`
                // must hold the truth contributions of exactly the first
                // `n` records, or a resumed run would double-count the
                // digests that were pending when the snapshot was taken.
                let mut pending: BTreeMap<usize, RecordDigest> = BTreeMap::new();
                let mut next_fold = cursor;
                let mut run = |pending: &mut BTreeMap<usize, RecordDigest>,
                           next_fold: &mut usize,
                           agg: &mut StreamAggregator,
                           truth: &mut TruthCounters|
                 -> Result<bool, CheckpointError> {
                    let mut chunk = Vec::with_capacity(btpub_stream::channel::DEFAULT_CHUNK);
                    while rx.recv_chunk(&mut chunk, btpub_stream::channel::DEFAULT_CHUNK) > 0 {
                        for (idx, rec) in chunk.drain(..) {
                            let digest = RecordDigest::reduce(rec);
                            if idx != *next_fold {
                                pending.insert(idx, digest);
                                continue;
                            }
                            let mut d = digest;
                            loop {
                                btpub_faults::crash_point("stream.fold");
                                truth.observe(&d.rec, eco_ref);
                                agg.fold(&d);
                                *next_fold += 1;
                                // The cadence keys off the deterministic
                                // fold cursor, never off wall-clock or
                                // chunk boundaries: which snapshots exist
                                // is itself reproducible.
                                if let Some(p) = policy {
                                    if p.every > 0 && (*next_fold as u64).is_multiple_of(p.every) {
                                        flush_checkpoint(
                                            &p.dir,
                                            &fingerprint(scenario, *next_fold as u64),
                                            agg,
                                            truth,
                                        )?;
                                    }
                                }
                                if observer(&d).is_break() {
                                    if let Some(p) = policy {
                                        flush_checkpoint(
                                            &p.dir,
                                            &fingerprint(scenario, *next_fold as u64),
                                            agg,
                                            truth,
                                        )?;
                                    }
                                    return Ok(true);
                                }
                                match pending.remove(&*next_fold) {
                                    Some(next) => d = next,
                                    None => break,
                                }
                            }
                        }
                    }
                    Ok(false)
                };
                let outcome = run(&mut pending, &mut next_fold, &mut agg, &mut truth);
                // Whatever happened — completion, graceful stop, or a
                // checkpoint error — stop the producer: flip the cancel
                // flag (polled at the event-loop head) and drop the
                // receiver so a producer blocked on a full channel wakes
                // immediately.
                cancel.store(true, Ordering::Relaxed);
                drop(rx);
                if let Ok(false) = outcome {
                    debug_assert!(pending.is_empty(), "digest reorder buffer fully drained");
                }
                outcome.map(|stop| (stop, next_fold as u64))
            })?;

        if interrupted {
            return Ok(StreamOutcome::Interrupted {
                records_folded: folded,
            });
        }
        if let Some(p) = policy {
            checkpoint::clear(&p.dir);
        }
        let analyses = agg.finish();
        Ok(StreamOutcome::Complete(StreamStudy {
            scenario: scenario.clone(),
            eco,
            analyses,
            truth,
        }))
    }

    /// Renders the full side-by-side report (byte-identical to the
    /// materialized `Experiments::full_report`).
    pub fn full_report(&self) -> String {
        render_full_report(&report_data(
            &self.scenario,
            &self.eco,
            &self.analyses,
            &self.truth,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Scenario, Study};

    fn assert_stream_matches(scenario: &Scenario) {
        let materialized = Study::run(scenario);
        let expected = materialized.analyze().experiments().full_report();
        let streamed = StreamStudy::run(scenario, &StreamOptions::default());
        let got = streamed.full_report();
        assert_eq!(
            got, expected,
            "streaming report diverged from materialized for {}",
            scenario.name
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("btpub-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streaming_report_matches_materialized() {
        assert_stream_matches(&Scenario::pb10(Scale::tiny()));
    }

    #[test]
    fn streaming_report_matches_materialized_no_usernames() {
        assert_stream_matches(&Scenario::mn08(Scale::tiny()));
    }

    #[test]
    fn streaming_report_matches_under_faults() {
        let mut scenario = Scenario::pb10(Scale::tiny());
        scenario.crawler.fault_profile = btpub_faults::FaultProfile::by_name("hostile").unwrap();
        assert_stream_matches(&scenario);
    }

    #[test]
    fn streaming_with_spill_dir_matches_in_memory() {
        let scenario = Scenario::pb10(Scale::tiny());
        let dir = temp_dir("spill");
        let spilled = StreamStudy::run(
            &scenario,
            &StreamOptions {
                spill_dir: Some(dir.clone()),
                ..StreamOptions::default()
            },
        );
        let in_mem = StreamStudy::run(&scenario, &StreamOptions::default());
        assert_eq!(spilled.full_report(), in_mem.full_report());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_matches_and_clears_on_completion() {
        let scenario = Scenario::pb10(Scale::tiny());
        let dir = temp_dir("ckpt-clean");
        let with_ckpt = StreamStudy::run(
            &scenario,
            &StreamOptions {
                checkpoint: Some(CheckpointPolicy {
                    dir: dir.clone(),
                    every: 7,
                }),
                ..StreamOptions::default()
            },
        );
        let plain = StreamStudy::run(&scenario, &StreamOptions::default());
        assert_eq!(with_ckpt.full_report(), plain.full_report());
        assert!(
            !dir.join(checkpoint::CHECKPOINT_FILE).exists(),
            "completed run must clear its checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted() {
        let scenario = Scenario::pb10(Scale::tiny());
        let dir = temp_dir("ckpt-resume");
        let opts = StreamOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 16,
            }),
            ..StreamOptions::default()
        };
        let mut folds = 0usize;
        let outcome = StreamStudy::try_run_observed(
            &scenario,
            Ecosystem::generate(scenario.eco.clone()),
            &opts,
            |_| {
                folds += 1;
                if folds == 37 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        let StreamOutcome::Interrupted { records_folded } = outcome else {
            panic!("observer break must interrupt the run");
        };
        assert_eq!(records_folded, 37);
        assert!(dir.join(checkpoint::CHECKPOINT_FILE).exists());

        let resumed = match StreamStudy::try_run(&scenario, &opts).unwrap() {
            StreamOutcome::Complete(study) => study,
            StreamOutcome::Interrupted { .. } => unreachable!(),
        };
        let uninterrupted = StreamStudy::run(&scenario, &StreamOptions::default());
        assert_eq!(
            resumed.full_report(),
            uninterrupted.full_report(),
            "resume changed report bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_checkpoint_is_refused_by_name() {
        let scenario = Scenario::pb10(Scale::tiny());
        let dir = temp_dir("ckpt-mismatch");
        let opts = StreamOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.clone(),
                every: 0,
            }),
            ..StreamOptions::default()
        };
        let mut folds = 0usize;
        let outcome = StreamStudy::try_run_observed(
            &scenario,
            Ecosystem::generate(scenario.eco.clone()),
            &opts,
            |_| {
                folds += 1;
                if folds == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert!(matches!(outcome, StreamOutcome::Interrupted { .. }));

        let mut other = Scenario::pb10(Scale::tiny());
        other.eco.seed ^= 1;
        let Err(err) = StreamStudy::try_run(&other, &opts) else {
            panic!("mismatched checkpoint must be refused");
        };
        match err {
            CheckpointError::Mismatch { field, .. } => assert_eq!(field, "seed"),
            other => panic!("expected seed mismatch, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
