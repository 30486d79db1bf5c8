//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * `ablation_estimator` — Appendix A sensitivity: session-estimation
//!   accuracy/cost as the tracker sample size W varies (20/50/200).
//! * `ablation_threshold` — the 2 h / 4 h / 6 h offline-threshold
//!   robustness computation: the analysis fold, which estimates every
//!   identified torrent's sessions at all three thresholds.
//! * `ablation_swarm_model` — trace-driven swarm queries vs the naive
//!   full-scan alternative, across swarm sizes (the hybrid trace/event
//!   design's justification).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use btpub_analysis::session::{capture_probability, estimate_sessions, queries_needed};
use btpub_bench::tiny_study;
use btpub_sim::intervals::IntervalSet;
use btpub_sim::publisher::PublisherId;
use btpub_sim::swarm::{PeerRecord, SwarmTrace};
use btpub_sim::{SimDuration, SimTime};

fn estimator_sensitivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_estimator");
    for w in [20u32, 50, 200] {
        g.bench_with_input(BenchmarkId::new("queries_needed", w), &w, |b, &w| {
            b.iter(|| black_box(queries_needed(w, 165.max(w), 0.99)))
        });
        g.bench_with_input(BenchmarkId::new("capture_curve", w), &w, |b, &w| {
            b.iter(|| {
                let n = 200u32;
                let mut total = 0.0;
                for m in 1..=20 {
                    total += capture_probability(w, n, m);
                }
                black_box(total)
            })
        });
    }
    // Estimation itself over a long sighting series.
    let sightings: Vec<SimTime> = (0..2000u64).map(|i| SimTime(i * 900)).collect();
    g.bench_function("estimate_2000_sightings", |b| {
        b.iter(|| {
            black_box(estimate_sessions(
                &sightings,
                SimDuration::from_hours(4.0),
                SimDuration(450),
            ))
        })
    });
    g.finish();
}

fn threshold_robustness(c: &mut Criterion) {
    let study = tiny_study();
    let mut g = c.benchmark_group("ablation_threshold");
    g.sample_size(10);
    // One fold serves all three thresholds; its cost next to a single
    // threshold's is the point: robustness checks are cheap.
    g.bench_function("fold_2h_4h_6h", |b| {
        b.iter(|| black_box(study.analyze().analyses.totals))
    });
    g.finish();
}

fn make_swarm(peers: usize) -> SwarmTrace {
    let records: Vec<PeerRecord> = (0..peers as u32)
        .map(|i| {
            let arrival = SimTime(u64::from(i) * 37 % 800_000);
            PeerRecord {
                ip: i,
                arrival,
                completed: Some(arrival + SimDuration(3600)),
                departure: arrival + SimDuration(7200),
                natted: i % 3 == 0,
                abort_progress: 1.0,
            }
        })
        .collect();
    SwarmTrace::new(
        PublisherId(0),
        0,
        SimTime(0),
        SimTime(0),
        IntervalSet::from_raw([(SimTime(0), SimTime(900_000))]),
        None,
        records,
    )
}

fn swarm_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_swarm_model");
    for peers in [1_000usize, 10_000, 100_000] {
        let swarm = make_swarm(peers);
        let t = SimTime(400_000);
        g.bench_with_input(
            BenchmarkId::new("indexed_counts", peers),
            &peers,
            |b, _| b.iter(|| black_box((swarm.active_count(t), swarm.seeder_count(t)))),
        );
        g.bench_with_input(BenchmarkId::new("naive_scan", peers), &peers, |b, _| {
            b.iter(|| {
                let active = swarm.peers().iter().filter(|p| p.active(t)).count();
                let seeding = swarm.peers().iter().filter(|p| p.seeding(t)).count();
                black_box((active, seeding))
            })
        });
        let mut rng = btpub_sim::rngs::derive(1, "ablate", peers as u64);
        g.bench_with_input(BenchmarkId::new("sample_200", peers), &peers, |b, _| {
            b.iter(|| black_box(swarm.sample_active(t, 200, &mut rng).len()))
        });
    }
    g.finish();
}

criterion_group!(ablation, estimator_sensitivity, threshold_robustness, swarm_model);
criterion_main!(ablation);
