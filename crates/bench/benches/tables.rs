//! One Criterion group per paper *table*.
//!
//! * `t1_dataset` — building a Table 1 row: ecosystem generation + crawl
//!   (the full measurement pipeline) at micro scale, plus dataset
//!   counters at tiny scale.
//! * `t2_isp_ranking` — Table 2's ISP ranking over the folded ISP
//!   aggregate.
//! * `t3_footprint` — Table 3's per-ISP footprint extraction from it.
//! * `t4_longitudinal` — Table 4 from portal user pages.
//! * `t5_economics` — Table 5 via the six-monitor oracle.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use btpub::{Scale, Scenario, Study};
use btpub_analysis::economics::{economics_rows, site_reports};
use btpub_analysis::longitudinal::longitudinal_rows;
use btpub_bench::tiny_study;
use btpub_portal::Portal;

fn t1_dataset(c: &mut Criterion) {
    let mut g = c.benchmark_group("t1_dataset");
    // The full pipeline, micro scale: this is the headline cost number.
    g.sample_size(10);
    g.bench_function("generate_and_crawl_micro", |b| {
        b.iter(|| {
            let mut scenario = Scenario::pb10(Scale {
                torrents: 0.002,
                downloads: 0.02,
                majors: 0.1,
            });
            scenario.eco.regular_publishers = 40;
            let study = Study::run(black_box(&scenario));
            black_box(study.dataset.torrent_count())
        })
    });
    let study = tiny_study();
    g.bench_function("dataset_counters", |b| {
        b.iter(|| {
            (
                black_box(study.dataset.torrent_count()),
                black_box(study.dataset.ip_identified_count()),
                black_box(study.dataset.distinct_ip_count()),
            )
        })
    });
    g.finish();
}

fn t2_isp_ranking(c: &mut Criterion) {
    let study = tiny_study();
    let isp = study.analyze().analyses.isp;
    c.bench_function("t2_isp_ranking/top10", |b| {
        b.iter(|| black_box(isp.top_isps(&study.eco.world.db, 10)))
    });
}

fn t3_footprint(c: &mut Criterion) {
    let study = tiny_study();
    let isp = study.analyze().analyses.isp;
    let mut g = c.benchmark_group("t3_footprint");
    for name in ["OVH", "Comcast"] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(isp.footprint(&study.eco.world.db, name)))
        });
    }
    g.finish();
}

fn t4_longitudinal(c: &mut Criterion) {
    let study = tiny_study();
    let classified = study.analyze().analyses.classified;
    let portal = Portal::new(&study.eco);
    c.bench_function("t4_longitudinal/rows", |b| {
        b.iter(|| {
            black_box(longitudinal_rows(
                &portal,
                &classified,
                study.eco.config.horizon(),
            ))
        })
    });
}

fn t5_economics(c: &mut Criterion) {
    let study = tiny_study();
    let classified = study.analyze().analyses.classified;
    c.bench_function("t5_economics/rows", |b| {
        b.iter(|| {
            let reports = site_reports(&study.eco, &classified, 1.0);
            black_box(economics_rows(&classified, &reports))
        })
    });
}

criterion_group!(
    tables,
    t1_dataset,
    t2_isp_ranking,
    t3_footprint,
    t4_longitudinal,
    t5_economics
);
criterion_main!(tables);
