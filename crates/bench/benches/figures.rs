//! One Criterion group per paper *figure*.
//!
//! * `f1_skewness` — the contribution CDF over all publishers.
//! * `f2_content_types` — category distributions per group.
//! * `f3_popularity` — per-group popularity boxes.
//! * `f4_seeding` — the three seeding boxes over the per-publisher
//!   metrics the analysis fold accumulated (session estimation itself
//!   runs inside the fold; `ablation_threshold` times that).
//!
//! Every group reads the aggregates of one `Study::analyze` fold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use btpub_analysis::content_type::category_distribution;
use btpub_analysis::fake::Group;
use btpub_analysis::popularity::popularity_box;
use btpub_analysis::seeding::group_seeding_boxes;
use btpub_analysis::skewness::contribution_cdf;
use btpub_analysis::streaming::DEFAULT_THRESHOLD_IDX;
use btpub_bench::tiny_study;

fn f1_skewness(c: &mut Criterion) {
    let analyses = tiny_study().analyze().analyses;
    c.bench_function("f1_skewness/cdf", |b| {
        b.iter(|| black_box(contribution_cdf(&analyses.publishers)))
    });
}

fn f2_content_types(c: &mut Criterion) {
    let analyses = tiny_study().analyze().analyses;
    let mut g = c.benchmark_group("f2_content_types");
    for group in Group::ALL {
        g.bench_function(group.label(), |b| {
            b.iter(|| {
                black_box(category_distribution(
                    &analyses.categories,
                    &analyses.publishers,
                    &analyses.groups,
                    group,
                ))
            })
        });
    }
    g.finish();
}

fn f3_popularity(c: &mut Criterion) {
    let analyses = tiny_study().analyze().analyses;
    let mut g = c.benchmark_group("f3_popularity");
    for group in [Group::All, Group::Top, Group::Fake] {
        g.bench_function(group.label(), |b| {
            b.iter(|| {
                black_box(popularity_box(
                    &analyses.publishers,
                    &analyses.groups,
                    group,
                    7,
                ))
            })
        });
    }
    g.finish();
}

fn f4_seeding(c: &mut Criterion) {
    let a = tiny_study().analyze().analyses;
    let mut g = c.benchmark_group("f4_seeding");
    g.sample_size(20);
    g.bench_function("Top", |b| {
        b.iter(|| {
            black_box(group_seeding_boxes(&a.publishers, &a.groups, Group::Top, 7, |p| {
                a.seeding_of(&p.key, DEFAULT_THRESHOLD_IDX)
            }))
        })
    });
    g.bench_function("Fake", |b| {
        b.iter(|| {
            black_box(group_seeding_boxes(&a.fake_entities, &a.groups, Group::Fake, 7, |p| {
                a.fake_seeding_of(&p.key)
            }))
        })
    });
    g.finish();
}

criterion_group!(figures, f1_skewness, f2_content_types, f3_popularity, f4_seeding);
criterion_main!(figures);
