//! The crawl loop's meters reach the registry exactly once each: after
//! `run_crawl` on a fixed tiny world, the registry has grown by exactly
//! the events dispatched, the queries sent and the announces served.
//!
//! The counts are literals pinned from a crawl that recorded every event
//! straight into the registry, so a fold that drops a batch or counts one
//! twice fails here, and so does a popped event past the horizon counted
//! as a tick. The test has a binary of its own so no other test's crawl
//! moves the global registry while it reads.

use btpub_crawler::{run_crawl, CrawlerConfig};
use btpub_sim::{Ecosystem, EcosystemConfig};

/// `(registry name, is a histogram)` of each pinned meter.
const METERS: [(&str, bool); 4] = [
    ("span.sim.engine.tick.ns", true),
    ("crawler.query.total", false),
    ("tracker.announce.total", false),
    ("tracker.announce.latency_ns", true),
];

fn read(name: &str, histogram: bool) -> u64 {
    if histogram {
        btpub_obs::histogram(name).count()
    } else {
        btpub_obs::counter(name).value()
    }
}

/// Registry growth of each of [`METERS`] over one `run_crawl`.
fn crawl_deltas(eco: &Ecosystem, cfg: &CrawlerConfig) -> [u64; 4] {
    let before = METERS.map(|(n, h)| read(n, h));
    run_crawl(eco, cfg);
    let after = METERS.map(|(n, h)| read(n, h));
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn crawl_meters_fold_into_the_registry_exactly_once() {
    let eco = Ecosystem::generate(EcosystemConfig::tiny(90));
    let clean = crawl_deltas(&eco, &CrawlerConfig::default());
    // Feed outages, dropped and corrupted announces, breaker deferrals,
    // and a horizon cut mid-campaign.
    let flaky = crawl_deltas(
        &eco,
        &CrawlerConfig {
            fault_profile: btpub_faults::FaultProfile::flaky(),
            horizon_secs: Some(9 * 86_400 + 1_234),
            ..CrawlerConfig::default()
        },
    );
    // Seven vantage points query each torrent every 7 × 128 s = 896 s,
    // inside the tracker's longest interval, so some announces are
    // rate-limited. Their retries are scheduled without a horizon check,
    // and at this cap one lands 2 s past it: the loop pops it and stops,
    // and that pop must not count as a tick.
    let rate_limited = crawl_deltas(
        &eco,
        &CrawlerConfig {
            vantage_points: 7,
            horizon_secs: Some(6 * 86_400 + 81_028),
            ..CrawlerConfig::default()
        },
    );
    // Order: tick spans, queries, announces, announce latencies.
    assert_eq!(clean, [190_606, 186_286, 186_286, 186_286], "clean crawl");
    assert_eq!(
        flaky,
        [43_334, 41_700, 41_700, 40_412],
        "flaky crawl, capped horizon"
    );
    assert_eq!(
        rate_limited,
        [52_506, 51_507, 51_507, 51_384],
        "rate-limited crawl, capped horizon"
    );
}
