//! Validation against simulation ground truth — the checks the paper's
//! authors could not run because they had no oracle. If these hold, the
//! measurement machinery (crawler + Appendix A estimation + detection)
//! demonstrably recovers the truth from samples.

use std::collections::HashSet;
use std::hash::BuildHasher;

use btpub::sim::content::Category;
use btpub::sim::Ecosystem;
use btpub::{Scale, Scenario, StreamOptions, StreamStudy, Study};

fn study() -> &'static Study {
    static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| Study::run(&Scenario::pb10(Scale::small())))
}

#[test]
fn identification_has_high_precision_and_known_failure_modes() {
    let r = study().analyze().experiments().report_data();
    let v1 = r.v1;
    assert!(
        v1.ip_precision > 0.9,
        "identified IPs wrong too often: {:.2}",
        v1.ip_precision
    );
    // The paper identified IPs for ~40 % of files.
    assert!(
        (0.15..=0.7).contains(&v1.ip_identified_frac),
        "identified fraction {:.2}",
        v1.ip_identified_frac
    );
    // Every unidentified torrent has a recorded cause.
    let ds = &study().dataset;
    let unexplained = ds
        .torrents
        .iter()
        .filter(|t| t.publisher_ip.is_none() && t.ip_failure.is_none())
        .count();
    assert_eq!(unexplained, 0, "all failures must carry a reason");
}

#[test]
fn session_estimation_matches_ground_truth_for_top_publishers() {
    let r = study().analyze().experiments().report_data();
    let v1 = r.v1;
    assert!(
        v1.session_error_median < 0.30,
        "median session estimation error {:.2}",
        v1.session_error_median
    );
}

#[test]
fn crawler_observes_most_download_activity() {
    let r = study().analyze().experiments().report_data();
    let v1 = r.v1;
    assert!(
        v1.download_coverage > 0.3,
        "download coverage {:.2}",
        v1.download_coverage
    );
}

#[test]
fn multi_seeded_fake_swarms_defeat_identification() {
    // Ground truth: torrents seeded from several entity servers at once
    // must (almost) never get an identified IP — the mechanism that keeps
    // fake publishers underrepresented in Table 2, as in the paper.
    let study = study();
    let mut multi = 0usize;
    let mut multi_identified = 0usize;
    for rec in &study.dataset.torrents {
        let truth = &study.eco.publications[rec.torrent.0 as usize];
        if truth.seeder_count > 1 {
            multi += 1;
            multi_identified += usize::from(rec.publisher_ip.is_some());
        }
    }
    assert!(multi > 0);
    assert!(
        (multi_identified as f64) < (multi as f64) * 0.10,
        "{multi_identified}/{multi} multi-seeded torrents identified"
    );
}

/// The §3.3 fake detector against ground truth: precision over the
/// flagged usernames, recall over the accounts that published fakes.
fn assert_fake_detector_holds<S: BuildHasher>(eco: &Ecosystem, flagged: &HashSet<String, S>) {
    let truth: HashSet<&str> = eco
        .publishers
        .iter()
        .filter(|p| p.profile == btpub::sim::Profile::Fake)
        .flat_map(|p| p.usernames.iter().map(String::as_str))
        .chain(eco.compromised.iter().map(String::as_str))
        .collect();
    let active_fake: HashSet<&str> = eco
        .publications
        .iter()
        .filter(|p| p.fake)
        .map(|p| p.username.as_str())
        .collect();
    assert!(!flagged.is_empty());
    let correct = flagged.iter().filter(|u| truth.contains(u.as_str())).count();
    let precision = correct as f64 / flagged.len() as f64;
    let recall = active_fake.iter().filter(|u| flagged.contains(**u)).count() as f64
        / active_fake.len() as f64;
    assert!(precision > 0.95, "precision {precision:.2}");
    assert!(recall > 0.85, "recall {recall:.2}");
}

#[test]
fn fake_detector_precision_and_recall() {
    let study = study();
    assert_fake_detector_holds(&study.eco, &study.analyze().analyses.groups.fake_usernames);
}

/// The detector as `btpub-monitor` runs it: on the streamed aggregates
/// of the tiny pb10 campaign (`examples/fake_detection.rs`).
#[test]
fn streamed_fake_detector_precision_and_recall() {
    let study = StreamStudy::run(&Scenario::pb10(Scale::tiny()), &StreamOptions::default());
    assert_fake_detector_holds(&study.eco, &study.analyses.groups.fake_usernames);
    // The §7 query interface (`examples/monitor_daemon.rs`) answers from
    // the same aggregates: publishers with e-books, and profit-driven
    // publishers with a page to show.
    let s = &study.analyses;
    assert!(s.publishers.iter().any(|p| p
        .torrents
        .iter()
        .any(|&t| s.categories[t] == Category::Books)));
    assert!(s
        .classified
        .iter()
        .any(|c| c.url.is_some() && c.class.is_profit_driven()));
}

#[test]
fn observed_popularity_correlates_with_ground_truth() {
    // Spearman-ish check: per-torrent observed downloaders must rank
    // swarms like the true download counts do.
    let study = study();
    let mut pairs: Vec<(usize, usize)> = study
        .dataset
        .torrents
        .iter()
        .map(|rec| {
            (
                study.eco.swarms[rec.torrent.0 as usize].downloads(),
                rec.observed_downloaders(),
            )
        })
        .filter(|&(truth, _)| truth >= 5)
        .collect();
    assert!(pairs.len() > 50);
    pairs.sort_by_key(|&(truth, _)| truth);
    let n = pairs.len();
    let bottom: f64 = pairs[..n / 4].iter().map(|&(_, o)| o as f64).sum::<f64>() / (n / 4) as f64;
    let top: f64 = pairs[3 * n / 4..].iter().map(|&(_, o)| o as f64).sum::<f64>()
        / (n - 3 * n / 4) as f64;
    assert!(
        top > bottom * 2.0,
        "observed popularity not ranking: top quartile {top:.1} vs bottom {bottom:.1}"
    );
}

#[test]
fn cross_posted_swarms_mostly_fail_identification() {
    let study = study();
    let mut cross = 0usize;
    let mut cross_identified = 0usize;
    for rec in &study.dataset.torrents {
        let truth = &study.eco.publications[rec.torrent.0 as usize];
        if truth.cross_posted {
            cross += 1;
            cross_identified += usize::from(rec.publisher_ip.is_some());
        }
    }
    assert!(cross > 10);
    let frac = cross_identified as f64 / cross as f64;
    // "swarms that have a large number of peers shortly after they are
    // added to the portal … we could not identify the initial publisher's
    // IP address". Small cross-posted swarms can still be identified, so
    // the fraction is low but non-zero.
    assert!(frac < 0.5, "cross-posted identified fraction {frac:.2}");
}
