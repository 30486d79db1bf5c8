//! The anti-poisoning story: antipiracy agencies and malware spreaders
//! run an index-poisoning attack; the §3.3 fake detector flags their
//! accounts from the streamed crawl, and the §7 "filter fake publishers"
//! feature protects downloaders.
//!
//! ```text
//! cargo run --release --example fake_detection
//! ```
//!
//! Exits nonzero when the detector's precision or recall falls to the
//! thresholds `tests/validation_ground_truth.rs` holds it to.

use std::collections::HashSet;

use btpub::portal::Portal;
use btpub::sim::{Ecosystem, Profile, SimTime, DAY};
use btpub::{Scale, Scenario, StreamOptions, StreamStudy};

/// Ground-truth downloads of fake torrents whose publisher is flagged:
/// the poisoned downloads a client using the filtered feed avoids.
fn downloads_saved(eco: &Ecosystem, flagged: &impl Fn(&str) -> bool) -> u64 {
    eco.publications
        .iter()
        .zip(&eco.swarms)
        .filter(|(p, _)| p.fake && flagged(&p.username))
        .map(|(_, s)| s.downloads() as u64)
        .sum()
}

fn main() {
    let scenario = Scenario::pb10(Scale::tiny());
    let opts = StreamOptions::default();
    let full = StreamStudy::run(&scenario, &opts);
    let eco = &full.eco;

    let fake_torrents = eco.publications.iter().filter(|p| p.fake).count();
    let fake_downloads = downloads_saved(eco, &|_| true);
    println!(
        "ecosystem: {} torrents, of which {} fake ({} poisoned downloads started)\n",
        eco.publications.len(),
        fake_torrents,
        fake_downloads
    );

    // Watch the detector converge. Each row is the campaign capped at
    // that day, as `btpub-monitor --days` caps it: a capped run observes
    // a strict prefix of the full campaign.
    println!("{:>4}  {:>9} {:>12} {:>16}", "day", "items", "flagged-fake", "downloads-saved");
    let horizon = eco.config.horizon();
    let row = |t: SimTime, study: &StreamStudy| {
        let flagged = &study.analyses.groups.fake_usernames;
        println!(
            "{:>4}  {:>9} {:>12} {:>16}",
            t.as_days() as u64,
            study.analyses.totals.torrents_total,
            flagged.len(),
            downloads_saved(eco, &|u| flagged.contains(u))
        );
    };
    for day in (5..).step_by(5) {
        let t = SimTime(day * DAY.0);
        if t >= horizon {
            break;
        }
        let mut capped = scenario.clone();
        capped.crawler.horizon_secs = Some(t.secs());
        row(t, &StreamStudy::run(&capped, &opts));
    }
    row(horizon, &full);

    // Scorecard: precision/recall of the username-level detector.
    let flagged = &full.analyses.groups.fake_usernames;
    let truth: HashSet<&str> = eco
        .publishers
        .iter()
        .filter(|p| p.profile == Profile::Fake)
        .flat_map(|p| p.usernames.iter().map(String::as_str))
        .chain(eco.compromised.iter().map(String::as_str))
        .collect();
    let active_fake: HashSet<&str> = eco
        .publications
        .iter()
        .filter(|p| p.fake)
        .map(|p| p.username.as_str())
        .collect();
    let true_positives = flagged.iter().filter(|u| truth.contains(u.as_str())).count();
    let precision = true_positives as f64 / flagged.len().max(1) as f64;
    let recall = active_fake.iter().filter(|u| flagged.contains(**u)).count() as f64
        / active_fake.len().max(1) as f64;
    println!(
        "\ndetector: {} usernames flagged, precision {precision:.2}, \
         recall over active fake accounts {recall:.2}",
        flagged.len()
    );

    // The §7 future-work feature, delivered: the filtered RSS view.
    let feed = Portal::new(eco).rss(SimTime::ZERO, horizon);
    let hidden = feed
        .iter()
        .filter(|item| flagged.contains(item.username))
        .count();
    println!(
        "filtered RSS: {} items -> {} ({hidden} poisoned listings hidden)",
        feed.len(),
        feed.len() - hidden
    );
    println!(
        "a client using the filter avoids {} fake downloads",
        downloads_saved(eco, &|u| flagged.contains(u))
    );

    assert!(precision > 0.95, "detector precision {precision:.2} <= 0.95");
    assert!(recall > 0.85, "detector recall {recall:.2} <= 0.85");
}
