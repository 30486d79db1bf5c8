//! Quickstart: build a small BitTorrent ecosystem, run the paper's
//! measurement campaign against it, and print the top publishers with
//! their ISPs and business classes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use btpub::analysis::isp::dominant_isp;
use btpub::{Scale, Scenario, Study};

fn main() {
    // A miniature Pirate Bay 2010 campaign: ~380 torrents over 30
    // simulated days.
    let scenario = Scenario::pb10(Scale::tiny());
    println!(
        "running {} campaign: {} torrents over {:.0} days...",
        scenario.name,
        scenario.eco.torrents,
        scenario.eco.duration.as_days()
    );
    let study = Study::run(&scenario);
    println!(
        "crawled {} torrents; publisher IP identified for {} ({}%); {} distinct downloader IPs\n",
        study.dataset.torrent_count(),
        study.dataset.ip_identified_count(),
        study.dataset.ip_identified_count() * 100 / study.dataset.torrent_count().max(1),
        study.dataset.distinct_ip_count(),
    );

    let analyses = study.analyze();
    let a = &analyses.analyses;
    let db = &study.eco.world.db;
    println!("top 10 publishers by published content:");
    println!(
        "{:<22} {:>7} {:>9}  {:<26} class",
        "username", "files", "downloads", "ISP"
    );
    for p in a.publishers.iter().take(10) {
        let isp = dominant_isp(p, db)
            .map(|i| format!("{} ({})", db.isp(i).name, db.isp(i).kind))
            .unwrap_or_else(|| "unknown (no IP identified)".into());
        let class = a
            .classified
            .iter()
            .find(|c| c.key == p.key)
            .map(|c| c.class.label())
            .unwrap_or(if a.groups.contains(&p.key, btpub::analysis::fake::Group::Fake) {
                "FAKE"
            } else {
                "-"
            });
        println!(
            "{:<22} {:>7} {:>9}  {:<26} {}",
            p.key.to_string(),
            p.content_count(),
            p.downloads,
            isp,
            class
        );
    }

    // The paper's headline: a handful of publishers dominate everything.
    let report = analyses.experiments().report_data();
    let f1 = &report.f1;
    println!(
        "\nthe top {} publishers account for {:.0}% of content and {:.0}% of downloads",
        f1.top_k,
        f1.top_k_shares.0 * 100.0,
        f1.top_k_shares.1 * 100.0
    );
    let s33 = &report.s33;
    println!(
        "fake publishers: {} usernames from {} server IPs — {:.0}% of content, {:.0}% of downloads",
        s33.fake_usernames,
        s33.fake_ips,
        s33.fake_shares.0 * 100.0,
        s33.fake_shares.1 * 100.0
    );
}
