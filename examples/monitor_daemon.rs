//! The §7 application as a long-running daemon: continuous monitoring of
//! a live portal, with the query interface a web front-end would call,
//! answered from the streamed aggregates `btpub-monitor` keeps.
//!
//! ```text
//! cargo run --release --example monitor_daemon
//! ```
//!
//! `btpub-monitor --json PATH` is the daemon's persistence path: one
//! NDJSON line per monitored item.

use std::net::Ipv4Addr;

use btpub::analysis::fake::Group;
use btpub::sim::content::Category;
use btpub::{Scale, Scenario, StreamOptions, StreamStudy};

fn main() {
    let scenario = Scenario::pb10(Scale::tiny());
    // The daemon's main loop: the crawl follows the feed and folds each
    // finished item into the publisher database as it goes.
    let study = StreamStudy::run(&scenario, &StreamOptions::default());
    let s = &study.analyses;
    let is_fake = |p: &&btpub::analysis::PublisherStats| {
        s.groups.contains(&p.key, Group::Fake)
    };
    println!(
        "monitored {:.0} days: {} items, {} publishers ({} flagged fake)\n",
        scenario.crawler.effective_horizon(&study.eco).as_days(),
        s.totals.torrents_total,
        s.publishers.len(),
        s.publishers.iter().filter(is_fake).count()
    );

    // Query 1 (the paper's own example): an e-books consumer finds the
    // publishers responsible for large numbers of e-books.
    println!("top e-book publishers:");
    let mut books: Vec<(String, usize)> = s
        .publishers
        .iter()
        .map(|p| {
            let count = p
                .torrents
                .iter()
                .filter(|&&t| s.categories[t] == Category::Books)
                .count();
            (p.key.to_string(), count)
        })
        .filter(|(_, count)| *count > 0)
        .collect();
    books.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (user, count) in books.into_iter().take(5) {
        println!("  {user:<22} {count} books");
    }

    // Query 2: per-publisher pages for profit-driven publishers, from
    // the §5.1 classification of the top set.
    println!("\nprofit-driven publisher pages:");
    for c in s
        .classified
        .iter()
        .filter(|c| c.url.is_some() && c.class.is_profit_driven())
        .take(8)
    {
        let page = s.publishers.iter().find(|p| p.key == c.key);
        println!(
            "  {:<22} {:<15} {} ({} items, {} IPs)",
            c.key.to_string(),
            c.class.label(),
            c.url.as_deref().unwrap_or("-"),
            page.map_or(0, |p| p.content_count()),
            page.map_or(0, |p| p.ips.len())
        );
    }

    // Query 3: who publishes from OVH?
    let db = &study.eco.world.db;
    let ovh = s
        .publishers
        .iter()
        .filter(|p| {
            p.ips.iter().any(|&ip| {
                db.lookup(Ipv4Addr::from(ip))
                    .is_some_and(|info| db.isp(info.isp).name == "OVH")
            })
        })
        .count();
    println!("\n{ovh} publishers seen publishing from OVH");

    // Query 4: the clean top-10 (fake publishers filtered out).
    println!("\ntop clean publishers:");
    for p in s.publishers.iter().filter(|p| !is_fake(p)).take(10) {
        println!("  {:<22} {} items", p.key.to_string(), p.content_count());
    }

    // Where the time and work went, from the observability layer.
    eprintln!("\n{}", btpub_obs::text_report(btpub_obs::global()));
}
