//! Ablation experiments over the measurement design (DESIGN.md §5):
//!
//! 1. **vantage points** — how many crawler machines are needed for good
//!    download coverage and session-estimation accuracy;
//! 2. **offline threshold** — the Appendix A 2 h/4 h/6 h robustness check
//!    against ground truth;
//! 3. **tracker sample size W** — the capture-probability model's
//!    sensitivity, analytically.
//!
//! ```text
//! cargo run --release -p btpub-bench --bin ablate
//! ```

use btpub::analysis::session::{capture_probability, queries_needed};
use btpub::crawler::{run_crawl, CrawlerConfig};
use btpub::sim::Ecosystem;
use btpub::{Scale, Scenario};

fn main() {
    let scenario = Scenario::pb10(Scale {
        torrents: 0.04,
        downloads: 0.10,
        majors: 0.04,
    });
    btpub_obs::info!("generating shared ecosystem"; torrents = scenario.eco.torrents);
    let eco = Ecosystem::generate(scenario.eco.clone());

    println!("== ablation 1: vantage points ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12}",
        "vantage", "identified", "coverage", "session-err", "crawl-secs"
    );
    for vantage in [1u32, 2, 4, 8] {
        let cfg = CrawlerConfig {
            vantage_points: vantage,
            name: format!("v{vantage}"),
            ..CrawlerConfig::default()
        };
        let started = std::time::Instant::now();
        let dataset = run_crawl(&eco, &cfg);
        let elapsed = started.elapsed().as_secs_f64();
        // Reuse the Study analysis layer on this dataset.
        let study = btpub::Study {
            scenario: scenario.clone(),
            eco: Ecosystem::generate(scenario.eco.clone()),
            dataset,
        };
        let analyses = study.analyze();
        let v1 = analyses.experiments().report_data().v1;
        println!(
            "{:>8} {:>11.0}% {:>11.0}% {:>14.2} {:>12.1}",
            vantage,
            v1.ip_identified_frac * 100.0,
            v1.download_coverage * 100.0,
            v1.session_error_median,
            elapsed
        );
    }

    println!("\n== ablation 2: offline threshold (hours) vs ground truth ==");
    let study = btpub::Study {
        scenario: scenario.clone(),
        eco: Ecosystem::generate(scenario.eco.clone()),
        dataset: run_crawl(&eco, &CrawlerConfig::default()),
    };
    let analyses = study.analyze();
    let aa = analyses.experiments().report_data().aa;
    println!(
        "  top median aggregated session: 2h={:.1}h 4h={:.1}h 6h={:.1}h (paper: 'similar results')",
        aa.threshold_sensitivity[0], aa.threshold_sensitivity[1], aa.threshold_sensitivity[2]
    );

    println!("\n== ablation 3: tracker sample size W (N = 165) ==");
    println!("{:>6} {:>10} {:>16}", "W", "m for .99", "P after 13 queries");
    for w in [20u32, 50, 100, 165] {
        println!(
            "{:>6} {:>10} {:>16.4}",
            w,
            queries_needed(w, 165, 0.99),
            capture_probability(w, 165, 13)
        );
    }
}
