//! §5.3 / Table 5 and §6: the money.
//!
//! The paper estimated each promoting web site's value, daily income and
//! daily visits by querying six independent web-statistics monitors
//! (sitelogr, cwire, websiteoutlook, …) and averaging. Those services are
//! long gone, so this module implements the *monitor oracle*: the site's
//! true traffic is derived from the ecosystem (every downloader of a
//! promoted torrent is a potential visitor), each synthetic monitor
//! observes it with independent log-normal reporting error, and the
//! analysis — exactly like the paper — averages the six noisy reports.
//! The substitution preserves what Table 5 is about: the *relationship*
//! between publishing scale and site economics, and the robustness of the
//! median across noisy monitors.

use btpub_fxhash::FxHashMap;
use btpub_sim::profile::BusinessClass;
use btpub_sim::rngs;
use btpub_sim::Ecosystem;

use crate::classify::Classified;
use crate::publishers::PublisherKey;
use crate::stats::MinMedAvgMax;

/// Number of independent monitoring services averaged (the paper's six).
pub const MONITOR_COUNT: usize = 6;

/// Reporting noise of one monitor (log-normal sigma).
pub const MONITOR_SIGMA: f64 = 0.35;

/// Dollars of site value per dollar of daily income (empirically ~600 in
/// the paper's medians: $33 K value vs $55/day income).
pub const VALUE_PER_DAILY_INCOME: f64 = 600.0;

/// One publisher's averaged monitor report.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReport {
    /// Publisher key.
    pub key: PublisherKey,
    /// Promoted URL.
    pub url: String,
    /// Average reported site value, dollars.
    pub value_dollars: f64,
    /// Average reported daily income, dollars.
    pub daily_income_dollars: f64,
    /// Average reported daily visits.
    pub daily_visits: f64,
}

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EconomicsRow {
    /// Class (BT Portals or Other Web sites).
    pub class: BusinessClass,
    /// Site value summary.
    pub value_dollars: MinMedAvgMax,
    /// Daily income summary.
    pub daily_income_dollars: MinMedAvgMax,
    /// Daily visits summary.
    pub daily_visits: MinMedAvgMax,
}

/// Queries the six synthetic monitors for every profit-driven classified
/// publisher. `scale_correction` compensates a scaled-down simulation
/// (pass `1 / downloads_scale` to report paper-scale traffic).
pub fn site_reports(
    eco: &Ecosystem,
    classified: &[Classified],
    scale_correction: f64,
) -> Vec<SiteReport> {
    // True traffic per username: downloads of their torrents × conversion.
    let mut downloads_by_username: FxHashMap<&str, u64> = FxHashMap::default();
    for (p, s) in eco.publications.iter().zip(&eco.swarms) {
        *downloads_by_username
            .entry(p.username.as_str())
            .or_default() += s.downloads() as u64;
    }
    let publishers_by_username: FxHashMap<&str, &btpub_sim::Publisher> = eco
        .publishers
        .iter()
        .map(|p| (p.primary_username(), p))
        .collect();
    let window_days = eco.config.duration.as_days();
    classified
        .iter()
        .filter_map(|c| {
            let url = c.url.clone()?;
            let PublisherKey::Username(username) = &c.key else {
                return None;
            };
            let publisher = publishers_by_username.get(username.as_str())?;
            let website = publisher.website.as_ref()?;
            let downloads = *downloads_by_username.get(username.as_str()).unwrap_or(&0);
            let true_daily_visits =
                downloads as f64 / window_days * website.conversion * scale_correction;
            let true_daily_income = true_daily_visits / 1000.0 * website.rpm_dollars;
            let true_value = true_daily_income * VALUE_PER_DAILY_INCOME;
            // Six noisy monitors, averaged — deterministic per publisher.
            let mut sums = [0.0f64; 3];
            for monitor in 0..MONITOR_COUNT {
                let mut rng = rngs::derive(
                    eco.config.seed,
                    "monitor",
                    u64::from(publisher.id.0) * 16 + monitor as u64,
                );
                sums[0] += true_value * rngs::lognormal(&mut rng, 0.0, MONITOR_SIGMA);
                sums[1] += true_daily_income * rngs::lognormal(&mut rng, 0.0, MONITOR_SIGMA);
                sums[2] += true_daily_visits * rngs::lognormal(&mut rng, 0.0, MONITOR_SIGMA);
            }
            Some(SiteReport {
                key: c.key.clone(),
                url,
                value_dollars: sums[0] / MONITOR_COUNT as f64,
                daily_income_dollars: sums[1] / MONITOR_COUNT as f64,
                daily_visits: sums[2] / MONITOR_COUNT as f64,
            })
        })
        .collect()
}

/// Builds Table 5 from the per-site reports.
pub fn economics_rows(classified: &[Classified], reports: &[SiteReport]) -> Vec<EconomicsRow> {
    let class_of: FxHashMap<&PublisherKey, BusinessClass> =
        classified.iter().map(|c| (&c.key, c.class)).collect();
    [BusinessClass::BtPortal, BusinessClass::OtherWeb]
        .into_iter()
        .filter_map(|class| {
            let members: Vec<&SiteReport> = reports
                .iter()
                .filter(|r| class_of.get(&r.key) == Some(&class))
                .collect();
            let col = |f: &dyn Fn(&SiteReport) -> f64| {
                MinMedAvgMax::of(&members.iter().map(|r| f(r)).collect::<Vec<_>>())
            };
            Some(EconomicsRow {
                class,
                value_dollars: col(&|r| r.value_dollars)?,
                daily_income_dollars: col(&|r| r.daily_income_dollars)?,
                daily_visits: col(&|r| r.daily_visits)?,
            })
        })
        .collect()
}

/// §6's hosting-provider income estimate from a provider's footprint:
/// distinct publisher IPs seen at the provider × the monthly server price
/// (the paper: OVH, 78–164 servers, ≈300 €/month ⇒ 23.4–42.9 K €/month).
pub fn hosting_income(
    fp: &crate::isp::IspFootprint,
    monthly_price_eur: f64,
) -> (usize, f64) {
    (fp.ip_addresses, fp.ip_addresses as f64 * monthly_price_eur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::fold_dataset;
    use btpub_crawler::{run_crawl, CrawlerConfig};
    use btpub_sim::{Ecosystem, EcosystemConfig};

    fn setup() -> (Ecosystem, Vec<Classified>) {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(123));
        let ds = run_crawl(&eco, &CrawlerConfig::default());
        let classified = fold_dataset(&ds, &eco.world.db, 30).finish().classified;
        (eco, classified)
    }

    #[test]
    fn reports_cover_profit_driven_publishers() {
        let (eco, classified) = setup();
        let reports = site_reports(&eco, &classified, 1.0);
        let profit_driven = classified
            .iter()
            .filter(|c| c.class.is_profit_driven() && c.url.is_some())
            .count();
        assert!(!reports.is_empty());
        // Some classified publishers may have heuristic URLs that do not
        // match a ground-truth website; most must.
        assert!(reports.len() * 10 >= profit_driven * 7);
        for r in &reports {
            assert!(r.value_dollars >= 0.0);
            assert!(r.daily_income_dollars >= 0.0);
            assert!(r.daily_visits >= 0.0);
            // Value ≈ income × multiplier, up to monitor noise.
            if r.daily_income_dollars > 0.0 {
                let ratio = r.value_dollars / (r.daily_income_dollars * VALUE_PER_DAILY_INCOME);
                assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
            }
        }
    }

    #[test]
    fn scale_correction_scales_linearly() {
        let (eco, classified) = setup();
        let r1 = site_reports(&eco, &classified, 1.0);
        let r10 = site_reports(&eco, &classified, 10.0);
        for (a, b) in r1.iter().zip(&r10) {
            assert!((b.daily_visits / a.daily_visits.max(1e-12) - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn economics_rows_have_ordered_summaries() {
        let (eco, classified) = setup();
        let reports = site_reports(&eco, &classified, 1.0);
        let rows = economics_rows(&classified, &reports);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.value_dollars.min <= row.value_dollars.median);
            assert!(row.value_dollars.median <= row.value_dollars.max);
            assert!(row.daily_visits.min <= row.daily_visits.max);
        }
    }

    #[test]
    fn monitor_reports_are_deterministic() {
        let (eco, classified) = setup();
        let a = site_reports(&eco, &classified, 1.0);
        let b = site_reports(&eco, &classified, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn hosting_income_counts_fake_providers_servers() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(123));
        let ds = run_crawl(&eco, &CrawlerConfig::default());
        let db = &eco.world.db;
        let footprint = fold_dataset(&ds, db, 30).finish().isp.footprint(db, "tzulo");
        let (servers, income) = hosting_income(&footprint, 300.0);
        assert_eq!(income, servers as f64 * 300.0);
    }
}
