//! §5.2 / Table 4: longitudinal view of major publishers.
//!
//! For each top publisher, the paper scrapes the username's portal page —
//! which lists the account's *entire* publication history, not just the
//! measurement window — and derives the account lifetime and the average
//! publishing rate over it.

use btpub_portal::Portal;
use btpub_sim::profile::BusinessClass;
use btpub_sim::SimTime;

use crate::classify::Classified;
use crate::publishers::PublisherKey;
use crate::stats::MinMedAvgMax;

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongitudinalRow {
    /// Publisher class.
    pub class: BusinessClass,
    /// Lifetime in days: min/median/avg/max over the class.
    pub lifetime_days: MinMedAvgMax,
    /// Average publishing rate (contents/day): min/median/avg/max.
    pub rate_per_day: MinMedAvgMax,
}

/// Computes Table 4 from the portal's user pages as of `as_of`
/// (the paper used June 4 2010, after the pb10 window closed).
pub fn longitudinal_rows(
    portal: &Portal<'_>,
    classified: &[Classified],
    as_of: SimTime,
) -> Vec<LongitudinalRow> {
    [
        BusinessClass::BtPortal,
        BusinessClass::OtherWeb,
        BusinessClass::Altruistic,
    ]
    .into_iter()
    .filter_map(|class| {
        let mut lifetimes = Vec::new();
        let mut rates = Vec::new();
        for c in classified.iter().filter(|c| c.class == class) {
            let PublisherKey::Username(username) = &c.key else {
                continue;
            };
            let Some(page) = portal.user_page(username, as_of) else {
                continue; // account gone (would be a fake signal)
            };
            lifetimes.push(page.lifetime_days);
            rates.push(page.avg_rate_per_day);
        }
        Some(LongitudinalRow {
            class,
            lifetime_days: MinMedAvgMax::of(&lifetimes)?,
            rate_per_day: MinMedAvgMax::of(&rates)?,
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::fold_dataset;
    use btpub_crawler::{run_crawl, CrawlerConfig};
    use btpub_sim::{Ecosystem, EcosystemConfig};

    #[test]
    fn rows_cover_all_classes_with_sane_values() {
        let eco = Ecosystem::generate(EcosystemConfig::tiny(111));
        let portal = Portal::new(&eco);
        let ds = run_crawl(&eco, &CrawlerConfig::default());
        let classified = fold_dataset(&ds, &eco.world.db, 30).finish().classified;
        let rows = longitudinal_rows(&portal, &classified, eco.config.horizon());
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(row.lifetime_days.min > 0.0);
            assert!(row.lifetime_days.max <= 2000.0);
            assert!(row.rate_per_day.min >= 0.0);
            assert!(
                row.rate_per_day.max <= 100.0,
                "rate {} implausible",
                row.rate_per_day.max
            );
            assert!(row.lifetime_days.min <= row.lifetime_days.median);
            assert!(row.lifetime_days.median <= row.lifetime_days.max);
        }
    }
}
