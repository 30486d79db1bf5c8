//! §4.1 / Figure 2: content-type distribution per publisher group.

use btpub_sim::content::Category;

use crate::fake::{Group, Groups};
use crate::publishers::PublisherStats;

/// The per-group category distribution (fractions over [`Category::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryDistribution {
    /// Fractions, indexed like [`Category::ALL`]. Sums to 1 unless the
    /// group published nothing.
    pub fractions: [f64; 8],
    /// Number of torrents behind the distribution.
    pub n: usize,
}

impl CategoryDistribution {
    /// Fraction of video content (Movies + TV + Porn), the headline
    /// quantity of Figure 2.
    pub fn video_share(&self) -> f64 {
        self.fractions[0] + self.fractions[1] + self.fractions[2]
    }

    /// Fraction for one category.
    pub fn share(&self, cat: Category) -> f64 {
        let idx = Category::ALL.iter().position(|c| *c == cat).expect("known");
        self.fractions[idx]
    }
}

/// Computes Figure 2's distribution for one group. `categories` is the
/// fold's one-category-per-torrent column, indexed like
/// [`PublisherStats::torrents`].
pub fn category_distribution(
    categories: &[Category],
    publishers: &[PublisherStats],
    groups: &Groups,
    group: Group,
) -> CategoryDistribution {
    let mut counts = [0usize; 8];
    let mut n = 0usize;
    for p in publishers {
        if !groups.contains(&p.key, group) {
            continue;
        }
        for &idx in &p.torrents {
            let cat = categories[idx];
            let pos = Category::ALL.iter().position(|c| *c == cat).expect("known");
            counts[pos] += 1;
            n += 1;
        }
    }
    let mut fractions = [0.0f64; 8];
    if n > 0 {
        for (f, c) in fractions.iter_mut().zip(counts) {
            *f = c as f64 / n as f64;
        }
    }
    CategoryDistribution { fractions, n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publishers::PublisherKey;
    use crate::streaming::fold_dataset;
    use btpub_crawler::{Dataset, TorrentRecord};
    use btpub_geodb::GeoDbBuilder;
    use btpub_sim::{SimTime, TorrentId};

    fn rec(id: u32, user: &str, cat: Category) -> TorrentRecord {
        TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(0),
            first_contact_at: None,
            category: cat,
            title: "t".into(),
            filename: "t".into(),
            textbox: None,
            size_bytes: 1,
            language: None,
            username: Some(user.into()),
            publisher_ip: None,
            ip_failure: None,
            first_complete: 0,
            first_incomplete: 0,
            sightings: vec![],
            observed_ips: vec![],
            observed_removed: false,
        }
    }

    #[test]
    fn distribution_counts_by_group() {
        let ds = Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime(1),
            has_usernames: true,
            torrents: vec![
                rec(0, "a", Category::Movies),
                rec(1, "a", Category::Movies),
                rec(2, "a", Category::Audio),
                rec(3, "b", Category::Books),
            ],
        };
        let s = fold_dataset(&ds, &GeoDbBuilder::new().build().unwrap(), 10).finish();
        let (cats, pubs) = (&s.categories, &s.publishers);
        let mut groups = Groups::default();
        groups.top.push(PublisherKey::Username("a".into()));
        let top = category_distribution(cats, pubs, &groups, Group::Top);
        assert_eq!(top.n, 3);
        assert!((top.share(Category::Movies) - 2.0 / 3.0).abs() < 1e-9);
        assert!((top.video_share() - 2.0 / 3.0).abs() < 1e-9);
        let all = category_distribution(cats, pubs, &groups, Group::All);
        assert_eq!(all.n, 4);
        assert!((all.fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let fake = category_distribution(cats, pubs, &groups, Group::Fake);
        assert_eq!(fake.n, 0);
        assert_eq!(fake.video_share(), 0.0);
    }
}
