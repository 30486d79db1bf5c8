//! Per-publisher aggregation of a dataset.
//!
//! The paper identifies a publisher by *username* where the portal exposes
//! one (pb09/pb10) and falls back to the initial-seeder *IP address* for
//! mn08 (§3). This module provides that keying plus the per-publisher
//! aggregates every later stage consumes; the
//! [`crate::streaming::StreamAggregator`] fold builds them record by
//! record. With usernames every torrent is attributed; in IP mode only
//! torrents whose initial seeder was identified can be (the mn08
//! limitation the paper notes). The result is sorted by content count,
//! descending, so "top-x" publishers are prefixes of it.

use std::net::Ipv4Addr;

use btpub_crawler::TorrentRecord;
use btpub_fxhash::{FxHashMap, FxHashSet, Interner, Sym};

/// How a publisher is identified in a dataset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PublisherKey {
    /// Portal username (pb09 / pb10).
    Username(String),
    /// Initial-seeder address (mn08, which lacks usernames).
    Ip(u32),
}

impl std::fmt::Display for PublisherKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublisherKey::Username(u) => f.write_str(u),
            PublisherKey::Ip(ip) => write!(f, "{}", Ipv4Addr::from(*ip)),
        }
    }
}

/// Aggregates for one identified publisher.
#[derive(Debug, Clone, PartialEq)]
pub struct PublisherStats {
    /// Identification key.
    pub key: PublisherKey,
    /// Indices into `dataset.torrents`, in announcement order.
    pub torrents: Vec<usize>,
    /// Total observed downloaders across those torrents.
    pub downloads: u64,
    /// Initial-seeder IPs identified across the publisher's torrents.
    pub ips: FxHashSet<u32>,
}

impl PublisherStats {
    /// Number of published torrents attributed to this publisher.
    pub fn content_count(&self) -> usize {
        self.torrents.len()
    }
}

/// Internal aggregation key: a `u32` either way, so the per-record hash
/// in the fold never touches string bytes. Deliberately crate-private —
/// symbols must be resolved back to [`PublisherKey`] strings before
/// anything ordered or report-facing sees them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IKey {
    User(Sym),
    Ip(u32),
}

/// Per-key partial aggregate (the key lives in the map).
#[derive(Default)]
pub(crate) struct Partial {
    pub(crate) torrents: Vec<usize>,
    pub(crate) downloads: u64,
    pub(crate) ips: FxHashSet<u32>,
}

impl Partial {
    /// Folds one attributed record into the aggregate.
    pub(crate) fn observe(&mut self, idx: usize, rec: &TorrentRecord) {
        self.torrents.push(idx);
        self.downloads += rec.observed_downloaders() as u64;
        if let Some(ip) = rec.publisher_ip {
            self.ips.insert(u32::from(ip));
        }
    }
}

/// The aggregation key a record is attributed to, if any: username when
/// the dataset carries usernames, identified initial-seeder IP otherwise.
pub(crate) fn attribution(users: Option<&Interner>, rec: &TorrentRecord) -> Option<IKey> {
    if let Some(users) = users {
        rec.username
            .as_ref()
            .map(|u| IKey::User(users.get(u).expect("username interned")))
    } else {
        rec.publisher_ip.map(|ip| IKey::Ip(u32::from(ip)))
    }
}

/// Report boundary of the fold: resolve symbols back to strings (one
/// clone per publisher, not per record) and impose the total order. The
/// final comparator ends in a unique-key comparison, so the result is
/// independent of the hash map's iteration order.
pub(crate) fn resolve_and_sort(
    agg: FxHashMap<IKey, Partial>,
    users: Option<&Interner>,
) -> Vec<PublisherStats> {
    let mut out: Vec<PublisherStats> = agg
        .into_iter()
        .map(|(key, p)| PublisherStats {
            key: match key {
                IKey::User(s) => {
                    PublisherKey::Username(users.expect("username mode").resolve(s).to_string())
                }
                IKey::Ip(ip) => PublisherKey::Ip(ip),
            },
            torrents: p.torrents,
            downloads: p.downloads,
            ips: p.ips,
        })
        .collect();
    out.sort_by(|a, b| {
        b.content_count()
            .cmp(&a.content_count())
            .then_with(|| b.downloads.cmp(&a.downloads))
            .then_with(|| a.key.cmp(&b.key))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::fold_dataset;
    use btpub_crawler::{Dataset, TorrentRecord};
    use btpub_geodb::{GeoDb, GeoDbBuilder};
    use btpub_sim::content::Category;
    use btpub_sim::{SimTime, TorrentId};

    fn rec(id: u32, user: Option<&str>, ip: Option<[u8; 4]>, ips_observed: u32) -> TorrentRecord {
        TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(u64::from(id)),
            first_contact_at: None,
            category: Category::Movies,
            title: format!("t{id}"),
            filename: format!("t{id}"),
            textbox: None,
            size_bytes: 1,
            username: user.map(str::to_string),
            language: None,
            publisher_ip: ip.map(Ipv4Addr::from),
            ip_failure: None,
            first_complete: 0,
            first_incomplete: 0,
            sightings: vec![],
            observed_ips: (0..ips_observed).collect(),
            observed_removed: false,
        }
    }

    fn dataset(has_usernames: bool, torrents: Vec<TorrentRecord>) -> Dataset {
        Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime(100),
            has_usernames,
            torrents,
        }
    }

    fn no_geo() -> GeoDb {
        GeoDbBuilder::new().build().unwrap()
    }

    fn aggregate(ds: &Dataset) -> Vec<PublisherStats> {
        fold_dataset(ds, &no_geo(), 10).finish().publishers
    }

    #[test]
    fn username_mode_groups_by_username() {
        let ds = dataset(
            true,
            vec![
                rec(0, Some("alice"), Some([1, 1, 1, 1]), 10),
                rec(1, Some("alice"), Some([1, 1, 1, 2]), 5),
                rec(2, Some("bob"), None, 3),
            ],
        );
        let agg = aggregate(&ds);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].key, PublisherKey::Username("alice".into()));
        assert_eq!(agg[0].content_count(), 2);
        assert_eq!(agg[0].downloads, 15);
        assert_eq!(agg[0].ips.len(), 2);
        assert_eq!(agg[1].content_count(), 1);
    }

    #[test]
    fn ip_mode_drops_unidentified() {
        let ds = dataset(
            false,
            vec![
                rec(0, None, Some([1, 1, 1, 1]), 10),
                rec(1, None, Some([1, 1, 1, 1]), 4),
                rec(2, None, None, 3),
            ],
        );
        let agg = aggregate(&ds);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].content_count(), 2);
        assert!(matches!(agg[0].key, PublisherKey::Ip(_)));
    }

    #[test]
    fn sorting_is_by_content_then_downloads() {
        let ds = dataset(
            true,
            vec![
                rec(0, Some("small"), None, 100),
                rec(1, Some("big"), None, 1),
                rec(2, Some("big"), None, 1),
            ],
        );
        let agg = aggregate(&ds);
        assert_eq!(agg[0].key, PublisherKey::Username("big".into()));
    }

    #[test]
    fn ip_to_usernames_detects_multiuser_ips() {
        let ds = dataset(
            true,
            vec![
                rec(0, Some("u1"), Some([9, 9, 9, 9]), 0),
                rec(1, Some("u2"), Some([9, 9, 9, 9]), 0),
                rec(2, Some("u1"), Some([8, 8, 8, 8]), 0),
            ],
        );
        let db = no_geo();
        let map = fold_dataset(&ds, &db, 10).signals.by_ip;
        assert_eq!(map[&u32::from(Ipv4Addr::new(9, 9, 9, 9))].len(), 2);
        assert_eq!(map[&u32::from(Ipv4Addr::new(8, 8, 8, 8))].len(), 1);
    }

    #[test]
    fn top_ips_ranking() {
        let ds = dataset(
            true,
            vec![
                rec(0, Some("a"), Some([1, 0, 0, 1]), 0),
                rec(1, Some("a"), Some([1, 0, 0, 1]), 0),
                rec(2, Some("b"), Some([1, 0, 0, 2]), 0),
            ],
        );
        let db = no_geo();
        let top = fold_dataset(&ds, &db, 10).signals.top_ips();
        assert_eq!(top[0], (u32::from(Ipv4Addr::new(1, 0, 0, 1)), 2));
        assert_eq!(top[1].1, 1);
    }
}
