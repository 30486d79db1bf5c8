//! §3.2 / Tables 2–3: mapping publishers to ISPs.

use std::net::Ipv4Addr;

use btpub_fxhash::{FxHashMap, FxHashSet};
use btpub_geodb::{prefix16, GeoDb, IspId, IspKind, LocationId};

use crate::publishers::PublisherStats;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct IspRow {
    /// ISP display name.
    pub name: String,
    /// Hosting provider or commercial ISP.
    pub kind: IspKind,
    /// Percentage of IP-attributed content published from this ISP.
    pub pct_content: f64,
}

/// Incremental per-ISP aggregate behind Tables 2–3 and §6: one entry per
/// ISP that fed content, each holding the counts and distinct-value sets
/// those tables report. Bounded by the identified-publisher population,
/// never by campaign length, so the fold keeps one of these while
/// records flow through.
#[derive(Debug, Clone, Default)]
pub struct IspAgg {
    per_isp: FxHashMap<IspId, IspAcc>,
    attributed: usize,
}

#[derive(Debug, Clone, Default)]
struct IspAcc {
    fed: usize,
    ips: FxHashSet<u32>,
    prefixes: FxHashSet<u16>,
    locations: FxHashSet<LocationId>,
}

impl IspAgg {
    /// Folds one record's identified publisher IP in (no-op when the IP
    /// was not identified or is outside the database).
    pub fn observe(&mut self, publisher_ip: Option<Ipv4Addr>, db: &GeoDb) {
        let Some(ip) = publisher_ip else { return };
        let Some(info) = db.lookup(ip) else { return };
        self.attributed += 1;
        let acc = self.per_isp.entry(info.isp).or_default();
        acc.fed += 1;
        acc.ips.insert(u32::from(ip));
        acc.prefixes.insert(prefix16(ip));
        acc.locations.insert(info.location);
    }

    /// Table 2 from the aggregate: top-`k` ISPs by share of IP-attributed
    /// content.
    pub fn top_isps(&self, db: &GeoDb, k: usize) -> Vec<IspRow> {
        let mut rows: Vec<(IspId, usize)> =
            self.per_isp.iter().map(|(&isp, acc)| (isp, acc.fed)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(isp, count)| {
                let rec = db.isp(isp);
                IspRow {
                    name: rec.name.clone(),
                    kind: rec.kind,
                    pct_content: 100.0 * count as f64 / self.attributed.max(1) as f64,
                }
            })
            .collect()
    }

    /// Serializes the aggregate for a checkpoint, ISPs and inner sets
    /// key-sorted for byte-stable output.
    pub fn encode_state(&self, enc: &mut btpub_stream::checkpoint::Enc) {
        let mut isps: Vec<(&IspId, &IspAcc)> = self.per_isp.iter().collect();
        isps.sort_by_key(|(id, _)| id.0);
        enc.usize(isps.len());
        for (id, acc) in isps {
            enc.u32(u32::from(id.0));
            enc.usize(acc.fed);
            let mut ips: Vec<u32> = acc.ips.iter().copied().collect();
            ips.sort_unstable();
            enc.usize(ips.len());
            for ip in ips {
                enc.u32(ip);
            }
            let mut prefixes: Vec<u16> = acc.prefixes.iter().copied().collect();
            prefixes.sort_unstable();
            enc.usize(prefixes.len());
            for p in prefixes {
                enc.u32(u32::from(p));
            }
            let mut locations: Vec<u16> = acc.locations.iter().map(|l| l.0).collect();
            locations.sort_unstable();
            enc.usize(locations.len());
            for l in locations {
                enc.u32(u32::from(l));
            }
        }
        enc.usize(self.attributed);
    }

    /// Restores from [`Self::encode_state`] bytes.
    pub fn decode_state(
        dec: &mut btpub_stream::checkpoint::Dec,
    ) -> Result<Self, btpub_stream::checkpoint::CheckpointError> {
        use btpub_stream::checkpoint::CheckpointError;
        let narrow = |v: u32| {
            u16::try_from(v).map_err(|_| CheckpointError::Decode { what: "IspAgg u16 id" })
        };
        let mut per_isp = FxHashMap::default();
        for _ in 0..dec.usize()? {
            let id = IspId(narrow(dec.u32()?)?);
            let mut acc = IspAcc { fed: dec.usize()?, ..IspAcc::default() };
            for _ in 0..dec.usize()? {
                acc.ips.insert(dec.u32()?);
            }
            for _ in 0..dec.usize()? {
                acc.prefixes.insert(narrow(dec.u32()?)?);
            }
            for _ in 0..dec.usize()? {
                acc.locations.insert(LocationId(narrow(dec.u32()?)?));
            }
            per_isp.insert(id, acc);
        }
        Ok(Self { per_isp, attributed: dec.usize()? })
    }

    /// Table 3's row for one ISP, by display name.
    pub fn footprint(&self, db: &GeoDb, isp_name: &str) -> IspFootprint {
        let acc = db
            .isp_by_name(isp_name)
            .and_then(|id| self.per_isp.get(&id));
        match acc {
            Some(acc) => IspFootprint {
                fed_torrents: acc.fed,
                ip_addresses: acc.ips.len(),
                prefixes16: acc.prefixes.len(),
                geo_locations: acc.locations.len(),
            },
            None => IspFootprint {
                fed_torrents: 0,
                ip_addresses: 0,
                prefixes16: 0,
                geo_locations: 0,
            },
        }
    }
}

/// Table 3's characterisation of one ISP's publisher footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IspFootprint {
    /// Torrents fed by publishers at this ISP.
    pub fed_torrents: usize,
    /// Distinct publisher IP addresses.
    pub ip_addresses: usize,
    /// Distinct /16 prefixes those addresses fall in.
    pub prefixes16: usize,
    /// Distinct geographic locations.
    pub geo_locations: usize,
}

/// Fraction of the given top publishers that sit at hosting providers,
/// plus the share specifically at one named provider (the paper: 42 % at
/// hosting services, 22 % at OVH alone, for pb10's top-100).
pub fn hosting_shares(
    publishers: &[PublisherStats],
    db: &GeoDb,
    provider: &str,
) -> (f64, f64) {
    if publishers.is_empty() {
        return (0.0, 0.0);
    }
    let mut at_hosting = 0usize;
    let mut at_named = 0usize;
    let mut with_ip = 0usize;
    for p in publishers {
        let Some(kind) = dominant_kind(p, db) else {
            continue;
        };
        with_ip += 1;
        if kind == IspKind::HostingProvider {
            at_hosting += 1;
        }
        if dominant_isp(p, db).is_some_and(|i| db.isp(i).name == provider) {
            at_named += 1;
        }
    }
    if with_ip == 0 {
        return (0.0, 0.0);
    }
    (
        at_hosting as f64 / with_ip as f64,
        at_named as f64 / with_ip as f64,
    )
}

/// The ISP a publisher's identified IPs most often map to.
pub fn dominant_isp(p: &PublisherStats, db: &GeoDb) -> Option<IspId> {
    let mut counts: FxHashMap<IspId, usize> = FxHashMap::default();
    for &ip in &p.ips {
        if let Some(info) = db.lookup(Ipv4Addr::from(ip)) {
            *counts.entry(info.isp).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
        .map(|(isp, _)| isp)
}

/// The ISP kind (hosting vs commercial) of a publisher's dominant ISP.
pub fn dominant_kind(p: &PublisherStats, db: &GeoDb) -> Option<IspKind> {
    dominant_isp(p, db).map(|isp| db.isp(isp).kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publishers::PublisherKey;
    use crate::streaming::fold_dataset;
    use btpub_crawler::{Dataset, TorrentRecord};
    use btpub_geodb::GeoDbBuilder;
    use btpub_sim::content::Category;
    use btpub_sim::{SimTime, TorrentId};

    fn db() -> GeoDb {
        let mut b = GeoDbBuilder::new();
        let ovh = b.add_isp("OVH", IspKind::HostingProvider, "FR");
        let comcast = b.add_isp("Comcast", IspKind::CommercialIsp, "US");
        let rbx = b.add_location("Roubaix", "FR");
        let den = b.add_location("Denver", "US");
        let chi = b.add_location("Chicago", "US");
        b.add_slash16(0x0A00, ovh, rbx); // 10.0/16
        b.add_slash16(0x1800, comcast, den); // 24.0/16
        b.add_slash16(0x1801, comcast, chi); // 24.1/16
        b.build().unwrap()
    }

    fn rec(id: u32, ip: [u8; 4]) -> TorrentRecord {
        TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(0),
            first_contact_at: None,
            category: Category::Movies,
            title: "t".into(),
            filename: "t".into(),
            textbox: None,
            size_bytes: 1,
            language: None,
            username: Some(format!("u{id}")),
            publisher_ip: Some(Ipv4Addr::from(ip)),
            ip_failure: None,
            first_complete: 0,
            first_incomplete: 0,
            sightings: vec![],
            observed_ips: vec![],
            observed_removed: false,
        }
    }

    fn ds(torrents: Vec<TorrentRecord>) -> Dataset {
        Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime(1),
            has_usernames: true,
            torrents,
        }
    }

    #[test]
    fn table2_ranks_by_content() {
        let d = ds(vec![
            rec(0, [10, 0, 0, 1]),
            rec(1, [10, 0, 0, 1]),
            rec(2, [10, 0, 0, 2]),
            rec(3, [24, 0, 5, 5]),
        ]);
        let database = db();
        let rows = fold_dataset(&d, &database, 10).finish().isp.top_isps(&database, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "OVH");
        assert_eq!(rows[0].kind, IspKind::HostingProvider);
        assert!((rows[0].pct_content - 75.0).abs() < 1e-9);
        assert!((rows[1].pct_content - 25.0).abs() < 1e-9);
    }

    #[test]
    fn table3_footprint_contrast() {
        let d = ds(vec![
            rec(0, [10, 0, 0, 1]),
            rec(1, [10, 0, 0, 1]),
            rec(2, [10, 0, 0, 2]),
            rec(3, [24, 0, 5, 5]),
            rec(4, [24, 1, 9, 9]),
        ]);
        let database = db();
        let isp = fold_dataset(&d, &database, 10).finish().isp;
        let ovh = isp.footprint(&database, "OVH");
        assert_eq!(ovh.fed_torrents, 3);
        assert_eq!(ovh.ip_addresses, 2);
        assert_eq!(ovh.prefixes16, 1);
        assert_eq!(ovh.geo_locations, 1);
        let comcast = isp.footprint(&database, "Comcast");
        assert_eq!(comcast.fed_torrents, 2);
        assert_eq!(comcast.prefixes16, 2);
        assert_eq!(comcast.geo_locations, 2);
        let nosuch = isp.footprint(&database, "NoSuch");
        assert_eq!(nosuch.fed_torrents, 0);
    }

    #[test]
    fn hosting_share_computation() {
        let database = db();
        let pubs = vec![
            PublisherStats {
                key: PublisherKey::Username("a".into()),
                torrents: vec![0],
                downloads: 0,
                ips: [u32::from(Ipv4Addr::new(10, 0, 0, 1))].into_iter().collect(),
            },
            PublisherStats {
                key: PublisherKey::Username("b".into()),
                torrents: vec![1],
                downloads: 0,
                ips: [u32::from(Ipv4Addr::new(24, 0, 0, 1))].into_iter().collect(),
            },
        ];
        let (hosting, ovh) = hosting_shares(&pubs, &database, "OVH");
        assert!((hosting - 0.5).abs() < 1e-9);
        assert!((ovh - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dominant_isp_majority_vote() {
        let database = db();
        let p = PublisherStats {
            key: PublisherKey::Username("a".into()),
            torrents: vec![],
            downloads: 0,
            ips: [
                u32::from(Ipv4Addr::new(24, 0, 0, 1)),
                u32::from(Ipv4Addr::new(24, 1, 0, 1)),
                u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(
            dominant_kind(&p, &database),
            Some(IspKind::CommercialIsp),
            "2 Comcast IPs beat 1 OVH"
        );
        let empty = PublisherStats {
            key: PublisherKey::Username("none".into()),
            torrents: vec![],
            downloads: 0,
            ips: Default::default(),
        };
        assert_eq!(dominant_kind(&empty, &database), None);
    }
}
