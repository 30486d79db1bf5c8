//! The analysis: every §3–§6 aggregate computed record by record, in
//! memory bounded by the publisher population rather than the campaign.
//!
//! The pipeline is split in two: [`RecordDigest::reduce`] is a pure,
//! order-free function of one record that consumes its heavy payload
//! (sightings become per-threshold seeding sessions), and
//! [`StreamAggregator::fold`] consumes digests in announcement order,
//! folding each into the per-analysis accumulators ([`Partial`],
//! [`ClassAcc`], [`SeedAcc`], [`GroupSignals`], [`IspAgg`]). The heavy
//! per-record payloads (sightings, observed downloader IPs,
//! title/filename/textbox strings) are consumed at fold time and
//! dropped; what survives is bounded by the publisher and ISP populations
//! plus a one-byte-per-torrent category column.
//!
//! This fold is the only analysis. A streamed campaign feeds it digests
//! as records leave the crawl; a materialized `Dataset` is folded in
//! index order through [`StreamAggregator::fold_record`], which borrows
//! each record instead of reducing an owned one. Either way the records
//! arrive in announcement order — the order a `Dataset::torrents` holds
//! them — so [`StreamAggregator::finish`] yields the same bytes, float
//! summation order included.
//!
//! The one campaign-sized set — distinct downloader IPs across all
//! swarms (Table 1's "#IP addresses") — goes through
//! [`DistinctU32`], which can spill sorted runs to disk and merge-count
//! them at the end, keeping resident memory fixed.

use std::collections::BTreeMap;

use btpub_crawler::TorrentRecord;
use btpub_fxhash::{FxHashMap, Interner};
use btpub_geodb::GeoDb;
use btpub_sim::content::Category;
use btpub_sim::intervals::IntervalSet;
use btpub_sim::SimDuration;
use btpub_stream::checkpoint::{CheckpointError, Dec, Enc};
use btpub_stream::spill::DistinctU32;

use crate::classify::{ClassAcc, Classified};
use crate::fake::{assign_groups, fake_entities, mapping_stats, GroupSignals, Groups, MappingStats};
use crate::isp::IspAgg;
use crate::publishers::{attribution, resolve_and_sort, IKey, Partial, PublisherKey, PublisherStats};
use crate::seeding::{torrent_sessions, SeedAcc, SeedingMetrics};

/// Offline thresholds tracked by the fold: Appendix A's 2 h / 4 h / 6 h.
/// Index [`DEFAULT_THRESHOLD_IDX`] is the pipeline default (4 h).
pub const SEEDING_THRESHOLDS_H: [f64; 3] = [2.0, 4.0, 6.0];

/// Index of the default 4 h threshold in [`SEEDING_THRESHOLDS_H`].
pub const DEFAULT_THRESHOLD_IDX: usize = 1;

/// What the aggregator needs to know about the campaign up front.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Whether the portal exposes usernames (false for mn08-style runs).
    pub has_usernames: bool,
    /// The top-k cut used for group assignment and mapping stats.
    pub top_k: usize,
}

/// Per-publisher accumulators, keyed by [`IKey`].
#[derive(Default)]
struct PubAcc {
    partial: Partial,
    class: ClassAcc,
    seeding: [SeedAcc; 3],
}

/// Per-identified-IP accumulators (fake entities + §6 are IP-keyed).
#[derive(Default)]
struct IpAcc {
    torrents: Vec<usize>,
    downloads: u64,
    seeding: SeedAcc,
}

/// A [`TorrentRecord`] shrunk to what the order-sensitive fold still
/// needs: the sightings vector — the one payload that grows with a
/// torrent's monitored lifetime — is consumed up front into the
/// per-threshold seeding sessions and dropped. Records may be reduced
/// in *any* order (everything here is a pure function of one record),
/// which is what lets a reorder buffer hold digests instead of full
/// records while waiting for announcement order.
pub struct RecordDigest {
    /// The record, minus its sightings (already folded into `sessions`).
    /// `observed_ips` stays: it is deduplicated at finalize, so its
    /// length is the distinct-downloader count the fold reads.
    pub rec: TorrentRecord,
    /// Seeding sessions at each [`SEEDING_THRESHOLDS_H`] threshold,
    /// present iff the record has an identified publisher IP (the only
    /// case the fold estimates sessions for).
    sessions: Option<[IntervalSet; 3]>,
}

impl RecordDigest {
    /// Reduces one record. Pure and order-free by construction.
    pub fn reduce(mut rec: TorrentRecord) -> RecordDigest {
        let sessions = sessions_of(&rec);
        rec.sightings = Vec::new();
        RecordDigest { rec, sessions }
    }
}

/// A record's seeding sessions at each [`SEEDING_THRESHOLDS_H`]
/// threshold, estimated only when its publisher IP was identified.
fn sessions_of(rec: &TorrentRecord) -> Option<[IntervalSet; 3]> {
    rec.publisher_ip.is_some().then(|| {
        SEEDING_THRESHOLDS_H.map(|hours| torrent_sessions(rec, SimDuration::from_hours(hours)))
    })
}

/// Total order on aggregation keys for byte-stable checkpoint output.
fn ikey_rank(key: &IKey) -> (u8, u32) {
    match key {
        IKey::User(s) => (0, s.index() as u32),
        IKey::Ip(ip) => (1, *ip),
    }
}

fn encode_ikey(enc: &mut Enc, key: &IKey) {
    let (tag, val) = ikey_rank(key);
    enc.u8(tag);
    enc.u32(val);
}

fn decode_ikey(dec: &mut Dec, users: &Interner) -> Result<IKey, CheckpointError> {
    let tag = dec.u8()?;
    let val = dec.u32()?;
    match tag {
        0 => users
            .sym_at(val as usize)
            .map(IKey::User)
            .ok_or(CheckpointError::Decode { what: "IKey symbol index" }),
        1 => Ok(IKey::Ip(val)),
        _ => Err(CheckpointError::Decode { what: "IKey tag" }),
    }
}

/// Campaign-wide scalar totals (Table 1 and the share denominators).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamTotals {
    /// Total torrents crawled.
    pub torrents_total: usize,
    /// Torrents with a username.
    pub torrents_username: usize,
    /// Torrents with an identified publisher IP.
    pub torrents_ip: usize,
    /// Sum of observed downloaders across all torrents.
    pub total_downloads: u64,
    /// Distinct downloader IPs across every swarm.
    pub distinct_ips: usize,
}

/// The record-at-a-time aggregation pipeline.
pub struct StreamAggregator<'d> {
    cfg: StreamConfig,
    db: &'d GeoDb,
    users: Interner,
    pubs: FxHashMap<IKey, PubAcc>,
    per_ip: FxHashMap<u32, IpAcc>,
    pub(crate) signals: GroupSignals,
    isp: IspAgg,
    categories: Vec<Category>,
    distinct: DistinctU32,
    torrents_username: usize,
    torrents_ip: usize,
    total_downloads: u64,
    next_idx: usize,
}

impl<'d> StreamAggregator<'d> {
    /// Creates an aggregator; `distinct` controls whether the global
    /// distinct-IP count stays in memory or spills sorted runs to disk.
    pub fn new(cfg: StreamConfig, db: &'d GeoDb, distinct: DistinctU32) -> Self {
        StreamAggregator {
            cfg,
            db,
            users: Interner::with_capacity(1024),
            pubs: FxHashMap::default(),
            per_ip: FxHashMap::default(),
            signals: GroupSignals::default(),
            isp: IspAgg::default(),
            categories: Vec::new(),
            distinct,
            torrents_username: 0,
            torrents_ip: 0,
            total_downloads: 0,
            next_idx: 0,
        }
    }

    /// Number of records folded so far.
    pub fn records_ingested(&self) -> usize {
        self.next_idx
    }

    /// Folds the next digest in. Digests must be folded in announcement
    /// order — symbol interning, index assignment and float summation
    /// order all depend on it — but because [`RecordDigest::reduce`] is
    /// order-free, a consumer receiving records out of order only ever
    /// buffers digests, never full records.
    pub fn fold(&mut self, digest: &RecordDigest) {
        self.fold_with(&digest.rec, digest.sessions.as_ref());
    }

    /// Folds the next record of a materialized dataset in, borrowed: its
    /// sessions are estimated here, exactly as [`RecordDigest::reduce`]
    /// would, without cloning the record. Same ordering contract as
    /// [`Self::fold`]; the torrent index is the arrival position.
    pub fn fold_record(&mut self, rec: &TorrentRecord) {
        self.fold_with(rec, sessions_of(rec).as_ref());
    }

    /// The fold itself. `sessions` is present iff the record has an
    /// identified publisher IP.
    fn fold_with(&mut self, rec: &TorrentRecord, sessions: Option<&[IntervalSet; 3]>) {
        let idx = self.next_idx;
        self.next_idx += 1;
        self.categories.push(rec.category);
        if rec.username.is_some() {
            self.torrents_username += 1;
        }
        if rec.publisher_ip.is_some() {
            self.torrents_ip += 1;
        }
        self.total_downloads += rec.observed_downloaders() as u64;
        self.distinct.insert_all(&rec.observed_ips);
        // Intern in record order: first appearance wins, so any two folds
        // of the same records agree on every symbol.
        if let Some(u) = &rec.username {
            self.users.intern(u);
        }
        self.signals.observe(rec, &self.users);
        self.isp.observe(rec.publisher_ip, self.db);
        // Per-publisher accumulators (username- or IP-keyed).
        let users = self.cfg.has_usernames.then_some(&self.users);
        let key = attribution(users, rec);
        if let Some(key) = key {
            let acc = self.pubs.entry(key).or_default();
            acc.partial.observe(idx, rec);
            acc.class.observe(rec);
        }
        // Seeding sessions: estimated once per threshold per record, fed
        // to both the publisher-keyed and the IP-keyed accumulators.
        if let Some(ip) = rec.publisher_ip {
            let ip_acc = self.per_ip.entry(u32::from(ip)).or_default();
            ip_acc.torrents.push(idx);
            ip_acc.downloads += rec.observed_downloaders() as u64;
            let sessions3 = sessions.expect("sessions estimated for every identified record");
            for (i, sessions) in sessions3.iter().enumerate() {
                if i == DEFAULT_THRESHOLD_IDX {
                    ip_acc.seeding.observe_sessions(sessions);
                }
                if let Some(key) = key {
                    if let Some(acc) = self.pubs.get_mut(&key) {
                        acc.seeding[i].observe_sessions(sessions);
                    }
                }
            }
        }
    }

    /// Serializes the aggregator's complete fold state for a checkpoint.
    ///
    /// Symbols are written by dense index; the interner itself is written
    /// as its strings in symbol order, so decoding re-interns them and
    /// recovers identical `Sym` values. Hash maps are written key-sorted:
    /// checkpoints of the same state are byte-identical no matter what
    /// iteration order the maps happen to have, and restoring them cannot
    /// perturb the report because nothing report-facing iterates these
    /// maps unsorted (the standing fxhash contract).
    pub fn encode_state(&self, enc: &mut Enc) {
        enc.usize(self.users.len());
        for (_, s) in self.users.iter() {
            enc.str(s);
        }
        let mut pub_keys: Vec<&IKey> = self.pubs.keys().collect();
        pub_keys.sort_by_key(|k| ikey_rank(k));
        enc.usize(pub_keys.len());
        for key in pub_keys {
            encode_ikey(enc, key);
            let acc = &self.pubs[key];
            enc.usize(acc.partial.torrents.len());
            for &t in &acc.partial.torrents {
                enc.usize(t);
            }
            enc.u64(acc.partial.downloads);
            let mut ips: Vec<u32> = acc.partial.ips.iter().copied().collect();
            ips.sort_unstable();
            enc.usize(ips.len());
            for ip in ips {
                enc.u32(ip);
            }
            acc.class.encode_state(enc);
            for s in &acc.seeding {
                s.encode_state(enc);
            }
        }
        let mut ip_keys: Vec<u32> = self.per_ip.keys().copied().collect();
        ip_keys.sort_unstable();
        enc.usize(ip_keys.len());
        for ip in ip_keys {
            enc.u32(ip);
            let acc = &self.per_ip[&ip];
            enc.usize(acc.torrents.len());
            for &t in &acc.torrents {
                enc.usize(t);
            }
            enc.u64(acc.downloads);
            acc.seeding.encode_state(enc);
        }
        self.signals.encode_state(enc);
        self.isp.encode_state(enc);
        enc.usize(self.categories.len());
        for cat in &self.categories {
            let idx = Category::ALL
                .iter()
                .position(|c| c == cat)
                .expect("category in Category::ALL");
            enc.u8(idx as u8);
        }
        self.distinct.encode_state(enc);
        enc.usize(self.torrents_username);
        enc.usize(self.torrents_ip);
        enc.u64(self.total_downloads);
        enc.usize(self.next_idx);
    }

    /// Restores an aggregator from [`Self::encode_state`] bytes. `spill`
    /// mirrors the `DistinctU32` construction arguments of the current
    /// run; a checkpoint holding spilled runs is refused without one.
    pub fn decode_state(
        cfg: StreamConfig,
        db: &'d GeoDb,
        spill: Option<(&std::path::Path, usize)>,
        dec: &mut Dec,
    ) -> Result<Self, CheckpointError> {
        let mut users = Interner::with_capacity(1024);
        for _ in 0..dec.usize()? {
            let s = dec.str()?;
            users.intern(&s);
        }
        let mut pubs: FxHashMap<IKey, PubAcc> = FxHashMap::default();
        for _ in 0..dec.usize()? {
            let key = decode_ikey(dec, &users)?;
            let mut partial = Partial::default();
            for _ in 0..dec.usize()? {
                partial.torrents.push(dec.usize()?);
            }
            partial.downloads = dec.u64()?;
            for _ in 0..dec.usize()? {
                partial.ips.insert(dec.u32()?);
            }
            let class = ClassAcc::decode_state(dec)?;
            let seeding = [
                SeedAcc::decode_state(dec)?,
                SeedAcc::decode_state(dec)?,
                SeedAcc::decode_state(dec)?,
            ];
            pubs.insert(key, PubAcc { partial, class, seeding });
        }
        let mut per_ip: FxHashMap<u32, IpAcc> = FxHashMap::default();
        for _ in 0..dec.usize()? {
            let ip = dec.u32()?;
            let mut acc = IpAcc::default();
            for _ in 0..dec.usize()? {
                acc.torrents.push(dec.usize()?);
            }
            acc.downloads = dec.u64()?;
            acc.seeding = SeedAcc::decode_state(dec)?;
            per_ip.insert(ip, acc);
        }
        let signals = GroupSignals::decode_state(dec, &users)?;
        let isp = IspAgg::decode_state(dec)?;
        let n_cats = dec.usize()?;
        let mut categories = Vec::with_capacity(n_cats.min(1 << 20));
        for _ in 0..n_cats {
            let idx = dec.u8()? as usize;
            let cat = Category::ALL
                .get(idx)
                .copied()
                .ok_or(CheckpointError::Decode { what: "Category index" })?;
            categories.push(cat);
        }
        let distinct = DistinctU32::decode_state(dec, spill)?;
        Ok(StreamAggregator {
            cfg,
            db,
            users,
            pubs,
            per_ip,
            signals,
            isp,
            categories,
            distinct,
            torrents_username: dec.usize()?,
            torrents_ip: dec.usize()?,
            total_downloads: dec.u64()?,
            next_idx: dec.usize()?,
        })
    }

    /// Finishes the aggregation: resolves, sorts, detects, classifies.
    pub fn finish(self) -> StreamAnalyses {
        let _span = btpub_obs::span!("analysis.stream_finish");
        let StreamAggregator {
            cfg,
            db,
            users,
            pubs,
            per_ip,
            signals,
            isp,
            categories,
            distinct,
            torrents_username,
            torrents_ip,
            total_downloads,
            next_idx,
        } = self;
        let mut partials: FxHashMap<IKey, Partial> = FxHashMap::default();
        let mut extras: FxHashMap<IKey, (ClassAcc, [SeedAcc; 3])> = FxHashMap::default();
        for (key, acc) in pubs {
            partials.insert(key, acc.partial);
            extras.insert(key, (acc.class, acc.seeding));
        }
        let users_opt = cfg.has_usernames.then_some(&users);
        let publishers = resolve_and_sort(partials, users_opt);
        let groups = assign_groups(&signals, &publishers, db, cfg.top_k, users_opt);
        let ikey_of = |key: &PublisherKey| -> Option<IKey> {
            match key {
                PublisherKey::Username(u) => users.get(u).map(IKey::User),
                PublisherKey::Ip(ip) => Some(IKey::Ip(*ip)),
            }
        };
        // Classification, in Top order.
        let classified: Vec<Classified> = groups
            .top
            .iter()
            .filter_map(|key| {
                let ik = ikey_of(key)?;
                let (class_acc, _) = extras.get(&ik)?;
                Some(class_acc.clone().finish(key.clone()))
            })
            .collect();
        // Per-publisher seeding metrics at every tracked threshold.
        let mut seeding: FxHashMap<PublisherKey, [Option<SeedingMetrics>; 3]> =
            FxHashMap::default();
        for p in &publishers {
            let Some(ik) = ikey_of(&p.key) else { continue };
            let Some((_, accs)) = extras.get(&ik) else { continue };
            let metrics = [accs[0].metrics(), accs[1].metrics(), accs[2].metrics()];
            seeding.insert(p.key.clone(), metrics);
        }
        // IP-keyed fake entities (the ascending-IP BTreeMap fixes the
        // sort's tie order).
        let mut fake_per_ip: BTreeMap<u32, (Vec<usize>, u64)> = BTreeMap::new();
        let mut fake_seeding: FxHashMap<u32, Option<SeedingMetrics>> = FxHashMap::default();
        for (ip, acc) in per_ip {
            if !groups.fake_ips.contains(&ip) {
                continue;
            }
            fake_seeding.insert(ip, acc.seeding.metrics());
            fake_per_ip.insert(ip, (acc.torrents, acc.downloads));
        }
        let fake_entities = fake_entities(fake_per_ip);
        let mapping = mapping_stats(&publishers, db, cfg.top_k, &users, &signals);
        let totals = StreamTotals {
            torrents_total: next_idx,
            torrents_username,
            torrents_ip,
            total_downloads,
            distinct_ips: distinct.finish() as usize,
        };
        StreamAnalyses {
            publishers,
            groups,
            classified,
            fake_entities,
            mapping,
            isp,
            categories,
            totals,
            seeding,
            fake_seeding,
        }
    }
}

/// Everything the report needs, as the fold finished it.
pub struct StreamAnalyses {
    /// Per-publisher aggregation, sorted by content count descending
    /// (then downloads descending, then key).
    pub publishers: Vec<PublisherStats>,
    /// §3.3 group assignment.
    pub groups: Groups,
    /// §5.1 classification of the Top set.
    pub classified: Vec<Classified>,
    /// IP-keyed fake entities (Figure 4's Fake unit).
    pub fake_entities: Vec<PublisherStats>,
    /// §3.3 username↔IP mapping statistics.
    pub mapping: MappingStats,
    /// Per-ISP aggregate behind Tables 2–3 and §6.
    pub isp: IspAgg,
    /// One category per torrent, in announcement order (Figure 2).
    pub categories: Vec<Category>,
    /// Campaign-wide totals (Table 1, share denominators).
    pub totals: StreamTotals,
    /// Per-publisher seeding metrics at the 2 h / 4 h / 6 h thresholds.
    pub seeding: FxHashMap<PublisherKey, [Option<SeedingMetrics>; 3]>,
    /// Per-fake-IP-entity seeding metrics at the default threshold.
    pub fake_seeding: FxHashMap<u32, Option<SeedingMetrics>>,
}

impl StreamAnalyses {
    /// A publisher's seeding metrics at one tracked threshold index.
    pub fn seeding_of(&self, key: &PublisherKey, threshold_idx: usize) -> Option<SeedingMetrics> {
        self.seeding.get(key).and_then(|m| m[threshold_idx])
    }

    /// A fake entity's seeding metrics at the default threshold.
    pub fn fake_seeding_of(&self, key: &PublisherKey) -> Option<SeedingMetrics> {
        match key {
            PublisherKey::Ip(ip) => self.fake_seeding.get(ip).copied().flatten(),
            PublisherKey::Username(_) => None,
        }
    }
}

/// Folds a materialized dataset in index order — exactly what
/// `Study::analyze` does — for the per-analysis unit tests of this crate.
#[cfg(test)]
pub(crate) fn fold_dataset<'d>(
    ds: &btpub_crawler::Dataset,
    db: &'d GeoDb,
    top_k: usize,
) -> StreamAggregator<'d> {
    let cfg = StreamConfig { has_usernames: ds.has_usernames, top_k };
    let mut agg = StreamAggregator::new(cfg, db, DistinctU32::in_memory());
    for rec in &ds.torrents {
        agg.fold_record(rec);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::default_offline_threshold;
    use btpub_sim::profile::BusinessClass;
    use btpub_crawler::{Dataset, Sighting};
    use btpub_geodb::{GeoDbBuilder, IspKind};
    use btpub_sim::{SimTime, TorrentId};
    use std::net::Ipv4Addr;

    fn db() -> GeoDb {
        let mut b = GeoDbBuilder::new();
        let hp = b.add_isp("HostCo", IspKind::HostingProvider, "US");
        let ci = b.add_isp("CableCo", IspKind::CommercialIsp, "US");
        let loc = b.add_location("X", "US");
        b.add_slash16(0x0A00, hp, loc);
        b.add_slash16(0x1800, ci, loc);
        b.build().unwrap()
    }

    fn rec(
        id: u32,
        user: &str,
        ip: Option<[u8; 4]>,
        removed: bool,
        cat: Category,
    ) -> TorrentRecord {
        let sightings = (0..12)
            .map(|i| Sighting {
                at: SimTime::from_hours(f64::from(id) + f64::from(i) * 0.25),
                complete: 1,
                incomplete: 2,
                sampled: 3,
                publisher_seen: ip.is_some() && i % 2 == 0,
            })
            .collect();
        TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(u64::from(id)),
            first_contact_at: Some(SimTime(u64::from(id))),
            category: cat,
            title: format!("t{id}"),
            filename: format!("Rls.{id}.DVDRip-promo{}.com", id % 3),
            textbox: id.is_multiple_of(2).then(|| format!("visit http://www.site{}.net", id % 3)),
            size_bytes: 100,
            username: Some(user.into()),
            language: id.is_multiple_of(2).then(|| "es".to_string()),
            publisher_ip: ip.map(Ipv4Addr::from),
            ip_failure: None,
            first_complete: 1,
            first_incomplete: 0,
            sightings,
            observed_ips: vec![id * 3, id * 3 + 1, 7],
            observed_removed: removed,
        }
    }

    fn dataset() -> Dataset {
        let mut torrents = Vec::new();
        // A hosted top publisher, a cable publisher, a fake mill on one
        // IP with a takedown, and a long tail.
        for i in 0..6 {
            torrents.push(rec(i, "bighost", Some([10, 0, 0, 1]), false, Category::Movies));
        }
        for i in 6..10 {
            torrents.push(rec(i, "cable", Some([24, 0, 0, 9]), false, Category::TvShows));
        }
        torrents.push(rec(10, "mill-a", Some([10, 0, 9, 9]), true, Category::Porn));
        torrents.push(rec(11, "mill-b", Some([10, 0, 9, 9]), false, Category::Porn));
        torrents.push(rec(12, "mill-c", Some([10, 0, 9, 9]), false, Category::Porn));
        for i in 13..20 {
            torrents.push(rec(i, &format!("small{i}"), None, false, Category::Audio));
        }
        Dataset {
            name: "stream-test".into(),
            start: SimTime(0),
            end: SimTime::from_hours(100.0),
            has_usernames: true,
            torrents,
        }
    }

    fn user(name: &str) -> PublisherKey {
        PublisherKey::Username(name.into())
    }

    fn ip(octets: [u8; 4]) -> u32 {
        u32::from(Ipv4Addr::from(octets))
    }

    /// What the fold must recover from the hand-built dataset: publisher
    /// ranking, both fake signals, the compromised top-k accounts, the
    /// IP-keyed fake entity, classification, §3.3 mapping, the ISP tables,
    /// the Table 1 totals and the per-record seeding sessions.
    #[test]
    fn fold_recovers_groups_entities_and_totals() {
        let ds = dataset();
        let database = db();
        let s = fold_dataset(&ds, &database, 5).finish();
        let keys: Vec<PublisherKey> = s.publishers.iter().map(|p| p.key.clone()).collect();
        let top5 = ["bighost", "cable", "mill-a", "mill-b", "mill-c"].map(user);
        assert_eq!(keys[..5], top5);
        assert_eq!(s.publishers.len(), 12);
        assert_eq!(s.publishers[0].torrents, (0..6).collect::<Vec<_>>());
        assert_eq!(s.publishers[0].downloads, 18);
        // Takedown taint plus the three-account mill on one server IP.
        let fakes: std::collections::BTreeSet<&str> =
            s.groups.fake_usernames.iter().map(String::as_str).collect();
        assert_eq!(fakes, ["mill-a", "mill-b", "mill-c"].into());
        assert_eq!(s.groups.fake_ips, [ip([10, 0, 9, 9])].into_iter().collect());
        assert_eq!(s.groups.compromised_in_top_k, 3);
        assert_eq!(s.groups.top, [user("bighost"), user("cable")]);
        assert_eq!(s.groups.top_hp, [user("bighost")].into_iter().collect());
        assert_eq!(s.groups.top_ci, [user("cable")].into_iter().collect());
        // One classification per Top publisher, in Top order.
        let classes: Vec<_> = s.classified.iter().map(|c| (c.key.clone(), c.class)).collect();
        assert_eq!(
            classes,
            [(user("bighost"), BusinessClass::BtPortal), (user("cable"), BusinessClass::BtPortal)]
        );
        // The mill is one IP-keyed entity.
        assert_eq!(s.fake_entities.len(), 1);
        assert_eq!(s.fake_entities[0].key, PublisherKey::Ip(ip([10, 0, 9, 9])));
        assert_eq!(s.fake_entities[0].torrents, [10, 11, 12]);
        assert_eq!(s.fake_entities[0].downloads, 9);
        // §3.3: two of the three top IPs carry one username; every top
        // username publishes from one IP.
        assert!((s.mapping.top_ips_unique_username - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.mapping.single_ip - 1.0).abs() < 1e-9);
        // Tables 2-3.
        let t2: Vec<(String, f64)> =
            s.isp.top_isps(&database, 10).into_iter().map(|r| (r.name, r.pct_content)).collect();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2[0].0, "HostCo");
        assert!((t2[0].1 - 100.0 * 9.0 / 13.0).abs() < 1e-9);
        let host = s.isp.footprint(&database, "HostCo");
        assert_eq!((host.fed_torrents, host.ip_addresses, host.prefixes16), (9, 2, 1));
        // Table 1.
        assert_eq!(s.totals.torrents_total, ds.torrent_count());
        assert_eq!(s.totals.torrents_username, ds.username_identified_count());
        assert_eq!(s.totals.torrents_ip, ds.ip_identified_count());
        assert_eq!(s.totals.distinct_ips, ds.distinct_ip_count());
        // Seeding metrics are the per-record session estimates, folded
        // per publisher and per fake entity.
        let expect = |torrents: &[usize]| {
            let mut acc = SeedAcc::default();
            for &t in torrents {
                let rec = &ds.torrents[t];
                acc.observe_sessions(&torrent_sessions(rec, default_offline_threshold()));
            }
            acc.metrics()
        };
        assert!(s.seeding_of(&user("bighost"), DEFAULT_THRESHOLD_IDX).is_some());
        for p in &s.publishers {
            let got = s.seeding_of(&p.key, DEFAULT_THRESHOLD_IDX);
            assert_eq!(got, expect(&p.torrents), "{}", p.key);
        }
        for entity in &s.fake_entities {
            assert_eq!(s.fake_seeding_of(&entity.key), expect(&entity.torrents));
        }
    }

    /// A borrowed fold and a digest fold of the same records are one fold.
    #[test]
    fn fold_record_equals_folding_reduced_digests() {
        let ds = dataset();
        let database = db();
        let cfg = StreamConfig { has_usernames: true, top_k: 5 };
        let mut digests = StreamAggregator::new(cfg, &database, DistinctU32::in_memory());
        for rec in &ds.torrents {
            digests.fold(&RecordDigest::reduce(rec.clone()));
        }
        let (mut a, mut b) = (Enc::new(), Enc::new());
        fold_dataset(&ds, &database, 5).encode_state(&mut a);
        digests.encode_state(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn aggregator_state_roundtrips_mid_campaign() {
        let ds = dataset();
        let database = db();
        let cfg = StreamConfig { has_usernames: true, top_k: 5 };
        let mut a = StreamAggregator::new(cfg.clone(), &database, DistinctU32::in_memory());
        for rec in &ds.torrents[..10] {
            a.fold_record(rec);
        }
        let mut enc = Enc::new();
        a.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut b =
            StreamAggregator::decode_state(cfg, &database, None, &mut Dec::new(&bytes)).unwrap();
        // Folding the rest into the original and the restored copy must
        // leave them in byte-identical states…
        for rec in &ds.torrents[10..] {
            a.fold_record(rec);
            b.fold_record(rec);
        }
        let (mut ea, mut eb) = (Enc::new(), Enc::new());
        a.encode_state(&mut ea);
        b.encode_state(&mut eb);
        assert_eq!(ea.into_bytes(), eb.into_bytes());
        // …and identical states finish into identical analyses.
        let sa = a.finish();
        let sb = b.finish();
        assert_eq!(sa.publishers, sb.publishers);
        assert_eq!(sa.classified, sb.classified);
        assert_eq!(sa.fake_entities, sb.fake_entities);
        assert_eq!(sa.totals, sb.totals);
    }

    #[test]
    fn checkpoint_bytes_are_stable_for_identical_folds() {
        // Two aggregators fed the same records must emit the same
        // checkpoint bytes — map iteration order must not leak.
        let ds = dataset();
        let database = db();
        let encode = || {
            let mut enc = Enc::new();
            fold_dataset(&ds, &database, 5).encode_state(&mut enc);
            enc.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn fold_in_ip_mode_keys_publishers_by_ip() {
        let mut ds = dataset();
        ds.has_usernames = false;
        for t in &mut ds.torrents {
            t.username = None;
        }
        let database = db();
        let s = fold_dataset(&ds, &database, 5).finish();
        let by_ip = |o| PublisherKey::Ip(ip(o));
        let keys: Vec<PublisherKey> = s.publishers.iter().map(|p| p.key.clone()).collect();
        assert_eq!(keys, [by_ip([10, 0, 0, 1]), by_ip([24, 0, 0, 9]), by_ip([10, 0, 9, 9])]);
        // No username signal: the top-k by IP is the Top group.
        assert_eq!(s.groups.top, keys);
        assert!(s.groups.fake_usernames.is_empty());
        assert_eq!(s.classified.len(), 3);
        assert_eq!(s.totals.torrents_username, 0);
    }
}
