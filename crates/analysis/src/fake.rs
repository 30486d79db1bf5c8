//! §3.3: fake-publisher detection and group assignment.
//!
//! Two signals expose fake publishers, both available to the crawler
//! without ground truth:
//!
//! 1. **account takedowns** — portals remove fake listings and ban the
//!    accounts; a username any of whose torrents was observed removed is
//!    fake-tainted (the paper: "we exploit this fact to identify if a
//!    username has been used by a fake publisher");
//! 2. **IP ↔ username fan-out** — fake entities publish under many hacked
//!    or throwaway accounts from the same rented servers, so an initial-
//!    seeder IP mapping to several usernames is a fake-publisher IP.
//!
//! The *Top* group is then the top-`k` username ranking minus the tainted
//! accounts, split into Top-HP / Top-CI by each publisher's dominant ISP
//! kind.

use btpub_crawler::TorrentRecord;
use btpub_fxhash::{FxHashMap, FxHashSet, Interner, Sym};
use btpub_geodb::{GeoDb, IspKind};

use crate::isp::dominant_kind;
use crate::publishers::{PublisherKey, PublisherStats};

/// The analysis groups of §4's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// A random sample of all publishers (the paper uses 400).
    All,
    /// Fake publishers.
    Fake,
    /// Top-k non-fake publishers.
    Top,
    /// Top publishers at hosting providers.
    TopHp,
    /// Top publishers at commercial ISPs.
    TopCi,
}

impl Group {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Group::All => "All",
            Group::Fake => "Fake",
            Group::Top => "Top",
            Group::TopHp => "Top-HP",
            Group::TopCi => "Top-CI",
        }
    }

    /// All groups in figure order.
    pub const ALL: [Group; 5] = [Group::All, Group::Fake, Group::Top, Group::TopHp, Group::TopCi];
}

/// Result of group assignment.
#[derive(Debug, Clone, Default)]
pub struct Groups {
    /// Usernames flagged as fake (tainted by takedowns or fake IPs).
    pub fake_usernames: FxHashSet<String>,
    /// Initial-seeder IPs attributed to fake entities.
    pub fake_ips: FxHashSet<u32>,
    /// The Top set: top-k ranking minus fake-tainted usernames.
    pub top: Vec<PublisherKey>,
    /// Top publishers whose dominant ISP is a hosting provider.
    pub top_hp: FxHashSet<PublisherKey>,
    /// Top publishers whose dominant ISP is a commercial ISP.
    pub top_ci: FxHashSet<PublisherKey>,
    /// How many of the original top-k were dropped as compromised.
    pub compromised_in_top_k: usize,
}

impl Groups {
    /// Whether a publisher key belongs to a group.
    pub fn contains(&self, key: &PublisherKey, group: Group) -> bool {
        match group {
            Group::All => true,
            Group::Fake => match key {
                PublisherKey::Username(u) => self.fake_usernames.contains(u),
                PublisherKey::Ip(ip) => self.fake_ips.contains(ip),
            },
            Group::Top => self.top.contains(key),
            Group::TopHp => self.top_hp.contains(key),
            Group::TopCi => self.top_ci.contains(key),
        }
    }
}

/// Minimum distinct usernames on one IP to call it a fake-publisher IP.
pub const FAKE_IP_USERNAME_THRESHOLD: usize = 3;

/// The per-record evidence §3.3's detection consumes, accumulated one
/// record at a time by the [`crate::streaming::StreamAggregator`] fold
/// and read by [`assign_groups`] and [`mapping_stats`].
#[derive(Debug, Clone, Default)]
pub struct GroupSignals {
    /// Usernames tainted by takedowns (signal 1).
    pub fake_syms: FxHashSet<Sym>,
    /// IP → usernames it published under (signal 2 fan-out).
    pub by_ip: FxHashMap<u32, FxHashSet<Sym>>,
    /// IP → (identified torrents, removed torrents) — the corroboration.
    pub ip_removed: FxHashMap<u32, (usize, usize)>,
    /// (username, IP) → torrents identified from that pair (§3.3 mapping).
    pub ip_torrents: FxHashMap<(Sym, u32), usize>,
    /// IP → identified content count (the top-IP ranking's raw counts).
    pub ip_content: FxHashMap<u32, usize>,
}

impl GroupSignals {
    /// Folds one record's evidence in. `users` must already contain the
    /// record's username (interning happens in record order upstream).
    pub fn observe(&mut self, rec: &TorrentRecord, users: &Interner) {
        let sym = rec
            .username
            .as_ref()
            .map(|u| users.get(u).expect("username interned"));
        if rec.observed_removed {
            if let Some(sym) = sym {
                self.fake_syms.insert(sym);
            }
        }
        if let Some(ip) = rec.publisher_ip {
            let ip = u32::from(ip);
            let e = self.ip_removed.entry(ip).or_default();
            e.0 += 1;
            e.1 += usize::from(rec.observed_removed);
            *self.ip_content.entry(ip).or_default() += 1;
            if let Some(sym) = sym {
                self.by_ip.entry(ip).or_default().insert(sym);
                *self.ip_torrents.entry((sym, ip)).or_default() += 1;
            }
        }
    }

    /// Serializes the evidence for a checkpoint. Symbols are written by
    /// dense index (re-interning the same usernames in the same order
    /// reconstructs them); every map and set is key-sorted so the same
    /// state always yields the same bytes.
    pub fn encode_state(&self, enc: &mut btpub_stream::checkpoint::Enc) {
        let mut syms: Vec<u32> = self.fake_syms.iter().map(|s| s.index() as u32).collect();
        syms.sort_unstable();
        enc.usize(syms.len());
        for s in syms {
            enc.u32(s);
        }
        let mut by_ip: Vec<(u32, Vec<u32>)> = self
            .by_ip
            .iter()
            .map(|(&ip, set)| {
                let mut inner: Vec<u32> = set.iter().map(|s| s.index() as u32).collect();
                inner.sort_unstable();
                (ip, inner)
            })
            .collect();
        by_ip.sort_unstable();
        enc.usize(by_ip.len());
        for (ip, inner) in by_ip {
            enc.u32(ip);
            enc.usize(inner.len());
            for s in inner {
                enc.u32(s);
            }
        }
        let mut removed: Vec<(u32, (usize, usize))> =
            self.ip_removed.iter().map(|(&ip, &v)| (ip, v)).collect();
        removed.sort_unstable();
        enc.usize(removed.len());
        for (ip, (total, rm)) in removed {
            enc.u32(ip);
            enc.usize(total);
            enc.usize(rm);
        }
        let mut pairs: Vec<((u32, u32), usize)> = self
            .ip_torrents
            .iter()
            .map(|(&(sym, ip), &n)| ((sym.index() as u32, ip), n))
            .collect();
        pairs.sort_unstable();
        enc.usize(pairs.len());
        for ((sym, ip), n) in pairs {
            enc.u32(sym);
            enc.u32(ip);
            enc.usize(n);
        }
        let mut content: Vec<(u32, usize)> =
            self.ip_content.iter().map(|(&ip, &n)| (ip, n)).collect();
        content.sort_unstable();
        enc.usize(content.len());
        for (ip, n) in content {
            enc.u32(ip);
            enc.usize(n);
        }
    }

    /// Restores from [`Self::encode_state`] bytes. `users` must already
    /// hold the re-interned usernames of the resumed fold.
    pub fn decode_state(
        dec: &mut btpub_stream::checkpoint::Dec,
        users: &Interner,
    ) -> Result<Self, btpub_stream::checkpoint::CheckpointError> {
        use btpub_stream::checkpoint::CheckpointError;
        let sym = |idx: u32| {
            users
                .sym_at(idx as usize)
                .ok_or(CheckpointError::Decode { what: "GroupSignals symbol index" })
        };
        let mut out = GroupSignals::default();
        for _ in 0..dec.usize()? {
            out.fake_syms.insert(sym(dec.u32()?)?);
        }
        for _ in 0..dec.usize()? {
            let ip = dec.u32()?;
            let n = dec.usize()?;
            let mut set = FxHashSet::default();
            for _ in 0..n {
                set.insert(sym(dec.u32()?)?);
            }
            out.by_ip.insert(ip, set);
        }
        for _ in 0..dec.usize()? {
            let ip = dec.u32()?;
            let total = dec.usize()?;
            let rm = dec.usize()?;
            out.ip_removed.insert(ip, (total, rm));
        }
        for _ in 0..dec.usize()? {
            let s = sym(dec.u32()?)?;
            let ip = dec.u32()?;
            let n = dec.usize()?;
            out.ip_torrents.insert((s, ip), n);
        }
        for _ in 0..dec.usize()? {
            let ip = dec.u32()?;
            let n = dec.usize()?;
            out.ip_content.insert(ip, n);
        }
        Ok(out)
    }

    /// Content counts per identified IP, sorted descending (ties by
    /// ascending IP) — the "top-100 IP addresses" ranking of §3.3.
    pub fn top_ips(&self) -> Vec<(u32, usize)> {
        let mut out: Vec<(u32, usize)> = self.ip_content.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// Runs §3.3's detection and grouping: turns the accumulated per-record
/// evidence into group assignments. `users` is `None` for mn08-style
/// datasets without usernames.
pub fn assign_groups(
    signals: &GroupSignals,
    publishers: &[PublisherStats],
    db: &GeoDb,
    top_k: usize,
    users: Option<&Interner>,
) -> Groups {
    let mut groups = Groups::default();
    let Some(users) = users else {
        // mn08 mode: no username signal; groups reduce to top-by-IP.
        for p in publishers.iter().take(top_k) {
            groups.top.push(p.key.clone());
            match dominant_kind(p, db) {
                Some(IspKind::HostingProvider) => {
                    groups.top_hp.insert(p.key.clone());
                }
                Some(IspKind::CommercialIsp) => {
                    groups.top_ci.insert(p.key.clone());
                }
                None => {}
            }
        }
        return groups;
    };
    // Signal 1 (takedowns) arrives pre-accumulated in `fake_syms`.
    let mut fake_syms = signals.fake_syms.clone();
    // Signal 2: IP → many usernames, corroborated by takedowns. The
    // corroboration matters: a compromised *genuine* publisher's servers
    // must not be labelled fake because one hacked username also appears
    // on them (the hacked publications are seeded from the fake entity's
    // servers, not the victim's), and a one-off misidentified downloader
    // on a removed listing must not be labelled either.
    for (ip, usernames) in &signals.by_ip {
        let (identified, removed) = signals.ip_removed.get(ip).copied().unwrap_or((0, 0));
        let mostly_removed = identified >= 2 && removed * 2 >= identified;
        let username_mill = usernames.len() >= FAKE_IP_USERNAME_THRESHOLD && removed > 0;
        if username_mill || mostly_removed {
            groups.fake_ips.insert(*ip);
        }
    }
    // Usernames published from fake IPs are fake too (throwaway accounts
    // whose torrents happened not to be removed yet).
    for (ip, usernames) in &signals.by_ip {
        if groups.fake_ips.contains(ip) {
            fake_syms.extend(usernames);
        }
    }
    // Report boundary: one string clone per tainted username.
    groups.fake_usernames = fake_syms.iter().map(|&s| users.resolve(s).to_string()).collect();
    // Exception: a username that is ALSO heavily published from clean IPs
    // is a compromised genuine account, not a fake entity. Keep it tainted
    // (excluded from Top) but do not propagate its clean IPs.
    // Top = top-k minus tainted.
    for p in publishers.iter().take(top_k) {
        let tainted = match &p.key {
            PublisherKey::Username(u) => {
                users.get(u).is_some_and(|s| fake_syms.contains(&s))
            }
            PublisherKey::Ip(ip) => groups.fake_ips.contains(ip),
        };
        if tainted {
            groups.compromised_in_top_k += 1;
            continue;
        }
        groups.top.push(p.key.clone());
        match dominant_kind(p, db) {
            Some(IspKind::HostingProvider) => {
                groups.top_hp.insert(p.key.clone());
            }
            Some(IspKind::CommercialIsp) => {
                groups.top_ci.insert(p.key.clone());
            }
            None => {}
        }
    }
    groups
}

/// Content and download shares of a group, over campaign-wide totals
/// (§3.3's "fake publishers are responsible for 30 % of content and 25 %
/// of downloads"; Top: 37 % / 50 %). A member's torrent count and
/// download total are already held in its [`PublisherStats`], so summing
/// those per publisher is integer-identical to walking the member
/// torrents one by one.
pub fn group_shares(
    publishers: &[PublisherStats],
    groups: &Groups,
    group: Group,
    total_content: usize,
    total_downloads: u64,
) -> (f64, f64) {
    let (content, downloads) = publishers
        .iter()
        .filter(|p| groups.contains(&p.key, group))
        .fold((0usize, 0u64), |(c, d), p| {
            (c + p.content_count(), d + p.downloads)
        });
    (
        content as f64 / (total_content as f64).max(1.0),
        downloads as f64 / (total_downloads.max(1)) as f64,
    )
}

/// Builds per-*entity* stats for the fake group, keyed by initial-seeder
/// IP rather than username.
///
/// Fake entities publish under hundreds of throwaway accounts, so
/// username-keyed aggregation would dilute their signature to one or two
/// torrents per "publisher". The paper studies fake publishers as the
/// server IPs at their three hosting providers; this mirrors that.
///
/// Takes per-IP (torrent indices, downloads) accumulators — keyed
/// ascending by IP, fake IPs only — and returns the sorted entity list.
/// The sort is stable, so ties keep the ascending-IP order of the
/// `BTreeMap`.
pub fn fake_entities(
    per_ip: std::collections::BTreeMap<u32, (Vec<usize>, u64)>,
) -> Vec<PublisherStats> {
    let mut out: Vec<PublisherStats> = per_ip
        .into_iter()
        .map(|(ip, (torrents, downloads))| PublisherStats {
            key: PublisherKey::Ip(ip),
            torrents,
            downloads,
            ips: [ip].into_iter().collect(),
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.content_count()));
    out
}

/// §3.3's username↔IP mapping statistics for the top-k publishers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MappingStats {
    /// Of the top-k *IPs*: fraction used by exactly one username
    /// (paper: 55 %).
    pub top_ips_unique_username: f64,
    /// Of the top-k *usernames*: fraction operating from a single IP
    /// (paper: 25 %).
    pub single_ip: f64,
    /// Fraction with multiple IPs at hosting providers (paper: 34 %,
    /// 5.7 IPs on average).
    pub multi_ip_hosting: f64,
    /// Average IP count in that class.
    pub avg_ips_hosting: f64,
    /// Fraction with multiple IPs inside one commercial ISP — DHCP churn
    /// (paper: 24 %, 13.8 IPs on average).
    pub multi_ip_single_ci: f64,
    /// Average IP count in that class.
    pub avg_ips_single_ci: f64,
    /// Fraction with IPs at several commercial ISPs — home + work
    /// (paper: 16 %).
    pub multi_ip_multi_ci: f64,
    /// Average IP count in that class.
    pub avg_ips_multi_ci: f64,
}

/// Computes [`MappingStats`] over the top-k of each ranking, from the
/// evidence the fold accumulated.
pub fn mapping_stats(
    publishers: &[PublisherStats],
    db: &GeoDb,
    top_k: usize,
    users: &Interner,
    signals: &GroupSignals,
) -> MappingStats {
    let GroupSignals { by_ip, ip_torrents, .. } = signals;
    let mut stats = MappingStats::default();
    // Top IPs side.
    let top_ips = signals.top_ips();
    let considered: Vec<&(u32, usize)> = top_ips.iter().take(top_k).collect();
    if !considered.is_empty() {
        let unique = considered
            .iter()
            .filter(|(ip, _)| by_ip.get(ip).is_some_and(|u| u.len() == 1))
            .count();
        stats.top_ips_unique_username = unique as f64 / considered.len() as f64;
    }
    // Top usernames side: classify multi-IP patterns. A publisher's IP
    // set can contain rare misidentifications (a completed downloader
    // mistaken for the initial seeder), so only *significant* IPs — those
    // behind at least 10 % of the publisher's identified torrents — drive
    // the classification, mirroring the paper's manual inspection.
    let mut counts: FxHashMap<&'static str, (usize, f64)> = FxHashMap::default();
    let mut total = 0usize;
    for p in publishers.iter().take(top_k) {
        if p.ips.is_empty() {
            continue; // never identified; the paper cannot classify these
        }
        let username = match &p.key {
            crate::publishers::PublisherKey::Username(u) => users.get(u),
            crate::publishers::PublisherKey::Ip(_) => None,
        };
        let identified: usize = p
            .ips
            .iter()
            .map(|&ip| {
                username
                    .and_then(|u| ip_torrents.get(&(u, ip)))
                    .copied()
                    .unwrap_or(1)
            })
            .sum();
        let cutoff = (identified as f64 * 0.10).ceil() as usize;
        let significant: Vec<u32> = p
            .ips
            .iter()
            .copied()
            .filter(|&ip| {
                username
                    .and_then(|u| ip_torrents.get(&(u, ip)))
                    .copied()
                    .unwrap_or(1)
                    >= cutoff.max(1)
            })
            .collect();
        if significant.is_empty() {
            continue;
        }
        total += 1;
        let n_ips = significant.len() as f64;
        if significant.len() == 1 {
            counts.entry("single").or_default().0 += 1;
            continue;
        }
        let mut kinds = FxHashSet::default();
        let mut isps = FxHashSet::default();
        for &ip in &significant {
            if let Some(info) = db.lookup(std::net::Ipv4Addr::from(ip)) {
                kinds.insert(db.isp(info.isp).kind);
                isps.insert(info.isp);
            }
        }
        let class = if kinds.contains(&IspKind::HostingProvider) {
            "hosting"
        } else if isps.len() == 1 {
            "single_ci"
        } else {
            "multi_ci"
        };
        let e = counts.entry(class).or_default();
        e.0 += 1;
        e.1 += n_ips;
    }
    if total > 0 {
        let t = total as f64;
        let get = |k: &str| counts.get(k).copied().unwrap_or_default();
        stats.single_ip = get("single").0 as f64 / t;
        let (hc, hs) = get("hosting");
        stats.multi_ip_hosting = hc as f64 / t;
        stats.avg_ips_hosting = if hc > 0 { hs / hc as f64 } else { 0.0 };
        let (sc, ss) = get("single_ci");
        stats.multi_ip_single_ci = sc as f64 / t;
        stats.avg_ips_single_ci = if sc > 0 { ss / sc as f64 } else { 0.0 };
        let (mc, ms) = get("multi_ci");
        stats.multi_ip_multi_ci = mc as f64 / t;
        stats.avg_ips_multi_ci = if mc > 0 { ms / mc as f64 } else { 0.0 };
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{fold_dataset, StreamAnalyses};
    use btpub_crawler::{Dataset, TorrentRecord};
    use btpub_geodb::GeoDbBuilder;
    use btpub_sim::content::Category;
    use btpub_sim::{SimTime, TorrentId};
    use std::net::Ipv4Addr;

    fn db() -> GeoDb {
        let mut b = GeoDbBuilder::new();
        let hp = b.add_isp("HostCo", IspKind::HostingProvider, "US");
        let ci1 = b.add_isp("CableCo", IspKind::CommercialIsp, "US");
        let ci2 = b.add_isp("DslCo", IspKind::CommercialIsp, "US");
        let loc = b.add_location("X", "US");
        b.add_slash16(0x0A00, hp, loc);
        b.add_slash16(0x1800, ci1, loc);
        b.add_slash16(0x2000, ci2, loc);
        b.build().unwrap()
    }

    fn rec(id: u32, user: &str, ip: Option<[u8; 4]>, removed: bool) -> TorrentRecord {
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
            username: Some(user.into()),
            publisher_ip: ip.map(Ipv4Addr::from),
            ip_failure: None,
            first_complete: 0,
            first_incomplete: 0,
            sightings: vec![],
            observed_ips: vec![1, 2, 3],
            observed_removed: removed,
        }
    }

    /// Folds the records the way `Study::analyze` does, at top-k `k`.
    fn analyze(d: &Dataset, k: usize) -> StreamAnalyses {
        fold_dataset(d, &db(), k).finish()
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
    fn takedowns_taint_usernames() {
        let d = ds(vec![
            rec(0, "fakeacct", Some([10, 0, 0, 1]), true),
            rec(1, "fakeacct", Some([10, 0, 0, 1]), true),
            rec(2, "clean", Some([24, 0, 0, 1]), false),
        ]);
        let g = analyze(&d, 10).groups;
        assert!(g.fake_usernames.contains("fakeacct"));
        assert!(!g.fake_usernames.contains("clean"));
        assert!(g.fake_ips.contains(&u32::from(Ipv4Addr::new(10, 0, 0, 1))));
        assert_eq!(g.compromised_in_top_k, 1);
        assert!(g.top.iter().any(|k| matches!(k, PublisherKey::Username(u) if u == "clean")));
    }

    #[test]
    fn multi_username_ips_flagged() {
        // A username mill needs takedown corroboration: three usernames on
        // one IP plus at least one removed listing.
        let shared_ip = [10, 0, 0, 9];
        let d = ds(vec![
            rec(0, "a1", Some(shared_ip), true),
            rec(1, "a2", Some(shared_ip), false),
            rec(2, "a3", Some(shared_ip), false),
            rec(3, "clean", Some([24, 0, 0, 1]), false),
        ]);
        let g = analyze(&d, 10).groups;
        assert!(g.fake_ips.contains(&u32::from(Ipv4Addr::from(shared_ip))));
        for u in ["a1", "a2", "a3"] {
            assert!(g.fake_usernames.contains(u), "{u} should be tainted");
        }
        assert!(!g.fake_usernames.contains("clean"));
    }

    #[test]
    fn top_split_by_isp_kind() {
        let d = ds(vec![
            rec(0, "hosted", Some([10, 0, 0, 1]), false),
            rec(1, "cable", Some([24, 0, 0, 1]), false),
        ]);
        let g = analyze(&d, 10).groups;
        let hosted = PublisherKey::Username("hosted".into());
        let cable = PublisherKey::Username("cable".into());
        assert!(g.top_hp.contains(&hosted));
        assert!(g.top_ci.contains(&cable));
        assert!(g.contains(&hosted, Group::Top));
        assert!(g.contains(&hosted, Group::All));
        assert!(!g.contains(&hosted, Group::Fake));
    }

    #[test]
    fn group_shares_sum_sensibly() {
        let d = ds(vec![
            rec(0, "fake1", Some([10, 0, 0, 1]), true),
            rec(1, "fake1", Some([10, 0, 0, 1]), true),
            rec(2, "top1", Some([24, 0, 0, 1]), false),
            rec(3, "top1", Some([24, 0, 0, 2]), false),
        ]);
        let s = analyze(&d, 1);
        let (fc, fdl) = group_shares(
            &s.publishers,
            &s.groups,
            Group::Fake,
            s.totals.torrents_total,
            s.totals.total_downloads,
        );
        assert!((fc - 0.5).abs() < 1e-9);
        assert!((fdl - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mapping_stats_classification() {
        let d = ds(vec![
            // "solo": one IP.
            rec(0, "solo", Some([24, 0, 0, 1]), false),
            // "hosted": 2 hosting IPs.
            rec(1, "hosted", Some([10, 0, 0, 1]), false),
            rec(2, "hosted", Some([10, 0, 0, 2]), false),
            // "dhcp": 2 IPs inside CableCo.
            rec(3, "dhcp", Some([24, 0, 1, 1]), false),
            rec(4, "dhcp", Some([24, 0, 1, 2]), false),
            // "homework": CableCo + DslCo.
            rec(5, "homework", Some([24, 0, 2, 1]), false),
            rec(6, "homework", Some([32, 0, 0, 1]), false),
        ]);
        let s = analyze(&d, 10).mapping;
        assert!((s.single_ip - 0.25).abs() < 1e-9);
        assert!((s.multi_ip_hosting - 0.25).abs() < 1e-9);
        assert!((s.multi_ip_single_ci - 0.25).abs() < 1e-9);
        assert!((s.multi_ip_multi_ci - 0.25).abs() < 1e-9);
        assert!((s.avg_ips_hosting - 2.0).abs() < 1e-9);
        // Every IP here is used by exactly one username.
        assert!((s.top_ips_unique_username - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ip_mode_dataset_still_produces_top() {
        let mut d = ds(vec![
            rec(0, "x", Some([10, 0, 0, 1]), false),
            rec(1, "y", Some([24, 0, 0, 1]), false),
        ]);
        d.has_usernames = false;
        for t in &mut d.torrents {
            t.username = None;
        }
        let g = analyze(&d, 10).groups;
        assert_eq!(g.top.len(), 2);
        assert_eq!(g.top_hp.len(), 1);
        assert_eq!(g.top_ci.len(), 1);
        assert!(g.fake_usernames.is_empty());
    }
}
