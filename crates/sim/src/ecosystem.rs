//! Ecosystem orchestration: publication plans, swarm construction, and
//! ground truth.
//!
//! [`Ecosystem::generate`] turns an [`EcosystemConfig`] into the complete
//! simulated world: every publication with its swarm trace, plus the
//! ground-truth aggregates (per-publisher session unions) that the paper's
//! authors could only estimate but we can validate against.

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::Rng;

use btpub_geodb::{IspId, World};

use crate::content::{self, Category, Language, PromoTechnique};
use crate::intervals::IntervalSet;
use crate::population::{generate_population, EcosystemConfig};
use crate::profile::{Profile, ProfileParams};
use crate::publisher::{Publisher, PublisherId};
use crate::rngs;
use crate::swarm::{generate_peers, PeerGenParams, SwarmTrace};
use crate::time::{SimDuration, SimTime, HOUR};

/// Index of a torrent in the ecosystem (and in the portal index).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TorrentId(pub u32);

/// One published torrent, as planned by the generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Publication {
    /// Torrent id (index into `Ecosystem::publications` / `swarms`).
    pub id: TorrentId,
    /// The publishing entity.
    pub publisher: PublisherId,
    /// Index of this torrent within the publisher's output.
    pub pub_seq: u32,
    /// Username the publication appears under on the portal. For fake
    /// publications this may be a hacked top-publisher username.
    pub username: String,
    /// Announcement time (RSS item appears).
    pub at: SimTime,
    /// Portal category.
    pub category: Category,
    /// Release title.
    pub title: String,
    /// Payload size.
    pub size_bytes: u64,
    /// Language tag for language-dedicated publishers.
    pub language: Option<Language>,
    /// Whether the content is fake.
    pub fake: bool,
    /// When moderators remove the listing (fake content only).
    pub removal_at: Option<SimTime>,
    /// Whether the swarm pre-existed on another portal.
    pub cross_posted: bool,
    /// Promoting URL, if the publisher is profit-driven.
    pub promo_url: Option<String>,
    /// How the URL is embedded.
    pub promo_techniques: Vec<PromoTechnique>,
    /// Number of the entity's servers seeding in parallel (≥ 1). Fake
    /// entities usually seed from several servers at once.
    pub seeder_count: u8,
}

impl Publication {
    /// The released filename; profit-driven publishers using the
    /// filename-suffix technique append their URL (`title-example.com`).
    pub fn filename(&self) -> String {
        match (&self.promo_url, self.promo_techniques.contains(&PromoTechnique::FilenameSuffix)) {
            (Some(url), true) => {
                let bare = url.strip_prefix("www.").unwrap_or(url);
                format!("{}-{}", self.title, bare)
            }
            _ => self.title.clone(),
        }
    }

    /// The content-page textbox/description, where most profit-driven
    /// publishers advertise (§5).
    pub fn textbox(&self) -> String {
        match (&self.promo_url, self.promo_techniques.contains(&PromoTechnique::Textbox)) {
            (Some(url), true) => format!(
                "{} | uploaded by {} | more releases at http://{url}",
                self.title, self.username
            ),
            _ => format!("{} | uploaded by {}", self.title, self.username),
        }
    }

    /// Name of the extra `.txt` file shipped inside the payload, if the
    /// publisher uses that technique.
    pub fn txt_file(&self) -> Option<String> {
        match (&self.promo_url, self.promo_techniques.contains(&PromoTechnique::TxtFile)) {
            (Some(url), true) => Some(format!("visit-{url}.txt")),
            _ => None,
        }
    }
}

/// The fully-generated ecosystem.
pub struct Ecosystem {
    /// The configuration it was generated from.
    pub config: EcosystemConfig,
    /// ISP world (server pools partially consumed).
    pub world: World,
    /// All publisher entities.
    pub publishers: Vec<Publisher>,
    /// Usernames of top publishers that fake entities also use.
    pub compromised: Vec<String>,
    /// All publications, sorted by announcement time.
    pub publications: Vec<Publication>,
    /// One swarm trace per publication, same indexing.
    pub swarms: Vec<SwarmTrace>,
    /// Ground truth: per-publisher union of seeding sessions, clamped to
    /// the measurement window (Figure 4c's quantity).
    pub session_unions: Vec<IntervalSet>,
}

impl Ecosystem {
    /// Generates the ecosystem for a configuration. Deterministic in
    /// `(config, config.seed)`.
    pub fn generate(config: EcosystemConfig) -> Ecosystem {
        let _span = btpub_obs::span!("sim.generate");
        let pop = {
            let _span = btpub_obs::span!("sim.population");
            generate_population(&config)
        };
        let world = pop.world;
        let publishers = pop.publishers;
        let horizon = config.horizon();
        btpub_obs::static_gauge!("sim.publishers").set(publishers.len() as i64);

        // --- 1. allocate torrent counts per publisher ---
        let n_fake = (config.torrents as f64 * config.fake_share).round() as usize;
        let n_top = (config.torrents as f64 * config.top_share).round() as usize;
        let n_reg = config.torrents.saturating_sub(n_fake + n_top);
        let mut alloc_rng = rngs::derive(config.seed, "allocation", 0);
        let group_counts = |publishers: &[Publisher], profile_filter: &dyn Fn(&Publisher) -> bool, n: usize, weight: &dyn Fn(&Publisher, &mut StdRng) -> f64, rng: &mut StdRng| -> Vec<(PublisherId, usize)> {
            let members: Vec<&Publisher> =
                publishers.iter().filter(|p| profile_filter(p)).collect();
            if members.is_empty() || n == 0 {
                return Vec::new();
            }
            let weights: Vec<f64> = members.iter().map(|p| weight(p, rng).max(1e-9)).collect();
            let counts = allocate_counts(n, &weights);
            members
                .iter()
                .zip(counts)
                .map(|(p, c)| (p.id, c))
                .collect()
        };
        let mut plan: Vec<(PublisherId, usize)> = Vec::new();
        plan.extend(group_counts(
            &publishers,
            &|p| p.profile == Profile::Fake,
            n_fake,
            &|_, rng| rng.gen_range(0.6..1.4),
            &mut alloc_rng,
        ));
        plan.extend(group_counts(
            &publishers,
            &|p| p.profile.is_top(),
            n_top,
            &|p, _| p.historical_rate_per_day,
            &mut alloc_rng,
        ));
        plan.extend(group_counts(
            &publishers,
            &|p| p.profile == Profile::Regular,
            n_reg,
            &|_, rng| rngs::lognormal(rng, 0.0, 1.0),
            &mut alloc_rng,
        ));

        // --- 2. schedule publications uniformly over the window ---
        let mut sched_rng = rngs::derive(config.seed, "schedule", 0);
        let mut raw: Vec<(SimTime, PublisherId)> = Vec::with_capacity(config.torrents);
        for (pid, count) in &plan {
            for _ in 0..*count {
                let t = SimTime(sched_rng.gen_range(0..config.duration.secs().max(1)));
                raw.push((t, *pid));
            }
        }
        raw.sort();

        // --- 3. pass one: publication details + download targets ---
        let downloader_isps: Vec<(IspId, f64)> = world
            .commercial
            .iter()
            .map(|&isp| (isp, world.pool(isp).block_count() as f64))
            .collect();
        let isp_weights: Vec<f64> = downloader_isps.iter().map(|&(_, w)| w).collect();
        let mut pub_seq = vec![0u32; publishers.len()];
        let mut publications = Vec::with_capacity(raw.len());
        let mut targets = Vec::with_capacity(raw.len());
        for (idx, (at, pid)) in raw.into_iter().enumerate() {
            let mut rng = rngs::derive(config.seed, "torrent", idx as u64);
            let publisher = &publishers[pid.0 as usize];
            let params = config.params.get(publisher.profile);
            let fake = publisher.profile == Profile::Fake;
            let seq = pub_seq[pid.0 as usize];
            pub_seq[pid.0 as usize] += 1;
            let mix = ProfileParams::category_mix(
                publisher.profile,
                publisher.business,
                publisher.fake_kind,
            );
            let category = mix.sample(&mut rng);
            let title = content::generate_title(&mut rng, category, 2010, fake);
            let size_bytes = category.sample_size(&mut rng);
            let username = if fake {
                if !pop.compromised.is_empty() && rng.gen_bool(config.hacked_account_prob) {
                    pop.compromised[rng.gen_range(0..pop.compromised.len())].clone()
                } else {
                    publisher.usernames[rng.gen_range(0..publisher.usernames.len())].clone()
                }
            } else {
                publisher.usernames[0].clone()
            };
            let removal_at = fake.then(|| {
                let delay = rngs::exponential(&mut rng, config.fake_removal_mean.secs() as f64)
                    .max(HOUR.0 as f64);
                at + SimDuration(delay as u64)
            });
            let cross_posted = !fake && rng.gen_bool(config.cross_post_prob);
            // Fake entities seed most torrents from several servers in
            // parallel; only ~20 % are single-seeded (and identifiable).
            let seeder_count: u8 = if fake && !rng.gen_bool(0.20) {
                rng.gen_range(2..=4)
            } else {
                1
            };
            let mut target = (rngs::lognormal(&mut rng, params.popularity_mu, params.popularity_sigma)
                * config.downloads_scale)
                .round()
                .max(1.0) as usize;
            if cross_posted {
                target = (target as f64 * 1.5) as usize;
            }
            targets.push(target);
            publications.push(Publication {
                id: TorrentId(idx as u32),
                publisher: pid,
                pub_seq: seq,
                username,
                at,
                category,
                title,
                size_bytes,
                language: publisher.language,
                fake,
                removal_at,
                cross_posted,
                promo_url: publisher.website.as_ref().map(|w| w.url.clone()),
                promo_techniques: publisher.promo.clone(),
                seeder_count,
            });
        }

        // --- 4. consumption mixing probability ---
        let consumers: Vec<(usize, f64)> = publishers
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let rate = config.params.get(p.profile).consumption_per_day;
                (rate > 0.0).then_some((i, rate))
            })
            .collect();
        let expected_consumptions: f64 = consumers
            .iter()
            .map(|&(_, r)| r * config.duration.as_days())
            .sum();
        let total_targets: f64 = targets.iter().map(|&t| t as f64).sum::<f64>().max(1.0);
        let consume_prob = (expected_consumptions / total_targets).min(0.2);
        let consumer_weights: Vec<f64> = consumers.iter().map(|&(_, w)| w).collect();

        // --- 5. build swarm traces ---
        // Embarrassingly parallel: each trace's RNG is derived from
        // `(seed, "swarm", idx)` alone and the map returns in
        // index order, so the result is byte-identical at any job count.
        let _swarm_span = btpub_obs::span!("sim.swarms");
        let swarm_pop = btpub_obs::static_histogram!("sim.swarm.population");
        let swarms = btpub_par::par_map_indexed("sim.swarms", publications.len(), |idx| {
            let publication = &publications[idx];
            let mut rng = rngs::derive(config.seed, "swarm", idx as u64);
            let publisher = &publishers[publication.publisher.0 as usize];
            let params = config.params.get(publisher.profile);
            let birth = if publication.cross_posted {
                publication.at - SimDuration::from_hours(rng.gen_range(4.0..12.0))
            } else {
                publication.at
            };
            let sessions = gen_sessions(
                &mut rng,
                publication.at,
                params,
                &config,
                publisher,
            );
            let gen_params = PeerGenParams {
                target_downloads: targets[idx],
                birth,
                horizon,
                removal_at: publication.removal_at,
                tau_days: params.popularity_tau_days,
                fake: publication.fake,
                size_bytes: publication.size_bytes,
                nat_prob: 0.65,
            };
            let peers = generate_peers(&gen_params, &mut rng, |rng, t| {
                if !consumers.is_empty() && rng.gen_bool(consume_prob) {
                    let c = rngs::weighted_index(rng, &consumer_weights);
                    let (pi, _) = consumers[c];
                    let p = &publishers[pi];
                    (u32::from(p.addresses.ip_for(0, t)), Some(p.natted))
                } else {
                    let w = rngs::weighted_index(rng, &isp_weights);
                    let (ip, _) = world.pool(downloader_isps[w].0).sample_customer(rng);
                    (u32::from(ip), None)
                }
            });
            let mut trace = SwarmTrace::new(
                publication.publisher,
                publication.pub_seq,
                publication.at,
                birth,
                sessions,
                publication.removal_at,
                peers,
            );
            trace.set_publisher_seed_count(publication.seeder_count);
            swarm_pop.record(trace.downloads() as u64);
            trace
        });
        drop(_swarm_span);

        // --- 6. ground-truth session unions, clamped to the window ---
        // Grouped serially (cheap), then unioned per publisher in
        // parallel; each union folds that publisher's swarms in index
        // order, matching what the serial fold produced.
        let mut by_publisher: Vec<Vec<usize>> = vec![Vec::new(); publishers.len()];
        for (idx, swarm) in swarms.iter().enumerate() {
            by_publisher[swarm.publisher.0 as usize].push(idx);
        }
        let session_unions =
            btpub_par::par_map_indexed("sim.session_unions", by_publisher.len(), |p| {
                let mut union = IntervalSet::new();
                for &idx in &by_publisher[p] {
                    union.union_with(&swarms[idx].sessions);
                }
                union.clamp(SimTime::ZERO, horizon)
            });

        btpub_obs::static_gauge!("sim.torrents").set(publications.len() as i64);
        btpub_obs::static_gauge!("sim.peers")
            .set(swarms.iter().map(|s| s.downloads() as i64).sum());
        btpub_obs::info!(
            "ecosystem generated";
            torrents = publications.len(),
            publishers = publishers.len(),
            horizon_days = config.duration.as_days()
        );
        Ecosystem {
            config,
            world,
            publishers,
            compromised: pop.compromised,
            publications,
            swarms,
            session_unions,
        }
    }

    /// The address the publisher seeds `torrent` from at time `t` (the
    /// primary seeding server when several seed in parallel).
    pub fn publisher_addr(&self, torrent: TorrentId, t: SimTime) -> Ipv4Addr {
        let p = &self.publications[torrent.0 as usize];
        self.publishers[p.publisher.0 as usize]
            .addresses
            .ip_for(p.pub_seq, t)
    }

    /// All addresses the publishing entity seeds `torrent` from at `t` —
    /// one per parallel seeding server.
    pub fn publisher_addrs(&self, torrent: TorrentId, t: SimTime) -> Vec<Ipv4Addr> {
        self.publisher_addrs_iter(torrent, t).collect()
    }

    /// Iterator form of [`publisher_addrs`](Self::publisher_addrs) — the
    /// announce fast path walks the (typically one-element) address list
    /// without allocating a `Vec` per query.
    pub fn publisher_addrs_iter(
        &self,
        torrent: TorrentId,
        t: SimTime,
    ) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let p = &self.publications[torrent.0 as usize];
        let publisher = &self.publishers[p.publisher.0 as usize];
        (0..u32::from(p.seeder_count)).map(move |j| publisher.addresses.ip_for(p.pub_seq + j, t))
    }

    /// Whether the publisher of `torrent` is behind a NAT.
    pub fn publisher_natted(&self, torrent: TorrentId) -> bool {
        let p = &self.publications[torrent.0 as usize];
        self.publishers[p.publisher.0 as usize].natted
    }

    /// Publisher record lookup.
    pub fn publisher(&self, id: PublisherId) -> &Publisher {
        &self.publishers[id.0 as usize]
    }

    /// Publication and swarm for a torrent.
    pub fn torrent(&self, id: TorrentId) -> (&Publication, &SwarmTrace) {
        (&self.publications[id.0 as usize], &self.swarms[id.0 as usize])
    }

    /// Total ground-truth downloads across all swarms.
    pub fn total_downloads(&self) -> u64 {
        self.swarms.iter().map(|s| s.downloads() as u64).sum()
    }
}

/// Generates the publisher's seeding sessions for one torrent.
fn gen_sessions(
    rng: &mut StdRng,
    announce: SimTime,
    params: &ProfileParams,
    config: &EcosystemConfig,
    publisher: &Publisher,
) -> IntervalSet {
    let total_hours = rngs::lognormal(rng, params.seed_hours_mu, params.seed_hours_sigma);
    let total = SimDuration::from_hours(total_hours.min(45.0 * 24.0));
    let start = if rng.gen_bool(config.late_seed_prob) {
        announce + SimDuration::from_hours(rng.gen_range(1.0..12.0))
    } else {
        announce + SimDuration(rng.gen_range(0..600))
    };
    if !params.diurnal {
        return IntervalSet::from_raw([(start, start + total)]);
    }
    // Diurnal: the publisher is online in a fixed 8-hour daily window
    // (stable per publisher) and seeds during it until the budget is spent
    // or three weeks pass.
    let mut day_rng = rngs::derive(config.seed, "diurnal", u64::from(publisher.id.0));
    let window_start = day_rng.gen_range(0..crate::time::DAY.0);
    let window_len = 8 * HOUR.0;
    let mut sessions = IntervalSet::new();
    let mut remaining = total.secs();
    let mut day_base = (start.0 / crate::time::DAY.0) * crate::time::DAY.0;
    let deadline = start + SimDuration::from_days(21.0);
    while remaining > 0 {
        let w_start = SimTime(day_base + window_start);
        let w_end = w_start + SimDuration(window_len);
        let s = w_start.max(start);
        if s >= deadline {
            break;
        }
        if s < w_end {
            let span = (w_end.since(s).secs()).min(remaining);
            sessions.insert(s, s + SimDuration(span));
            remaining -= span;
        }
        day_base += crate::time::DAY.0;
    }
    sessions
}

/// Largest-remainder allocation of `total` items over `weights`.
fn allocate_counts(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "weights must sum to a positive value");
    let raw: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut counts: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut remainders: Vec<(usize, f64)> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r - r.floor()))
        .collect();
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BusinessClass;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig::tiny(21))
    }

    #[test]
    fn allocate_counts_exact_and_proportional() {
        let counts = allocate_counts(100, &[1.0, 1.0, 2.0]);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(counts, vec![25, 25, 50]);
        let counts = allocate_counts(10, &[1.0, 1.0, 1.0]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        let counts = allocate_counts(0, &[3.0]);
        assert_eq!(counts, vec![0]);
        // Fractional weights still sum exactly.
        let counts = allocate_counts(7, &[0.3, 0.3, 0.5]);
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn publication_counts_and_shares() {
        let e = eco();
        assert_eq!(e.publications.len(), e.config.torrents);
        assert_eq!(e.swarms.len(), e.config.torrents);
        let fake = e.publications.iter().filter(|p| p.fake).count() as f64;
        let share = fake / e.publications.len() as f64;
        assert!(
            (share - e.config.fake_share).abs() < 0.02,
            "fake share {share}"
        );
        let top = e
            .publications
            .iter()
            .filter(|p| e.publisher(p.publisher).profile.is_top())
            .count() as f64;
        let tshare = top / e.publications.len() as f64;
        assert!(
            (tshare - e.config.top_share).abs() < 0.02,
            "top share {tshare}"
        );
    }

    #[test]
    fn publications_sorted_and_sequenced() {
        let e = eco();
        assert!(e
            .publications
            .windows(2)
            .all(|w| w[0].at <= w[1].at));
        // pub_seq increments per publisher in time order.
        let mut last_seq: btpub_fxhash::FxHashMap<PublisherId, u32> = Default::default();
        for p in &e.publications {
            let prev = last_seq.insert(p.publisher, p.pub_seq);
            if let Some(prev) = prev {
                assert_eq!(p.pub_seq, prev + 1, "sequence gap for {:?}", p.publisher);
            } else {
                assert_eq!(p.pub_seq, 0);
            }
        }
    }

    #[test]
    fn fake_publications_have_removals_and_real_ones_do_not() {
        let e = eco();
        for p in &e.publications {
            assert_eq!(p.fake, p.removal_at.is_some());
            if let Some(r) = p.removal_at {
                assert!(r > p.at);
            }
            if p.fake {
                assert!(!p.cross_posted, "fake torrents are not cross-posted");
            }
        }
    }

    #[test]
    fn cross_posted_swarms_predate_announcement() {
        let e = eco();
        let mut seen = 0;
        for (p, s) in e.publications.iter().zip(&e.swarms) {
            if p.cross_posted {
                assert!(s.birth < p.at);
                seen += 1;
            } else {
                assert_eq!(s.birth, p.at);
            }
        }
        assert!(seen > 0, "some cross-posted torrents exist");
    }

    #[test]
    fn promo_embedding_follows_publisher_class() {
        let e = eco();
        let mut textbox_urls = 0;
        for p in &e.publications {
            let publisher = e.publisher(p.publisher);
            match publisher.business {
                Some(BusinessClass::BtPortal) | Some(BusinessClass::OtherWeb) => {
                    assert!(p.promo_url.is_some());
                    if p.textbox().contains("http://") {
                        textbox_urls += 1;
                    }
                }
                _ => assert!(p.promo_url.is_none()),
            }
        }
        assert!(textbox_urls > 0, "textbox technique in use");
    }

    #[test]
    fn filename_suffix_and_txt_file_render() {
        let e = eco();
        let with_suffix = e
            .publications
            .iter()
            .find(|p| p.promo_techniques.contains(&PromoTechnique::FilenameSuffix));
        if let Some(p) = with_suffix {
            assert!(p.filename().len() > p.title.len());
        }
        let with_txt = e
            .publications
            .iter()
            .find(|p| p.promo_techniques.contains(&PromoTechnique::TxtFile));
        if let Some(p) = with_txt {
            assert!(p.txt_file().unwrap().starts_with("visit-"));
        }
    }

    #[test]
    fn sessions_start_at_or_after_announcement() {
        let e = eco();
        for (p, s) in e.publications.iter().zip(&e.swarms) {
            if let Some(start) = s.sessions.start() {
                assert!(start >= p.at, "seeding before announcement");
            }
            assert!(!s.sessions.is_empty(), "publisher must seed");
        }
    }

    #[test]
    fn fake_entities_seed_much_longer() {
        let e = eco();
        let avg_session = |fake: bool| {
            let (sum, n) = e
                .publications
                .iter()
                .zip(&e.swarms)
                .filter(|(p, _)| p.fake == fake)
                .map(|(_, s)| s.sessions.total().as_hours())
                .fold((0.0, 0usize), |(s, n), h| (s + h, n + 1));
            sum / n as f64
        };
        assert!(
            avg_session(true) > avg_session(false) * 3.0,
            "fake {} vs real {}",
            avg_session(true),
            avg_session(false)
        );
    }

    #[test]
    fn session_unions_cover_individual_sessions() {
        let e = eco();
        for (p, s) in e.publications.iter().zip(&e.swarms) {
            let union = &e.session_unions[p.publisher.0 as usize];
            let clamped = s.sessions.clamp(SimTime::ZERO, e.config.horizon());
            if let Some(start) = clamped.start() {
                assert!(union.contains(start), "union misses a session start");
            }
        }
    }

    #[test]
    fn publisher_addr_is_stable_for_hosting() {
        let e = eco();
        let hosted = e
            .publications
            .iter()
            .find(|p| e.publisher(p.publisher).profile == Profile::TopHosting)
            .expect("a hosting publication exists");
        let a = e.publisher_addr(hosted.id, SimTime(0));
        let b = e.publisher_addr(hosted.id, e.config.horizon());
        assert_eq!(a, b, "server address does not churn");
        let info = e.world.db.lookup(a).unwrap();
        assert_eq!(
            e.world.db.isp(info.isp).kind,
            btpub_geodb::IspKind::HostingProvider
        );
    }

    #[test]
    fn determinism() {
        let a = Ecosystem::generate(EcosystemConfig::tiny(5));
        let b = Ecosystem::generate(EcosystemConfig::tiny(5));
        assert_eq!(a.publications, b.publications);
        assert_eq!(a.total_downloads(), b.total_downloads());
        assert_eq!(
            a.swarms.iter().map(|s| s.downloads()).collect::<Vec<_>>(),
            b.swarms.iter().map(|s| s.downloads()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn downloader_addresses_resolve_in_world() {
        let e = eco();
        let mut checked = 0;
        for s in e.swarms.iter().take(50) {
            for peer in s.peers().iter().take(5) {
                let info = e.world.db.lookup(Ipv4Addr::from(peer.ip));
                assert!(info.is_some(), "downloader IP outside the world");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn some_consuming_publishers_appear_as_downloaders() {
        let e = Ecosystem::generate(EcosystemConfig {
            downloads_scale: 0.3,
            ..EcosystemConfig::tiny(33)
        });
        let publisher_ips: std::collections::HashSet<u32> = e
            .publishers
            .iter()
            .filter(|p| e.config.params.get(p.profile).consumption_per_day > 0.0)
            .flat_map(|p| p.addresses.all_ips())
            .map(u32::from)
            .collect();
        let hits = e
            .swarms
            .iter()
            .flat_map(|s| s.peers())
            .filter(|p| publisher_ips.contains(&p.ip))
            .count();
        assert!(hits > 0, "consumption mixing produced no publisher downloads");
    }
}
