//! The crawl engine over the simulated ecosystem.

use std::collections::hash_map::Entry;
use std::net::Ipv4Addr;

use btpub_faults::{CircuitBreaker, FaultPlan, FaultProfile, RetryPolicy};
use btpub_fxhash::{FxHashMap, FxHashSet};
use btpub_obs::span::Laps;
use btpub_portal::Portal;
use btpub_sim::engine::EventQueue;
use btpub_sim::{Ecosystem, SimDuration, SimTime, SwarmCursor, TorrentId, MINUTE};
use btpub_tracker::sim::{probe_with, ClientId, ProbeOutcome, QueryError, TrackerSim};

use crate::dataset::{Dataset, IpFailure, Sighting, TorrentRecord};
use crate::sink::{CollectSink, RecordSink};

/// Peers requested per query: the tracker's maximum.
const NUMWANT: usize = btpub_tracker::MAX_NUMWANT;

/// Consecutive empty replies after which a torrent is no longer
/// monitored.
const EMPTY_REPLIES_TO_STOP: u32 = 10;

/// Largest swarm population at which seeder identification is still
/// attempted.
const PROBE_PEER_LIMIT: usize = 20;

/// Identification attempts allowed per torrent (its first N queries).
const IDENT_ATTEMPTS: u32 = 6;

/// Consecutive failed announces tolerated per torrent before the
/// crawler records a failure cause and resumes its normal cadence.
const MAX_FAULT_RETRIES: u32 = 6;

/// Crawl parameters (§2 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlerConfig {
    /// Campaign label (mn08 / pb09 / pb10 / …).
    pub name: String,
    /// Number of geographically distributed crawler machines. Each obeys
    /// the tracker's per-client rate limit; together they observe the
    /// swarm `vantage_points`× more often.
    pub vantage_points: u32,
    /// RSS polling period.
    pub rss_poll: SimDuration,
    /// Collect usernames from the feed (false replicates mn08).
    pub collect_usernames: bool,
    /// Query the tracker only once per torrent (replicates pb09).
    pub single_query: bool,
    /// Fault profile injected into the tracker, feed and probe paths
    /// (`clean` = no injection, the historical behaviour).
    pub fault_profile: FaultProfile,
    /// Optional cap on the crawl horizon, in simulated seconds. The
    /// crawl stops at `min(cap, ecosystem horizon)` — the generated
    /// world is untouched (shrinking the ecosystem's own duration would
    /// change every seeded draw), so a capped crawl observes a strict
    /// prefix of the uncapped campaign. `None` runs to the ecosystem
    /// horizon.
    pub horizon_secs: Option<u64>,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            name: "crawl".into(),
            vantage_points: 4,
            rss_poll: SimDuration::from_mins(10.0),
            collect_usernames: true,
            single_query: false,
            fault_profile: FaultProfile::clean(),
            horizon_secs: None,
        }
    }
}

impl CrawlerConfig {
    /// The horizon this configuration actually crawls to: the ecosystem
    /// horizon, optionally capped by [`Self::horizon_secs`].
    pub fn effective_horizon(&self, eco: &Ecosystem) -> SimTime {
        let full = eco.config.horizon();
        match self.horizon_secs {
            Some(secs) => SimTime(secs).min(full),
            None => full,
        }
    }
}

#[derive(Debug)]
enum Event {
    RssPoll,
    Query { torrent: TorrentId, round: u32 },
}

struct TorrentState {
    /// Announcement index: position in discovery order, which is the
    /// order records must reach the sink in.
    idx: usize,
    record: TorrentRecord,
    /// Where the last announce fell in the torrent's swarm; queries only
    /// move forward, so the tracker steps it instead of searching.
    cursor: SwarmCursor,
    /// Distinct peer addresses sighted so far: one hash probe per
    /// sampled peer, and O(distinct peers) resident however long the
    /// torrent is monitored. `finalize_record` sorts them into
    /// `observed_ips`, so the set's hash order is never observed.
    observed: FxHashSet<u32>,
    empty_streak: u32,
    /// When the current run of empty replies began.
    empty_since: Option<SimTime>,
    ident_attempts_left: u32,
    /// Consecutive announces lost to injected faults.
    fault_retries: u32,
}

impl TorrentState {
    /// Records `cause` as why identification failed, unless the torrent
    /// was identified or already carries a cause.
    fn fail_once(&mut self, cause: IpFailure) {
        if self.record.publisher_ip.is_none() && self.record.ip_failure.is_none() {
            self.record.ip_failure = Some(cause);
        }
    }
}

/// The identification cause an announce lost to an injected fault
/// leaves behind.
fn fault_cause(err: QueryError) -> IpFailure {
    match err {
        QueryError::TrackerDown { .. } => IpFailure::TrackerDown,
        QueryError::Malformed { .. } => IpFailure::MalformedReply,
        _ => IpFailure::GaveUpRetrying,
    }
}

/// A served reply's peers, by torrent.
#[cfg(test)]
type Reply = (TorrentId, Vec<u32>);

// Once a test arms it, every served reply, in the order the crawl
// sighted them: what the sighting test checks `observed_ips` against.
#[cfg(test)]
thread_local! {
    static REPLIES: std::cell::RefCell<Option<Vec<Reply>>> =
        const { std::cell::RefCell::new(None) };
}

/// Finalized-record bookkeeping. Torrents finish monitoring in event
/// order; an *ordered* sink must see records in announcement order, so
/// records that finish early wait in a reorder buffer keyed on their
/// announcement index. That buffer is **not** bounded by the active
/// window: one early-announced torrent alive until the horizon blocks
/// every later record behind it (head-of-line), which at high
/// announcement density re-materializes most of the campaign. An
/// unordered sink therefore receives each record the moment it
/// finalizes, tagged with its index, and reorders on its own side —
/// the streaming consumer does so *after* reducing records to small
/// digests, which is what keeps its memory bounded.
#[derive(Default)]
struct OrderedEmitter {
    next_emit: usize,
    pending: std::collections::BTreeMap<usize, TorrentRecord>,
    /// High-water mark of the reorder buffer (ordered sinks only).
    pending_peak: usize,
    emitted: u64,
    identified: u64,
}

impl OrderedEmitter {
    fn finish<S: RecordSink>(
        &mut self,
        st: TorrentState,
        portal: &Portal,
        horizon: SimTime,
        sink: &mut S,
    ) {
        let idx = st.idx;
        let record = finalize_record(st, portal, horizon);
        if !sink.ordered() {
            self.tally(&record);
            sink.emit(idx, record);
            return;
        }
        if idx == self.next_emit {
            self.emit(record, sink);
            while let Some(rec) = self.pending.remove(&self.next_emit) {
                self.emit(rec, sink);
            }
        } else {
            self.pending.insert(idx, record);
            self.pending_peak = self.pending_peak.max(self.pending.len());
        }
    }

    fn tally(&mut self, record: &TorrentRecord) {
        self.emitted += 1;
        if record.publisher_ip.is_some() {
            self.identified += 1;
        }
    }

    fn emit<S: RecordSink>(&mut self, record: TorrentRecord, sink: &mut S) {
        self.tally(&record);
        let idx = self.next_emit;
        self.next_emit += 1;
        sink.emit(idx, record);
    }
}

/// Normalise a finished torrent's record. Safe to run the moment the
/// torrent's monitoring ends: `Portal::is_removed(.., horizon)` is
/// time-invariant ground truth, so finalizing early sees exactly what
/// end-of-campaign postprocessing used to see.
fn finalize_record(mut st: TorrentState, portal: &Portal, horizon: SimTime) -> TorrentRecord {
    st.record.observed_ips.extend(st.observed.drain());
    st.record.observed_ips.sort_unstable();
    st.record.observed_removed |= portal.is_removed(st.record.torrent, horizon);
    // Torrents discovered on the campaign's last RSS polls may have
    // their first query scheduled past the horizon and never be
    // contacted; every unidentified record must still carry a cause
    // (§2: the paper enumerates reasons for unresolved IPs).
    st.fail_once(IpFailure::CampaignEnded);
    // Count *final* identification outcomes here rather than in the
    // event loop: ip_failure is overwritten as attempts progress.
    match (st.record.publisher_ip, st.record.ip_failure) {
        (Some(_), _) => btpub_obs::static_counter!("crawler.identify.success").inc(),
        (None, Some(f)) => {
            btpub_obs::counter(&format!("crawler.identify.failure.{f:?}")).inc();
            btpub_obs::trace_instant!(
                "crawler.torrent.unresolved",
                u64::from(st.record.torrent.0)
            );
        }
        (None, None) => unreachable!("backfilled above"),
    }
    st.record
}

/// Folds the crawl loop's per-event meters into the registry: the tick
/// laps (`span.sim.engine.tick.*`, credited to the enclosing
/// `crawler.run` frame), `crawler.query.total`, and the tracker's
/// announce meters. The loop calls it at every RSS poll and at crawl
/// end, so a live reader of these metrics lags by at most one poll.
fn fold_meters(ticks: &mut Laps, queries: &mut u64, tracker: &mut TrackerSim) {
    ticks.fold();
    if *queries > 0 {
        btpub_obs::static_counter!("crawler.query.total").add(std::mem::take(queries));
    }
    tracker.fold_meters();
}

/// Runs a full measurement campaign against an ecosystem, materializing
/// the full [`Dataset`] (a [`CollectSink`] over [`run_crawl_with`]).
///
/// Deterministic: the tracker's sampling RNG is seeded from the ecosystem,
/// and events at equal instants pop in insertion order.
pub fn run_crawl(eco: &Ecosystem, cfg: &CrawlerConfig) -> Dataset {
    let mut sink = CollectSink::default();
    run_crawl_with(eco, cfg, &mut sink);
    Dataset {
        name: cfg.name.clone(),
        start: SimTime::ZERO,
        end: cfg.effective_horizon(eco),
        has_usernames: cfg.collect_usernames,
        torrents: sink.records,
    }
}

/// Streaming core of the crawl: each torrent's record is finalized the
/// moment its monitoring ends and handed to `sink` in announcement
/// order, so the engine itself never materializes the campaign.
pub fn run_crawl_with<S: RecordSink>(eco: &Ecosystem, cfg: &CrawlerConfig, sink: &mut S) {
    let _span = btpub_obs::span!("crawler.run");
    let wall_start = std::time::Instant::now();
    // The fault plan draws purely from (ecosystem seed, stream, index), so
    // a crawl under a given profile is as deterministic as a clean one —
    // serial or parallel, and across repeated runs.
    let plan = (!cfg.fault_profile.is_clean())
        .then(|| FaultPlan::new(eco.config.seed, cfg.fault_profile.clone()));
    let portal = match &plan {
        Some(p) => Portal::with_faults(eco, p.clone()),
        None => Portal::new(eco),
    };
    let mut tracker = match &plan {
        Some(p) => TrackerSim::with_faults(eco, p.clone()),
        None => TrackerSim::new(eco),
    };
    // One breaker for the (single) tracker: it opens well before the
    // tracker's blacklist threshold, so a long outage cannot goad the
    // crawler into earning strikes.
    let mut breaker = CircuitBreaker::tracker();
    let retry_policy = RetryPolicy::announce();
    let horizon = cfg.effective_horizon(eco);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut states: FxHashMap<TorrentId, TorrentState> = FxHashMap::default();
    let mut discovered = 0usize;
    // Announce replies land in one buffer reused across the whole
    // campaign — the steady-state query loop is allocation-free.
    let mut peers: Vec<Ipv4Addr> = Vec::new();
    let mut emitter = OrderedEmitter::default();
    let mut states_peak = 0usize;
    let mut last_poll = SimTime::ZERO;
    queue.schedule(SimTime::ZERO + cfg.rss_poll, Event::RssPoll);
    // Schedules `torrent`'s query of `round` at `at`, unless that falls
    // past the horizon; returns whether its monitoring ended there.
    let schedule_or_end = |queue: &mut EventQueue<Event>, at: SimTime, torrent, round| {
        if at > horizon {
            return true;
        }
        queue.schedule(at, Event::Query { torrent, round });
        false
    };

    // The loop's per-event meters: one engine tick = one event dispatch,
    // timed as a lap that ends when the dispatch does (so it also holds
    // the pop and the checks before it: starting it after them would
    // cost a second clock read per event), and the queries sent. Both
    // are folded into the registry at every RSS poll and at crawl end,
    // with the tracker's (see `fold_meters`).
    let mut ticks = btpub_obs::laps!("sim.engine.tick");
    let mut queries = 0u64;
    let mut stopped_early = false;
    while let Some((now, event)) = queue.pop() {
        if now > horizon {
            break;
        }
        if sink.cancelled() {
            // The consumer has flushed its final checkpoint (graceful
            // shutdown): stop simulating. Nothing is finalized after this
            // point — a cancelled crawl emits no partial records.
            stopped_early = true;
            break;
        }
        match event {
            Event::RssPoll => {
                fold_meters(&mut ticks, &mut queries, &mut tracker);
                'poll: {
                let Ok(items) = portal.try_rss(last_poll, now) else {
                    // Feed outage: `last_poll` stays put, so the next poll
                    // re-covers this window and no announcement is lost —
                    // only discovered late (a genuinely delayed pounce, as
                    // the paper's crawler suffered during portal outages).
                    btpub_obs::static_counter!("crawler.rss.outages").inc();
                    break 'poll;
                };
                let mut batch = 0u64;
                for item in items {
                    batch += 1;
                    btpub_obs::trace_instant!(
                        "crawler.torrent.discovered",
                        u64::from(item.torrent.0)
                    );
                    let state = TorrentState {
                        idx: discovered,
                        record: TorrentRecord {
                            torrent: item.torrent,
                            announced_at: item.at,
                            first_contact_at: None,
                            category: item.category,
                            title: item.title.to_string(),
                            filename: String::new(),
                            textbox: None,
                            size_bytes: item.size_bytes,
                            username: cfg
                                .collect_usernames
                                .then(|| item.username.to_string()),
                            language: item.language.map(str::to_string),
                            publisher_ip: None,
                            ip_failure: None,
                            first_complete: 0,
                            first_incomplete: 0,
                            sightings: Vec::new(),
                            observed_ips: Vec::new(),
                            observed_removed: false,
                        },
                        cursor: eco.swarms[item.torrent.0 as usize].cursor_at(now),
                        observed: FxHashSet::default(),
                        empty_streak: 0,
                        empty_since: None,
                        ident_attempts_left: IDENT_ATTEMPTS,
                        fault_retries: 0,
                    };
                    states.insert(item.torrent, state);
                    states_peak = states_peak.max(states.len());
                    discovered += 1;
                    // Pounce: first contact within a minute of discovery.
                    queue.schedule(
                        now + SimDuration(30),
                        Event::Query {
                            torrent: item.torrent,
                            round: 0,
                        },
                    );
                }
                btpub_obs::static_histogram!("crawler.rss.batch").record(batch);
                btpub_obs::static_counter!("crawler.torrents.discovered").add(batch);
                // Counter track: cumulative discoveries, one sample per
                // poll — renders as a staircase in the trace viewer.
                btpub_obs::trace_count!("crawler.torrents.discovered", discovered as u64);
                btpub_obs::trace!("rss poll"; at = now.0, batch = batch);
                last_poll = now;
                } // end 'poll
                let next = now + cfg.rss_poll;
                if next <= horizon {
                    queue.schedule(next, Event::RssPoll);
                }
            }
            Event::Query { torrent, round } => {
                // One map lookup per query: the entry is held across the
                // arm, and the labeled block says whether monitoring ended.
                let Entry::Occupied(mut slot) = states.entry(torrent) else {
                    unreachable!("queries are scheduled only for monitored torrents");
                };
                let state = slot.get_mut();
                let ended = 'query: {
                let first_contact = state.record.first_contact_at.is_none();
                if first_contact {
                    // Fetch the .torrent listing and page; a removed
                    // listing ends the campaign for this torrent before it
                    // begins.
                    match portal.torrent_listing(torrent, now) {
                        None => {
                            state.record.ip_failure = Some(IpFailure::RemovedBeforeContact);
                            state.record.observed_removed = true;
                            break 'query true;
                        }
                        Some(listing) => {
                            state.record.filename = listing.filename;
                            state.record.textbox = Some(listing.textbox);
                        }
                    }
                    state.record.first_contact_at = Some(now);
                }
                // Next query under the normal cadence: the vantage fleet
                // divides the query budget (see the scheduling comment at
                // the bottom of this arm).
                let spacing =
                    SimDuration((900 / u64::from(cfg.vantage_points)).max(MINUTE.0));
                // An open circuit breaker means the tracker has failed
                // enough consecutive announces that further traffic risks
                // blacklisting; hold every query until the cooldown ends,
                // spread per-torrent so the half-open trials don't stampede.
                // Identification is a race against swarm growth; once the
                // tracker has been unreachable for over an hour of a
                // torrent's infancy the pounce is lost, and whatever the
                // tracker reports hours later would misattribute the
                // failure. Record the outage as the cause and stop trying
                // to identify (monitoring itself continues).
                let pounce_lost = |state: &TorrentState, now: SimTime| {
                    state.record.sightings.is_empty()
                        && state.record.publisher_ip.is_none()
                        && state.record.ip_failure.is_none()
                        && now.since(state.record.announced_at) >= SimDuration(3600)
                };
                if let Some(at) = breaker.retry_at(now.secs()) {
                    btpub_obs::static_counter!("crawler.query.breaker_deferred").inc();
                    btpub_obs::trace_instant!(
                        "crawler.query.breaker_deferred",
                        u64::from(torrent.0)
                    );
                    if pounce_lost(state, now) {
                        state.record.ip_failure = Some(IpFailure::TrackerDown);
                        state.ident_attempts_left = 0;
                    }
                    let spread = plan
                        .as_ref()
                        .map(|p| p.jitter("breaker.spread", u64::from(torrent.0), 120))
                        .unwrap_or(0);
                    let retry = SimTime(at + 1 + spread);
                    let ended = schedule_or_end(&mut queue, retry, torrent, round);
                    if ended {
                        state.fail_once(IpFailure::TrackerDown);
                    }
                    break 'query ended;
                }
                // Round-robin over vantage points; each is a tracker client.
                queries += 1;
                let client: ClientId = round % cfg.vantage_points;
                let reply = match tracker.query_into(
                    client,
                    torrent,
                    &mut state.cursor,
                    now,
                    NUMWANT,
                    &mut peers,
                ) {
                    Ok(r) => r,
                    Err(QueryError::RateLimited { retry_at }) => {
                        queue.schedule(retry_at + SimDuration(1), Event::Query { torrent, round });
                        break 'query false;
                    }
                    Err(
                        err @ (QueryError::TrackerDown { .. }
                        | QueryError::Dropped
                        | QueryError::Malformed { .. }),
                    ) => {
                        // An injected fault ate this announce. Back off and
                        // retry within a per-torrent budget; past it, record
                        // the cause and fall back to the normal cadence —
                        // degraded monitoring beats a dead campaign.
                        btpub_obs::static_counter!("crawler.query.faulted").inc();
                        btpub_obs::trace_instant!(
                            "crawler.query.retry",
                            u64::from(state.fault_retries + 1)
                        );
                        breaker.on_failure(now.secs());
                        state.fault_retries += 1;
                        if pounce_lost(state, now) {
                            state.record.ip_failure = Some(fault_cause(err));
                            state.ident_attempts_left = 0;
                        }
                        if state.fault_retries > MAX_FAULT_RETRIES {
                            btpub_obs::static_counter!("crawler.query.gaveup").inc();
                            state.fail_once(fault_cause(err));
                            state.fault_retries = 0;
                            let next = now + spacing;
                            break 'query schedule_or_end(&mut queue, next, torrent, round + 1);
                        }
                        // Exponential backoff with deterministic jitter;
                        // at least 1 s so the retry lands on a fresh draw.
                        let draw = btpub_faults::mix(
                            eco.config.seed,
                            "retry.announce",
                            btpub_faults::key(&[
                                u64::from(torrent.0),
                                u64::from(round),
                                u64::from(state.fault_retries),
                            ]),
                        );
                        let delay =
                            retry_policy.delay_secs(state.fault_retries + 1, draw).max(1);
                        // A malformed reply means the tracker *served* the
                        // announce — its rate-limit clock reset even though
                        // the payload was garbage. Re-announcing from the
                        // same client inside the interval earns blacklist
                        // strikes (§2), so the retry moves to the next
                        // vantage client; a lone client must instead sit
                        // out the tracker's maximum interval.
                        let (retry_round, delay) = match err {
                            QueryError::Malformed { .. } if cfg.vantage_points > 1 => {
                                (round + 1, delay)
                            }
                            QueryError::Malformed { .. } => (round, delay.max(900)),
                            _ => (round, delay),
                        };
                        // Note: `QueryError::TrackerDown` carries the
                        // outage end as ground truth for tests, but a real
                        // client only sees a dead endpoint — the crawler
                        // must walk the backoff ladder blind.
                        let mut retry = now + SimDuration(delay);
                        if let Some(at) = breaker.retry_at(now.secs()) {
                            retry = retry.max(SimTime(at + 1));
                        }
                        let ended = schedule_or_end(&mut queue, retry, torrent, retry_round);
                        if ended {
                            state.fail_once(fault_cause(err));
                        }
                        break 'query ended;
                    }
                    Err(QueryError::Blacklisted | QueryError::UnknownTorrent) => {
                        // Monitoring is over for this torrent.
                        break 'query true;
                    }
                };
                breaker.on_success();
                state.fault_retries = 0;
                let population = (reply.complete + reply.incomplete) as usize;
                // Record the sighting. Peers are deduplicated *as
                // replies stream in*, so the torrent does not accumulate
                // every duplicate of every 15-minute reply for its whole
                // monitored life: per-torrent resident memory is
                // O(distinct peers), not O(polls).
                state.observed.extend(peers.iter().map(|&ip| u32::from(ip)));
                #[cfg(test)]
                REPLIES.with(|r| {
                    if let Some(replies) = r.borrow_mut().as_mut() {
                        replies.push((torrent, peers.iter().map(|&ip| u32::from(ip)).collect()));
                    }
                });
                let publisher_seen = state
                    .record
                    .publisher_ip
                    .is_some_and(|pip| peers.contains(&pip));
                state.record.sightings.push(Sighting {
                    at: now,
                    complete: reply.complete,
                    incomplete: reply.incomplete,
                    sampled: peers.len() as u32,
                    publisher_seen,
                });
                if first_contact {
                    state.record.first_complete = reply.complete;
                    state.record.first_incomplete = reply.incomplete;
                }
                // Initial-seeder identification (§2): single seeder, small
                // swarm, bitfield probes.
                if state.record.publisher_ip.is_none() && state.ident_attempts_left > 0 {
                    state.ident_attempts_left -= 1;
                    if population >= PROBE_PEER_LIMIT {
                        state.record.ip_failure = Some(IpFailure::LargeSwarmAtBirth);
                        state.ident_attempts_left = 0; // hopeless from now on
                    } else if reply.complete == 1 {
                        let mut unreachable_hit = false;
                        let mut found = None;
                        for ip in &peers {
                            match probe_with(eco, plan.as_ref(), torrent, *ip, now) {
                                ProbeOutcome::Completion(c) if c >= 1.0 => {
                                    found = Some(*ip);
                                    break;
                                }
                                ProbeOutcome::Unreachable => unreachable_hit = true,
                                _ => {}
                            }
                        }
                        match found {
                            Some(ip) => {
                                btpub_obs::trace_instant!(
                                    "crawler.torrent.identified",
                                    u64::from(torrent.0)
                                );
                                state.record.publisher_ip = Some(ip);
                                state.record.ip_failure = None;
                                // Back-fill: the publisher was in this reply.
                                if let Some(s) = state.record.sightings.last_mut() {
                                    s.publisher_seen = true;
                                }
                            }
                            None if unreachable_hit => {
                                state.record.ip_failure = Some(IpFailure::SeederUnreachable);
                            }
                            None => {
                                state.record.ip_failure = Some(IpFailure::NoSeeder);
                            }
                        }
                    } else if reply.complete == 0 {
                        state.record.ip_failure = Some(IpFailure::NoSeeder);
                    } else {
                        state.record.ip_failure = Some(IpFailure::MultipleSeeders);
                        state.ident_attempts_left = 0;
                    }
                }
                // Empty-reply stop rule. The paper's crawler queried each
                // swarm every 10–15 minutes per machine, so 10 consecutive
                // empty replies meant ~2 hours of silence; because the
                // vantage fleet compresses our spacing, the rule here is
                // both count-based and time-based.
                if peers.is_empty() && reply.complete == 0 {
                    state.empty_streak += 1;
                    state.empty_since.get_or_insert(now);
                } else {
                    state.empty_streak = 0;
                    state.empty_since = None;
                }
                let silence_long_enough = state.empty_since.is_some_and(|since| {
                    now.since(since)
                        >= SimDuration(
                            reply.min_interval.secs() * u64::from(EMPTY_REPLIES_TO_STOP),
                        )
                });
                if cfg.single_query
                    || (state.empty_streak >= EMPTY_REPLIES_TO_STOP && silence_long_enough)
                {
                    break 'query true;
                }
                // Each client is scheduled against the tracker's *maximum*
                // interval (15 min), never its current one — a polite
                // crawler must not earn strikes when the load-dependent
                // interval drifts upward between queries (§2: being
                // blacklisted would end the campaign).
                schedule_or_end(&mut queue, now + spacing, torrent, round + 1)
                }; // end 'query
                // Every exit path lands here: a torrent whose monitoring
                // just ended is finalized and emitted (or buffered until
                // its predecessors emit) immediately, freeing its state.
                if ended {
                    emitter.finish(slot.remove(), &portal, horizon, sink);
                }
            }
        }
        ticks.lap();
    }
    fold_meters(&mut ticks, &mut queries, &mut tracker);
    drop(ticks);

    // Torrents still alive at the horizon finalize now, in announcement
    // order; the emitter's reorder buffer interleaves the stragglers. A
    // cancelled crawl skips this: its consumer is gone, and emitting
    // partial-monitoring records would hand a resumed run different
    // bytes than the uninterrupted one.
    if !stopped_early {
        let mut live: Vec<TorrentState> = states.into_values().collect();
        live.sort_unstable_by_key(|st| st.idx);
        for st in live {
            emitter.finish(st, &portal, horizon, sink);
        }
        debug_assert!(emitter.pending.is_empty(), "reorder buffer fully drained");
    }
    let wall = wall_start.elapsed().as_secs_f64();
    btpub_obs::info!(
        "crawl {} finished", cfg.name;
        torrents = emitter.emitted,
        identified = emitter.identified,
        torrents_per_sec = (emitter.emitted as f64 / wall.max(1e-9)) as u64,
        states_peak = states_peak as u64,
        reorder_peak = emitter.pending_peak as u64,
    );
}

/// Convenience: `Ipv4Addr` of a raw stored address.
pub fn ip(addr: u32) -> Ipv4Addr {
    Ipv4Addr::from(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpub_sim::{Ecosystem, EcosystemConfig};

    /// The default ecosystem + crawl are expensive in debug builds; most
    /// tests only read them, so build once.
    fn shared() -> &'static (Ecosystem, Dataset) {
        static SHARED: std::sync::OnceLock<(Ecosystem, Dataset)> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let e = Ecosystem::generate(EcosystemConfig::tiny(90));
            let ds = run_crawl(&e, &CrawlerConfig::default());
            (e, ds)
        })
    }

    fn crawl(eco: &Ecosystem) -> Dataset {
        run_crawl(eco, &CrawlerConfig::default())
    }

    #[test]
    fn crawl_covers_all_announced_torrents() {
        let (e, ds) = shared();
        // Every publication announced before the last RSS poll is seen.
        assert!(ds.torrent_count() >= e.publications.len() * 95 / 100);
        assert!(ds.has_usernames);
        assert!(ds.torrents.iter().all(|t| t.username.is_some()));
    }

    #[test]
    fn usernames_match_ground_truth() {
        let (e, ds) = shared();
        for rec in &ds.torrents {
            let truth = &e.publications[rec.torrent.0 as usize];
            assert_eq!(rec.username.as_deref(), Some(truth.username.as_str()));
            assert_eq!(rec.category, truth.category);
        }
    }

    #[test]
    fn identified_ips_are_mostly_correct() {
        // A completed downloader can masquerade as the sole seeder when
        // the publisher seeds late, so identification is a measurement
        // with error, exactly as in the paper. Precision must be high,
        // not perfect.
        let (e, ds) = shared();
        let mut identified = 0;
        let mut correct = 0;
        for rec in &ds.torrents {
            if let Some(ip) = rec.publisher_ip {
                identified += 1;
                let truth_ips = e
                    .publisher(e.publications[rec.torrent.0 as usize].publisher)
                    .addresses
                    .all_ips();
                if truth_ips.contains(&ip) {
                    correct += 1;
                }
            }
        }
        assert!(identified > 0);
        let precision = f64::from(correct) / f64::from(identified);
        assert!(precision >= 0.9, "identification precision {precision}");
        // A healthy fraction is identified (paper: ~40 %).
        let frac = f64::from(identified) / ds.torrent_count() as f64;
        assert!(
            (0.2..=0.8).contains(&frac),
            "identified fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn identification_failures_have_reasons() {
        let (_e, ds) = shared();
        let mut failure_kinds = std::collections::HashSet::new();
        for rec in &ds.torrents {
            if rec.publisher_ip.is_none() {
                if let Some(f) = rec.ip_failure {
                    failure_kinds.insert(format!("{f:?}"));
                }
            }
        }
        assert!(
            failure_kinds.len() >= 2,
            "expected multiple failure modes, saw {failure_kinds:?}"
        );
    }

    #[test]
    fn sightings_are_time_ordered_and_spaced() {
        let (_, ds) = shared();
        let rec = ds
            .torrents
            .iter()
            .max_by_key(|t| t.sightings.len())
            .unwrap();
        assert!(rec.sightings.len() > 3, "popular torrent is tracked");
        for w in rec.sightings.windows(2) {
            assert!(w[0].at < w[1].at);
            // Aggregate spacing: interval / vantage_points, floor 60 s.
            assert!(w[1].at.since(w[0].at) >= SimDuration(60));
        }
    }

    #[test]
    fn single_query_mode_records_one_sighting() {
        let (e, _) = shared();
        let cfg = CrawlerConfig {
            single_query: true,
            name: "pb09-style".into(),
            ..CrawlerConfig::default()
        };
        let ds = run_crawl(e, &cfg);
        assert!(ds.torrents.iter().all(|t| t.sightings.len() <= 1));
        // Far fewer IPs observed than in tracking mode.
        let tracked = crawl(e);
        assert!(ds.distinct_ip_count() < tracked.distinct_ip_count() / 2);
    }

    #[test]
    fn no_username_mode_strips_usernames() {
        let (e, _) = shared();
        let cfg = CrawlerConfig {
            collect_usernames: false,
            name: "mn08-style".into(),
            ..CrawlerConfig::default()
        };
        let ds = run_crawl(e, &cfg);
        assert!(!ds.has_usernames);
        assert!(ds.torrents.iter().all(|t| t.username.is_none()));
    }

    #[test]
    fn fake_torrents_observed_removed() {
        let (e, ds) = shared();
        let horizon = e.config.horizon();
        for rec in &ds.torrents {
            let truth = &e.publications[rec.torrent.0 as usize];
            if truth.fake && truth.removal_at.is_some_and(|r| r <= horizon) {
                assert!(rec.observed_removed, "fake listing not seen as removed");
            }
        }
    }

    #[test]
    fn observed_ips_subset_of_ground_truth() {
        let (e, ds) = shared();
        for rec in ds.torrents.iter().take(100) {
            let swarm = &e.swarms[rec.torrent.0 as usize];
            let truth: std::collections::HashSet<u32> =
                swarm.peers().iter().map(|p| p.ip).collect();
            let publisher_ips: std::collections::HashSet<u32> = e
                .publisher(e.publications[rec.torrent.0 as usize].publisher)
                .addresses
                .all_ips()
                .into_iter()
                .map(u32::from)
                .collect();
            for ip in &rec.observed_ips {
                assert!(
                    truth.contains(ip) || publisher_ips.contains(ip),
                    "observed IP {ip} not in ground truth"
                );
            }
        }
    }

    #[test]
    fn observed_ips_are_the_sorted_union_of_the_sampled_peers() {
        let (e, _) = shared();
        REPLIES.with(|r| *r.borrow_mut() = Some(Vec::new()));
        let ds = crawl(e);
        let replies = REPLIES.with(|r| r.borrow_mut().take()).unwrap_or_default();
        let mut union: std::collections::BTreeMap<TorrentId, Vec<u32>> = Default::default();
        let mut sampled = 0usize;
        for (torrent, peers) in replies {
            sampled += peers.len();
            union.entry(torrent).or_default().extend(peers);
        }
        let mut repeats = 0usize;
        for rec in &ds.torrents {
            let mut want = union.remove(&rec.torrent).unwrap_or_default();
            let seen = rec
                .sightings
                .iter()
                .map(|s| s.sampled as usize)
                .sum::<usize>();
            assert_eq!(
                seen,
                want.len(),
                "sightings of {:?} count its replies",
                rec.torrent
            );
            want.sort_unstable();
            want.dedup();
            repeats += seen - want.len();
            assert_eq!(rec.observed_ips, want, "observed_ips of {:?}", rec.torrent);
        }
        assert!(union.is_empty(), "replies for torrents with no record");
        assert!(
            sampled > 0 && repeats > 0,
            "peers are sighted more than once"
        );
    }

    #[test]
    fn crawl_is_deterministic() {
        let (e, _) = shared();
        let a = crawl(e);
        let b = crawl(e);
        assert_eq!(a.torrent_count(), b.torrent_count());
        assert_eq!(a.distinct_ip_count(), b.distinct_ip_count());
        assert_eq!(a.ip_identified_count(), b.ip_identified_count());
        for (x, y) in a.torrents.iter().zip(&b.torrents) {
            assert_eq!(x.publisher_ip, y.publisher_ip);
            assert_eq!(x.sightings, y.sightings);
        }
    }

    #[test]
    fn faulty_crawl_is_deterministic_and_still_covers_the_feed() {
        let (e, _) = shared();
        let cfg = CrawlerConfig {
            name: "flaky".into(),
            fault_profile: btpub_faults::FaultProfile::flaky(),
            ..CrawlerConfig::default()
        };
        let a = run_crawl(e, &cfg);
        let b = run_crawl(e, &cfg);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "same seed + profile must be byte-identical"
        );
        // Faults are really being injected: the dataset differs from clean.
        let clean = crawl(e);
        assert_ne!(a.to_json(), clean.to_json());
        // Outage-delayed polls re-cover their window, so discovery holds up.
        assert!(a.torrent_count() >= clean.torrent_count() * 95 / 100);
    }

    #[test]
    fn tracker_downtime_is_survived_and_recorded() {
        let (e, _) = shared();
        // A profile that is nothing but heavy tracker downtime: ~30 % of
        // sim time dark, in multi-hour windows.
        let cfg = CrawlerConfig {
            name: "downtime".into(),
            fault_profile: btpub_faults::FaultProfile {
                name: "downtime-heavy".into(),
                tracker_downtime_ppm: 300_000,
                ..btpub_faults::FaultProfile::clean()
            },
            ..CrawlerConfig::default()
        };
        let ds = run_crawl(e, &cfg);
        assert!(ds.torrent_count() > 0, "campaign still completes");
        let down = ds
            .torrents
            .iter()
            .filter(|t| t.ip_failure == Some(IpFailure::TrackerDown))
            .count();
        assert!(
            down > 0,
            "torrents born into an outage must record TrackerDown"
        );
        // Monitoring resumes after outages: some torrents announced during
        // downtime still accumulate sightings afterwards.
        assert!(
            ds.torrents
                .iter()
                .any(|t| t.ip_failure == Some(IpFailure::TrackerDown) && !t.sightings.is_empty()),
            "degraded torrents are still monitored after the outage"
        );
    }

    /// Keeps every record with its index, in the order they arrive.
    #[derive(Default)]
    struct UnorderedSink(Vec<(usize, TorrentRecord)>);

    impl RecordSink for UnorderedSink {
        fn ordered(&self) -> bool {
            false
        }

        fn emit(&mut self, idx: usize, record: TorrentRecord) {
            self.0.push((idx, record));
        }
    }

    #[test]
    fn capped_horizon_finalizes_live_torrents_once_for_either_sink() {
        let (e, _) = shared();
        // Daily RSS polls and a cap 10 s after the second one: that
        // poll's discoveries are live at the cap with their first query
        // due past it, so they finalize after the loop, behind the first
        // day's torrents, which finish inside it.
        let cfg = CrawlerConfig {
            rss_poll: SimDuration::from_hours(24.0),
            horizon_secs: Some(2 * 86_400 + 10),
            ..CrawlerConfig::default()
        };
        let mut ordered = CollectSink::default();
        run_crawl_with(e, &cfg, &mut ordered);
        let mut unordered = UnorderedSink::default();
        run_crawl_with(e, &cfg, &mut unordered);
        let n = ordered.records.len();
        let live_at_cap = ordered
            .records
            .iter()
            .filter(|r| r.first_contact_at.is_none())
            .count();
        assert!(
            live_at_cap >= 5 && live_at_cap < n,
            "the cap must fall mid-campaign: {live_at_cap} of {n} torrents live at it"
        );
        let mut got = unordered.0;
        got.sort_by_key(|(idx, _)| *idx);
        let indices: Vec<usize> = got.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>(), "each index exactly once");
        let records: Vec<TorrentRecord> = got.into_iter().map(|(_, r)| r).collect();
        assert!(records == ordered.records, "unordered records differ from ordered ones");
    }

    #[test]
    fn coverage_of_popular_swarms_is_high() {
        // Needs realistic swarm density: at tiny scale, populations hit
        // zero for hours and the (paper-faithful) empty-reply stop rule
        // truncates monitoring. Use fewer torrents but denser swarms.
        let e = Ecosystem::generate(EcosystemConfig {
            torrents: 60,
            downloads_scale: 0.6,
            ..EcosystemConfig::tiny(91)
        });
        let ds = crawl(&e);
        // For torrents with many downloads, repeated 200-peer samples
        // should observe the majority of all peers.
        let mut checked = 0;
        for rec in &ds.torrents {
            let swarm = &e.swarms[rec.torrent.0 as usize];
            if swarm.downloads() >= 200 && rec.sightings.len() >= 50 {
                let coverage = rec.observed_downloaders() as f64 / swarm.downloads() as f64;
                assert!(coverage > 0.4, "coverage {coverage} too low");
                checked += 1;
            }
        }
        assert!(checked > 0, "no popular torrents in test ecosystem");
    }
}
