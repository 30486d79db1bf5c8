//! §4.3 / Figure 4: seeding-behaviour signature of publishers.
//!
//! All three metrics derive from the publisher's *estimated* seeding
//! sessions, reconstructed per torrent from tracker sightings with the
//! Appendix A threshold:
//!
//! * **average seeding time per torrent** (Fig. 4a),
//! * **average number of torrents seeded in parallel** (Fig. 4b) —
//!   computed as total per-torrent seeding time divided by the measure of
//!   the union (the time-average of concurrency while seeding at all),
//! * **aggregated session time** (Fig. 4c) — the measure of the union of
//!   sessions across all the publisher's torrents.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use btpub_crawler::TorrentRecord;
use btpub_sim::intervals::IntervalSet;
use btpub_sim::{SimDuration, SimTime};

use crate::fake::{Group, Groups};
use crate::popularity::ALL_SAMPLE;
use crate::publishers::PublisherStats;
use crate::session::estimate_sessions;
use crate::stats::{BoxStats, QuantileSketch};

/// One publisher's Figure 4 metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedingMetrics {
    /// Average estimated seeding time per torrent, in hours (Fig. 4a).
    pub avg_seed_time_h: f64,
    /// Average number of torrents seeded in parallel (Fig. 4b).
    pub avg_parallel: f64,
    /// Aggregated session time across all torrents, in hours (Fig. 4c).
    pub aggregated_session_h: f64,
    /// Torrents that contributed (publisher IP identified + sightings).
    pub torrents_measured: usize,
}

/// Estimates the publisher's sessions in one torrent from its sightings.
///
/// Padding is half the typical observed query spacing, so an isolated
/// sighting still counts as a short presence rather than zero.
pub fn torrent_sessions(rec: &TorrentRecord, threshold: SimDuration) -> IntervalSet {
    let seen: Vec<SimTime> = rec
        .sightings
        .iter()
        .filter(|s| s.publisher_seen)
        .map(|s| s.at)
        .collect();
    if seen.is_empty() {
        return IntervalSet::new();
    }
    let pad = SimDuration(typical_gap(rec).secs() / 2);
    estimate_sessions(&seen, threshold, pad)
}

/// Median gap between consecutive sightings, clamped to [1, 15] minutes.
fn typical_gap(rec: &TorrentRecord) -> SimDuration {
    let mut gaps: Vec<u64> = rec
        .sightings
        .windows(2)
        .map(|w| w[1].at.since(w[0].at).secs())
        .collect();
    if gaps.is_empty() {
        return SimDuration(600);
    }
    gaps.sort_unstable();
    SimDuration(gaps[gaps.len() / 2].clamp(60, 900))
}

/// Incremental Figure 4 accumulator for one publisher (or one fake-IP
/// entity). Records fold in one at a time, in torrent-index order, as
/// sessions pre-estimated by [`torrent_sessions`]; the memory footprint is
/// one [`IntervalSet`] plus three scalars, regardless of how many records
/// contributed.
#[derive(Debug, Clone, Default)]
pub struct SeedAcc {
    union: IntervalSet,
    per_torrent_total: SimDuration,
    measured: usize,
    sum_hours: f64,
}

impl SeedAcc {
    /// Folds one torrent's estimated sessions in (the fold estimates them
    /// once per record and feeds several accumulators). Torrents without
    /// publisher sightings contribute nothing.
    pub fn observe_sessions(&mut self, sessions: &IntervalSet) {
        if sessions.is_empty() {
            return;
        }
        self.measured += 1;
        self.sum_hours += sessions.total().as_hours();
        self.per_torrent_total += sessions.total();
        self.union.union_with(sessions);
    }

    /// Whether any record contributed.
    pub fn is_empty(&self) -> bool {
        self.measured == 0
    }

    /// Finishes into the Figure 4 metrics, or `None` when no torrent
    /// contributed.
    pub fn metrics(&self) -> Option<SeedingMetrics> {
        if self.measured == 0 {
            return None;
        }
        let union_h = self.union.total().as_hours();
        Some(SeedingMetrics {
            avg_seed_time_h: self.sum_hours / self.measured as f64,
            avg_parallel: if union_h > 0.0 {
                self.per_torrent_total.as_hours() / union_h
            } else {
                0.0
            },
            aggregated_session_h: union_h,
            torrents_measured: self.measured,
        })
    }

    /// Serializes the accumulator for a checkpoint: the union's disjoint
    /// intervals plus the three scalars (`sum_hours` as raw bits — the
    /// restored float must be the identical bit pattern, not a re-parse).
    pub fn encode_state(&self, enc: &mut btpub_stream::checkpoint::Enc) {
        enc.usize(self.union.session_count());
        for (a, b) in self.union.iter() {
            enc.u64(a.0);
            enc.u64(b.0);
        }
        enc.u64(self.per_torrent_total.0);
        enc.usize(self.measured);
        enc.f64(self.sum_hours);
    }

    /// Restores from [`Self::encode_state`] bytes.
    pub fn decode_state(
        dec: &mut btpub_stream::checkpoint::Dec,
    ) -> Result<Self, btpub_stream::checkpoint::CheckpointError> {
        let n = dec.usize()?;
        let mut raw = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let a = SimTime(dec.u64()?);
            let b = SimTime(dec.u64()?);
            raw.push((a, b));
        }
        Ok(Self {
            union: IntervalSet::from_raw(raw),
            per_torrent_total: SimDuration(dec.u64()?),
            measured: dec.usize()?,
            sum_hours: dec.f64()?,
        })
    }
}

/// Figure 4's three boxes for one group, from each member's metrics as
/// the fold accumulated them (`metrics_of`). The `All` group is a random
/// 400-publisher sample, as in the paper. The boxes are
/// [`QuantileSketch`]-backed, exact below the sketch budget.
pub fn group_seeding_boxes(
    publishers: &[PublisherStats],
    groups: &Groups,
    group: Group,
    sample_seed: u64,
    metrics_of: impl Fn(&PublisherStats) -> Option<SeedingMetrics>,
) -> Option<(BoxStats, BoxStats, BoxStats)> {
    let mut members: Vec<&PublisherStats> = publishers
        .iter()
        .filter(|p| groups.contains(&p.key, group))
        .collect();
    if group == Group::All && members.len() > ALL_SAMPLE {
        let mut rng = StdRng::seed_from_u64(sample_seed);
        members.shuffle(&mut rng);
        members.truncate(ALL_SAMPLE);
    }
    let metrics: Vec<SeedingMetrics> = members.into_iter().filter_map(metrics_of).collect();
    if metrics.is_empty() {
        return None;
    }
    let mut seed_times = QuantileSketch::new();
    let mut parallel = QuantileSketch::new();
    let mut aggregated = QuantileSketch::new();
    for m in &metrics {
        seed_times.push(m.avg_seed_time_h);
        parallel.push(m.avg_parallel);
        aggregated.push(m.aggregated_session_h);
    }
    Some((
        seed_times.box_stats()?,
        parallel.box_stats()?,
        aggregated.box_stats()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publishers::PublisherKey;
    use crate::session::default_offline_threshold;
    use crate::streaming::{fold_dataset, DEFAULT_THRESHOLD_IDX};
    use btpub_crawler::{Dataset, Sighting};
    use btpub_geodb::GeoDbBuilder;
    use btpub_sim::content::Category;
    use btpub_sim::TorrentId;

    use std::net::Ipv4Addr;

    fn rec_with_sightings(id: u32, seen_hours: &[f64], gap_all_hours: f64) -> TorrentRecord {
        // Sightings every `gap_all_hours`; publisher seen at `seen_hours`.
        let mut sightings = Vec::new();
        let mut t = 0.0f64;
        while t <= 48.0 {
            sightings.push(Sighting {
                at: SimTime::from_hours(t),
                complete: 1,
                incomplete: 1,
                sampled: 2,
                publisher_seen: seen_hours.iter().any(|&s| (s - t).abs() < 1e-9),
            });
            t += gap_all_hours;
        }
        TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(0),
            first_contact_at: Some(SimTime(0)),
            category: Category::Movies,
            title: "t".into(),
            filename: "t".into(),
            textbox: None,
            size_bytes: 1,
            language: None,
            username: Some("u".into()),
            publisher_ip: Some(Ipv4Addr::new(1, 2, 3, 4)),
            ip_failure: None,
            first_complete: 1,
            first_incomplete: 0,
            sightings,
            observed_ips: vec![],
            observed_removed: false,
        }
    }

    fn ds(torrents: Vec<TorrentRecord>) -> Dataset {
        Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime::from_hours(48.0),
            has_usernames: true,
            torrents,
        }
    }

    /// Publisher `u`'s metrics at the default 4 h threshold, as the fold
    /// accumulates them.
    fn metrics_of_u(d: &Dataset) -> Option<SeedingMetrics> {
        let db = GeoDbBuilder::new().build().unwrap();
        fold_dataset(d, &db, 10)
            .finish()
            .seeding_of(&PublisherKey::Username("u".into()), DEFAULT_THRESHOLD_IDX)
    }

    #[test]
    fn torrent_sessions_from_sightings() {
        // Away from t=0 so the left pad is not clipped by the epoch.
        let rec = rec_with_sightings(0, &[10.0, 10.25, 10.5, 10.75, 11.0], 0.25);
        let s = torrent_sessions(&rec, default_offline_threshold());
        assert_eq!(s.session_count(), 1);
        // 1 hour span + 2×pad (pad = 7.5 min).
        let total = s.total().as_hours();
        assert!((total - 1.25).abs() < 0.01, "total {total}");
    }

    #[test]
    fn no_sightings_no_sessions() {
        let rec = rec_with_sightings(0, &[], 0.25);
        assert!(torrent_sessions(&rec, default_offline_threshold()).is_empty());
    }

    #[test]
    fn parallel_metric_reflects_overlap() {
        // Two torrents seeded over the same 10 h window → parallel ≈ 2.
        let seen: Vec<f64> = (0..=40).map(|i| i as f64 * 0.25).collect();
        let d = ds(vec![
            rec_with_sightings(0, &seen, 0.25),
            rec_with_sightings(1, &seen, 0.25),
        ]);
        let m = metrics_of_u(&d).unwrap();
        assert_eq!(m.torrents_measured, 2);
        assert!((m.avg_parallel - 2.0).abs() < 0.05, "parallel {}", m.avg_parallel);
        // Aggregated = union ≈ 10 h (not 20).
        assert!((m.aggregated_session_h - 10.25).abs() < 0.2);
        assert!((m.avg_seed_time_h - 10.25).abs() < 0.2);
    }

    #[test]
    fn disjoint_seeding_is_sequential() {
        let early: Vec<f64> = (0..=8).map(|i| i as f64 * 0.25).collect(); // 0..2h
        let late: Vec<f64> = (0..=8).map(|i| 24.0 + i as f64 * 0.25).collect(); // 24..26h
        let d = ds(vec![
            rec_with_sightings(0, &early, 0.25),
            rec_with_sightings(1, &late, 0.25),
        ]);
        let m = metrics_of_u(&d).unwrap();
        assert!((m.avg_parallel - 1.0).abs() < 0.05);
        assert!((m.aggregated_session_h - 4.5).abs() < 0.3);
    }

    #[test]
    fn unidentified_torrents_are_skipped() {
        let mut r = rec_with_sightings(0, &[0.0, 0.25], 0.25);
        r.publisher_ip = None;
        let d = ds(vec![r]);
        assert!(metrics_of_u(&d).is_none());
    }
}
