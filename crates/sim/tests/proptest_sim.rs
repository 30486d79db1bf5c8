//! Property tests for the simulator's core data structures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use btpub_sim::engine::EventQueue;
use btpub_sim::intervals::IntervalSet;
use btpub_sim::publisher::PublisherId;
use btpub_sim::swarm::{PeerRecord, SampleScratch, SwarmTrace};
use btpub_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;

fn arb_peer() -> impl Strategy<Value = PeerRecord> {
    arb_peer_in(0..500_000, 1..100_000)
}

/// A peer arriving in `arrival` that downloads (or aborts) for a time
/// in `download`, then maybe lingers.
fn arb_peer_in(
    arrival: std::ops::Range<u64>,
    download: std::ops::Range<u64>,
) -> impl Strategy<Value = PeerRecord> {
    (
        any::<u32>(),
        arrival,
        download,
        0u64..100_000,
        any::<bool>(),
        proptest::option::of(Just(())),
    )
        .prop_map(|(ip, arrival, dl, linger, natted, completes)| {
            let arrival = SimTime(arrival);
            match completes {
                Some(()) => {
                    let completed = arrival + SimDuration(dl);
                    PeerRecord {
                        ip,
                        arrival,
                        completed: Some(completed),
                        departure: completed + SimDuration(linger),
                        natted,
                        abort_progress: 1.0,
                    }
                }
                None => PeerRecord {
                    ip,
                    arrival,
                    completed: None,
                    departure: arrival + SimDuration(dl),
                    natted,
                    abort_progress: 0.3,
                },
            }
        })
}

/// One step of a query-time sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Later by this many seconds (short steps and long jumps).
    Forward(u64),
    /// The same instant again.
    Repeat,
    /// Earlier by this many seconds.
    Back(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..2_000).prop_map(Step::Forward),
        (2_000u64..200_000).prop_map(Step::Forward),
        Just(Step::Repeat),
        (1u64..300_000).prop_map(Step::Back),
    ]
}

/// One operation on an event queue.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule an event this many seconds after the current instant.
    Schedule(u64),
    /// Pop the earliest event.
    Pop,
}

fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Six constant delays, more than the queue has lanes; a zero
        // delay ties with the instant just popped.
        (0u64..6).prop_map(|i| QueueOp::Schedule(i * 150)),
        (0u64..6).prop_map(|i| QueueOp::Schedule(i * 150)),
        // Delays that rarely repeat.
        (0u64..5_000).prop_map(QueueOp::Schedule),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

/// Runs `ops` on an [`EventQueue`] and on a plain binary heap of
/// `(at, insertion index)`, checking that every pop, and the final
/// drain, gives the same event at the same instant, and that `len` and
/// `is_empty` agree with the reference after every step.
fn check_queue_against_heap(ops: &[QueueOp]) {
    let mut queue = EventQueue::new();
    let mut reference: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut next = 0usize;
    for op in ops {
        match *op {
            QueueOp::Schedule(delay) => {
                let at = queue.now() + SimDuration(delay);
                queue.schedule(at, next);
                reference.push(Reverse((at.0, next)));
                next += 1;
            }
            QueueOp::Pop => {
                let want = reference.pop().map(|Reverse((at, id))| (SimTime(at), id));
                assert_eq!(queue.pop(), want, "after {next} schedules");
            }
        }
        assert_eq!(queue.len(), reference.len());
        assert_eq!(queue.is_empty(), reference.is_empty());
    }
    while let Some(Reverse((at, id))) = reference.pop() {
        assert_eq!(queue.pop(), Some((SimTime(at), id)), "draining");
        assert_eq!(queue.len(), reference.len());
    }
    assert_eq!(queue.pop(), None);
    assert!(queue.is_empty());
}

/// The crawler's shape: many events at a few fixed delays, with ties,
/// a same-instant reschedule and a burst of distinct delays that finds
/// every lane taken.
#[test]
fn event_queue_pops_as_a_heap_on_the_crawl_shape() {
    let mut ops = Vec::new();
    for round in 0..200u64 {
        ops.push(QueueOp::Schedule(225));
        ops.push(QueueOp::Schedule(30));
        if round % 3 == 0 {
            ops.push(QueueOp::Schedule(600));
            ops.push(QueueOp::Schedule(0));
        }
        if round % 20 == 0 {
            ops.extend((1..=8).map(|d| QueueOp::Schedule(1_000 + d * 7)));
        }
        ops.push(QueueOp::Pop);
        ops.push(QueueOp::Pop);
    }
    check_queue_against_heap(&ops);
}

/// Which sampling branch each query took: `(fisher_yates, rejection)`.
type BranchHits = (usize, usize);

/// Walks one cursor through `steps` from `start` and checks, at every
/// instant, that it equals a fresh binary-search cursor, that its counts
/// equal a brute-force scan, and that sampling from it (with `want`, then
/// with wants picked to force each branch) picks the same peers and
/// leaves the RNG in the same state as [`SwarmTrace::sample_active`],
/// which looks everything up afresh.
fn check_cursor_walk(
    peers: &[PeerRecord],
    start: u64,
    steps: &[Step],
    want: usize,
    seed: u64,
) -> BranchHits {
    let trace = SwarmTrace::new(
        PublisherId(0),
        0,
        SimTime(0),
        SimTime(0),
        IntervalSet::new(),
        None,
        peers.to_vec(),
    );
    let max_residency = peers
        .iter()
        .map(|p| p.departure.since(p.arrival).secs())
        .max()
        .unwrap_or(0);
    let mut t = SimTime(start);
    let mut cursor = trace.cursor_at(t);
    let mut scratch = SampleScratch::default();
    let mut out = Vec::new();
    let mut hits = (0, 0);
    for (i, step) in steps.iter().enumerate() {
        t = match *step {
            Step::Forward(d) => t + SimDuration(d),
            Step::Repeat => t,
            Step::Back(d) => t - SimDuration(d),
        };
        trace.seek(&mut cursor, t);
        assert_eq!(cursor, trace.cursor_at(t), "cursor at {t:?} after {step:?}");
        let active = peers.iter().filter(|p| p.active(t)).count();
        let seeding = peers.iter().filter(|p| p.seeding(t)).count();
        assert_eq!(cursor.active(), active);
        // The live list: the active peers' indices, ascending, as a
        // scan of the trace's (arrival-sorted) peers finds them.
        let live: Vec<usize> = trace
            .peers()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.active(t))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            cursor.live().collect::<Vec<_>>(),
            live,
            "live list at {t:?} after {step:?}"
        );
        assert_eq!(cursor.seeders(), seeding);
        assert_eq!(cursor.leechers(), active - seeding);
        // The sampling window: every peer that arrived within the
        // longest residency before `t`.
        let window = peers
            .iter()
            .filter(|p| p.arrival.0 + max_residency >= t.0 && p.arrival <= t)
            .count();
        // Checked against the scan, not against `cursor_at`, which the
        // fresh sampler below reads too.
        let arrived = peers.iter().filter(|p| p.arrival <= t).count();
        assert_eq!(cursor.window().end, arrived, "window end at {t:?}");
        assert_eq!(cursor.window().len(), window, "window at {t:?}");
        for want in [want, 1, window.div_ceil(4).max(1)] {
            if active > want {
                if window <= want * 4 {
                    hits.0 += 1;
                } else {
                    hits.1 += 1;
                }
            }
            let mut a = btpub_sim::rngs::derive(seed, "cursor", i as u64);
            let mut b = a.clone();
            out.clear();
            trace.sample_at(&cursor, want, &mut a, &mut scratch, &mut out);
            let fresh: Vec<PeerRecord> =
                trace.sample_active(t, want, &mut b).into_iter().copied().collect();
            assert_eq!(out, fresh, "sample at {t:?}, want {want}");
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state at {t:?}, want {want}");
        }
    }
    hits
}

/// A dense trace where both sampling branches must run: the property
/// below draws its wants at random, so this pins that the walk it
/// checks really covers the Fisher-Yates and the rejection branch.
#[test]
fn cursor_walk_covers_both_sampling_branches() {
    let peers: Vec<PeerRecord> = (0..400u32)
        .map(|i| {
            let arrival = SimTime(u64::from(i) * 50);
            let completed = (i % 3 != 0).then(|| arrival + SimDuration(3_000));
            PeerRecord {
                ip: i,
                arrival,
                completed,
                departure: arrival + SimDuration(6_000 + u64::from(i % 7) * 500),
                natted: false,
                abort_progress: if completed.is_some() { 1.0 } else { 0.3 },
            }
        })
        .collect();
    let steps: Vec<Step> = (0..40)
        .map(|i| match i % 5 {
            0 | 1 => Step::Forward(700),
            2 => Step::Repeat,
            3 => Step::Forward(40_000),
            _ => Step::Back(9_000),
        })
        .collect();
    let (fisher_yates, rejection) = check_cursor_walk(&peers, 8_000, &steps, 20, 7);
    assert!(fisher_yates > 0, "no query took the Fisher-Yates branch");
    assert!(rejection > 0, "no query took the rejection branch");
}

proptest! {
    /// The lanes never change the pop order: any schedule pops as a
    /// binary heap ordered by `(at, insertion)` pops it.
    #[test]
    fn event_queue_pops_as_a_heap(
        ops in proptest::collection::vec(arb_queue_op(), 1..400),
    ) {
        check_queue_against_heap(&ops);
    }

    /// A cursor carried through forward steps, repeats and backward jumps
    /// gives the counts, live list, samples and RNG state of fresh
    /// lookups.
    #[test]
    fn cursor_walk_matches_fresh_lookups(
        peers in proptest::collection::vec(arb_peer(), 0..300),
        start in 0u64..600_000,
        steps in proptest::collection::vec(arb_step(), 1..40),
        want in 1usize..64,
        seed in any::<u64>(),
    ) {
        check_cursor_walk(&peers, start, &steps, want, seed);
    }

    /// The same walk over a dense swarm, whose first instant has every
    /// peer active: the wants it tries there take both the Fisher-Yates
    /// and the rejection branch, and the live list must hold through
    /// both.
    #[test]
    fn dense_cursor_walk_takes_both_branches(
        peers in proptest::collection::vec(arb_peer_in(0..10_000, 20_000..40_000), 50..300),
        start in 10_000u64..20_000,
        steps in proptest::collection::vec(arb_step(), 0..30),
        want in 1usize..64,
        seed in any::<u64>(),
    ) {
        let steps: Vec<Step> = std::iter::once(Step::Repeat).chain(steps).collect();
        let (fisher_yates, rejection) = check_cursor_walk(&peers, start, &steps, want, seed);
        prop_assert!(fisher_yates > 0, "no query took the Fisher-Yates branch");
        prop_assert!(rejection > 0, "no query took the rejection branch");
    }

    /// The O(log n) indexed counts must agree with a brute-force scan at
    /// arbitrary probe times, for arbitrary peer traces.
    #[test]
    fn counts_match_bruteforce(
        peers in proptest::collection::vec(arb_peer(), 0..120),
        probes in proptest::collection::vec(0u64..700_000, 20),
    ) {
        let trace = SwarmTrace::new(
            PublisherId(0),
            0,
            SimTime(0),
            SimTime(0),
            IntervalSet::new(),
            None,
            peers.clone(),
        );
        for probe in probes {
            let t = SimTime(probe);
            let active = peers.iter().filter(|p| p.active(t)).count();
            let seeding = peers.iter().filter(|p| p.seeding(t)).count();
            prop_assert_eq!(trace.active_count(t), active);
            prop_assert_eq!(trace.seeder_count(t), seeding);
            prop_assert_eq!(trace.leecher_count(t), active - seeding);
        }
    }

    /// Samples are always active, distinct, and at most `want`.
    #[test]
    fn samples_are_valid(
        peers in proptest::collection::vec(arb_peer(), 1..150),
        probe in 0u64..700_000,
        want in 1usize..64,
        seed in any::<u64>(),
    ) {
        let trace = SwarmTrace::new(
            PublisherId(0), 0, SimTime(0), SimTime(0), IntervalSet::new(), None, peers,
        );
        let t = SimTime(probe);
        let mut rng = btpub_sim::rngs::derive(seed, "prop", 0);
        let sample = trace.sample_active(t, want, &mut rng);
        prop_assert!(sample.len() <= want);
        prop_assert!(sample.len() <= trace.active_count(t));
        prop_assert!(sample.iter().all(|p| p.active(t)));
        // Distinct records (by pointer identity via arrival+ip pair).
        let mut keys: Vec<(u64, u32)> = sample.iter().map(|p| (p.arrival.0, p.ip)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        // Duplicate (arrival, ip) pairs can exist in the input; the sample
        // may legitimately contain two identical-looking records, so only
        // check when all inputs are unique.
        if before == trace.peers().iter().map(|p| (p.arrival.0, p.ip)).collect::<std::collections::HashSet<_>>().len() {
            prop_assert_eq!(keys.len(), before);
        }
    }

    /// Peer completion is monotone in time and bounded.
    #[test]
    fn completion_monotone(peer in arb_peer(), a in 0u64..700_000, b in 0u64..700_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = peer.completion(SimTime(lo));
        let c_hi = peer.completion(SimTime(hi));
        prop_assert!((0.0..=1.0).contains(&c_lo));
        prop_assert!((0.0..=1.0).contains(&c_hi));
        prop_assert!(c_hi >= c_lo - 1e-12);
    }
}
