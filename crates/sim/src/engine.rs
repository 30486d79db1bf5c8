//! A small generic discrete-event engine.
//!
//! The ecosystem traces are precomputed (see [`crate::swarm`]), so the
//! event queue's customer is the *measurement* side: the crawler's RSS
//! polls and per-swarm tracker queries, which it pops and dispatches in
//! its own loop.
//! Events with equal timestamps pop in insertion order, which keeps runs
//! deterministic.
//!
//! Most events are scheduled a fixed delay after the current instant
//! (the crawler's query spacing, its pounce, its poll period), so the
//! queue keeps a few FIFO lanes keyed by delay next to a binary heap.
//! An event `d` after `now` joins the lane for `d`: `now` never
//! decreases and every event takes a larger sequence number, so each
//! lane is already in `(at, seq)` order and push and pop are O(1).
//! Delays that find no lane go to the heap, and [`EventQueue::pop`]
//! takes the least `(at, seq)` of the lane heads and the heap top, so
//! the pop order is exactly the heap's for any schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// FIFO lanes next to the heap: one per delay in use, enough for the
/// crawler's fixed delays with one to spare for its retries.
const LANES: usize = 4;

/// A time-ordered event queue over an arbitrary payload type.
#[derive(Debug)]
pub struct EventQueue<E> {
    lanes: [Lane<E>; LANES],
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

/// Events scheduled `delay` after the instant they were scheduled at,
/// in `(at, seq)` order. An empty lane may be taken for another delay.
#[derive(Debug)]
struct Lane<E> {
    delay: u64,
    entries: VecDeque<Entry<E>>,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at the epoch.
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| Lane {
                delay: 0,
                entries: VecDeque::new(),
            }),
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// The event joins the lane of its delay `at - now`, or takes an
    /// empty lane for that delay, or else goes to the heap.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — that is always a logic
    /// error in the caller, and silently reordering would corrupt runs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let delay = at.0 - self.now.0;
        let lane = self
            .lanes
            .iter()
            .position(|l| l.delay == delay)
            .or_else(|| self.lanes.iter().position(|l| l.entries.is_empty()));
        match lane {
            Some(i) => {
                let lane = &mut self.lanes[i];
                lane.delay = delay;
                lane.entries.push_back(entry);
            }
            None => self.heap.push(Reverse(entry)),
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut first = self.heap.peek().map(|Reverse(e)| e.key());
        let mut from_lane = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = lane.entries.front() {
                if first.is_none_or(|k| head.key() < k) {
                    first = Some(head.key());
                    from_lane = Some(i);
                }
            }
        }
        let entry = match from_lane {
            Some(i) => self.lanes[i].entries.pop_front()?,
            None => self.heap.pop()?.0,
        };
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.entries.len()).sum::<usize>()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(|l| l.entries.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.now(), t(20));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    /// The crawler's loop shape: pop, stop at the first event past the
    /// horizon, and let each handled event schedule the next.
    #[test]
    fn pop_loop_stops_at_the_horizon_and_takes_reentrant_schedules() {
        let mut q = EventQueue::new();
        q.schedule(t(0), 0u64);
        let mut seen = Vec::new();
        let horizon = t(50);
        let mut past = None;
        while let Some((now, ev)) = q.pop() {
            if now > horizon {
                past = Some((now, ev));
                break;
            }
            seen.push((now, ev));
            if ev < 100 {
                q.schedule(now + crate::time::SimDuration(10), ev + 1);
            }
        }
        // Events at 0,10,20,30,40,50 fire; the one scheduled for 60 is
        // the first past the horizon and is not handled.
        assert_eq!(seen.len(), 6);
        assert_eq!(seen.last(), Some(&(t(50), 5)));
        assert_eq!(past, Some((t(60), 6)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_reschedule_pops_next() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 0);
        q.schedule(t(6), 2);
        let (now, ev) = q.pop().unwrap();
        assert_eq!((now, ev), (t(5), 0));
        q.schedule(now, 1); // same instant
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.now(), t(5));
        assert_eq!(q.pop(), Some((t(6), 2)));
    }

    /// Delays past the lane count wait in the heap, an emptied lane is
    /// taken by the next new delay, and the pops interleave both in
    /// `(at, seq)` order.
    #[test]
    fn lanes_overflow_into_the_heap_in_order() {
        let mut q = EventQueue::new();
        for (i, d) in [50u64, 10, 40, 20, 30, 10, 0].into_iter().enumerate() {
            q.schedule(t(d), i);
        }
        // 50, 10, 40 and 20 take the four lanes; 30 and the zero delay
        // find none left, while the second 10 joins its lane.
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.len(), 7);
        let first: Vec<(SimTime, usize)> = (0..3).filter_map(|_| q.pop()).collect();
        assert_eq!(first, vec![(t(0), 6), (t(10), 1), (t(10), 5)]);
        // The 10 lane is empty now, so a new delay takes it.
        q.schedule(t(10 + 25), 7);
        assert_eq!(q.heap.len(), 1);
        let rest: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            rest,
            vec![(t(20), 3), (t(30), 4), (t(35), 7), (t(40), 2), (t(50), 0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
