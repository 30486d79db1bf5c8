//! A small generic discrete-event engine.
//!
//! The ecosystem traces are precomputed (see [`crate::swarm`]), so the
//! event queue's customer is the *measurement* side: the crawler's RSS
//! polls and per-swarm tracker queries, which it pops and dispatches in
//! its own loop.
//! Events with equal timestamps pop in insertion order, which keeps runs
//! deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered event queue over an arbitrary payload type.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
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
    /// # Panics
    /// Panics if `at` is in the simulated past — that is always a logic
    /// error in the caller, and silently reordering would corrupt runs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
