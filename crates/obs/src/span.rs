//! RAII span timers with nested self-time attribution.
//!
//! A span records its **total** elapsed time into the histogram
//! `span.<name>.ns` and its **self** time — total minus time spent in
//! child spans opened on the same thread — into the counter
//! `span.<name>.self_ns`. The thread-local span stack is what lets a
//! parent subtract its children, so a report sorted by self time points
//! at the code that actually burned the cycles rather than at every
//! ancestor of it.
//!
//! A loop that runs millions of times a study times its iterations as
//! [`Laps`] instead: one integer-clock read per iteration, recorded into
//! a histogram the loop owns and folded into the same two metrics (and
//! the parent frame's child time) at the loop's checkpoints, so the
//! registry sees exactly what per-iteration spans would have recorded.

use std::cell::RefCell;
use std::sync::Arc;

use crate::clock;
use crate::metrics::{Counter, Histogram, LocalHistogram};
use crate::registry::global;

thread_local! {
    /// Stack of open spans on this thread: accumulated child time (ns)
    /// for each frame, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The pair of metrics a span records into, resolved once per call site
/// by the [`crate::span!`] macro. Name resolution (`format!` + registry
/// lock) happens on the first hit only; every subsequent enter/drop on
/// that call site touches nothing but atomics — spans sit inside loops
/// that run millions of times per study.
pub struct SpanTarget {
    total: Arc<Histogram>,
    self_ns: Arc<Counter>,
    sym: crate::trace::Sym,
}

impl SpanTarget {
    /// Resolves the `span.<name>.ns` histogram and `span.<name>.self_ns`
    /// counter from the global registry, plus the flight-recorder
    /// symbol for the span's trace lane.
    pub fn lookup(name: &str) -> SpanTarget {
        let reg = global();
        SpanTarget {
            total: reg.histogram(&format!("span.{name}.ns")),
            self_ns: reg.counter(&format!("span.{name}.self_ns")),
            sym: crate::trace::sym(name),
        }
    }
}

/// Live timer returned by [`crate::span!`]; records on drop.
///
/// Spans must be dropped in LIFO order on the thread that created them —
/// guaranteed when they are held in locals, which is the only way the
/// macro hands them out.
pub struct SpanGuard {
    target: &'static SpanTarget,
    /// [`clock::now`] at entry.
    start: u64,
}

impl SpanGuard {
    /// Opens a span against pre-resolved metric handles; prefer the
    /// [`crate::span!`] macro, which caches the lookup per call site.
    pub fn enter(target: &'static SpanTarget) -> SpanGuard {
        STACK.with_borrow_mut(|s| s.push(0));
        SpanGuard {
            target,
            start: clock::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let total_ns = clock::now().saturating_sub(self.start);
        // Pop this frame's accumulated child time and credit this span's
        // total to the parent frame, if any, in one stack access.
        let child_ns = STACK.with_borrow_mut(|s| {
            let child = s.pop().unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                *parent += total_ns;
            }
            child
        });
        self.target.total.record(total_ns);
        self.target.self_ns.add(total_ns.saturating_sub(child_ns));
        // Flight recorder: a complete ("X") event carrying start +
        // duration, emitted at drop so a wrapped ring can never hold an
        // unbalanced begin/end pair. One relaxed load when tracing is
        // off; armed, the epoch offset is one subtraction from the
        // reading the span already paid for.
        crate::trace::record_complete_since(self.target.sym, self.start, total_ns);
    }
}

/// A span timed as the laps of a loop: each [`Laps::lap`] closes one
/// iteration with a single [`clock::now`] read (the next lap starts
/// where this one ended) and records it into a histogram the loop owns.
/// [`Laps::fold`] moves what the laps gathered into the span's
/// `span.<name>.ns` histogram and `span.<name>.self_ns` counter and
/// credits their total to the enclosing span's frame, exactly what one
/// [`SpanGuard`] per iteration would have recorded. Spans opened inside
/// a lap count as its children.
///
/// Armed, every lap is still one complete trace event. Fold at the
/// loop's checkpoints and between laps only (no span of the loop body
/// open); dropping folds the rest. Like a [`SpanGuard`], a `Laps` must
/// drop in LIFO order with the spans around it.
pub struct Laps {
    target: &'static SpanTarget,
    laps: LocalHistogram,
    /// [`clock::now`] at the end of the previous lap.
    last: u64,
}

impl Laps {
    /// Starts the first lap against pre-resolved metric handles; prefer
    /// the [`crate::laps!`] macro.
    pub fn start(target: &'static SpanTarget) -> Laps {
        STACK.with_borrow_mut(|s| s.push(0));
        Laps {
            target,
            laps: LocalHistogram::default(),
            last: clock::now(),
        }
    }

    /// Ends the current lap and starts the next one.
    #[inline]
    pub fn lap(&mut self) {
        let now = clock::now();
        let dur = now.saturating_sub(self.last);
        self.laps.record(dur);
        crate::trace::record_complete_since(self.target.sym, self.last, dur);
        self.last = now;
    }

    /// Folds the laps recorded since the last fold into the registry and
    /// the enclosing frame.
    pub fn fold(&mut self) {
        if self.laps.count() == 0 {
            return;
        }
        let total_ns = self.laps.sum();
        let child_ns = STACK.with_borrow_mut(|s| {
            let n = s.len();
            if n >= 2 {
                s[n - 2] += total_ns;
            }
            s.last_mut().map_or(0, std::mem::take)
        });
        self.target.total.absorb(&mut self.laps);
        self.target.self_ns.add(total_ns.saturating_sub(child_ns));
    }
}

impl Drop for Laps {
    fn drop(&mut self) {
        self.fold();
        STACK.with_borrow_mut(|s| s.pop());
    }
}

/// Opens an RAII span timer: `let _g = btpub_obs::span!("tracker.announce");`.
///
/// Elapsed time lands in the histogram `span.<name>.ns`; self time (see
/// module docs) in the counter `span.<name>.self_ns`. The registry
/// lookup runs once per call site; re-entering is allocation-free.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static TARGET: ::std::sync::OnceLock<$crate::span::SpanTarget> =
            ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter(TARGET.get_or_init(|| $crate::span::SpanTarget::lookup($name)))
    }};
}

/// Starts a lap timer: `let mut ticks = btpub_obs::laps!("sim.engine.tick");`
/// then `ticks.lap()` at the end of every iteration. Records into the
/// same metrics [`span!`](macro@crate::span) would; the registry lookup runs
/// once per call site.
#[macro_export]
macro_rules! laps {
    ($name:expr) => {{
        static TARGET: ::std::sync::OnceLock<$crate::span::SpanTarget> =
            ::std::sync::OnceLock::new();
        $crate::span::Laps::start(TARGET.get_or_init(|| $crate::span::SpanTarget::lookup($name)))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn spin(d: Duration) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_attribute_self_time_to_the_inner_frame() {
        {
            let _outer = crate::span!("test.outer");
            spin(Duration::from_millis(5));
            {
                let _inner = crate::span!("test.inner");
                spin(Duration::from_millis(20));
            }
        }
        let reg = global();
        let outer_total = reg.histogram("span.test.outer.ns").sum();
        let inner_total = reg.histogram("span.test.inner.ns").sum();
        let outer_self = reg.counter("span.test.outer.self_ns").value();
        let inner_self = reg.counter("span.test.inner.self_ns").value();
        // The outer span contains the inner one...
        assert!(outer_total >= inner_total);
        // ...but its *self* time excludes it: roughly the 5 ms spin, and
        // strictly less than the inner span's 20 ms.
        assert!(outer_self >= 4_000_000, "outer self {outer_self}ns");
        assert!(outer_self < inner_total, "outer self {outer_self}ns");
        // A leaf span's self time is its total time.
        assert_eq!(inner_self, inner_total);
        assert_eq!(reg.histogram("span.test.outer.ns").count(), 1);
    }

    #[test]
    fn laps_record_what_per_iteration_spans_would() {
        {
            let _outer = crate::span!("test.laps_outer");
            let mut laps = crate::laps!("test.laps");
            for i in 0..6 {
                spin(Duration::from_micros(200));
                if i == 2 {
                    let _inner = crate::span!("test.laps_inner");
                    spin(Duration::from_millis(2));
                }
                laps.lap();
                if i == 3 {
                    laps.fold();
                }
            }
        }
        let reg = global();
        let laps = reg.histogram("span.test.laps.ns");
        let inner = reg.histogram("span.test.laps_inner.ns").sum();
        // One sample per lap, however many folds.
        assert_eq!(laps.count(), 6);
        assert!(laps.sum() >= 6 * 200_000 + inner, "laps {}ns", laps.sum());
        // The inner span is the laps' child, not the outer span's.
        assert_eq!(
            reg.counter("span.test.laps.self_ns").value(),
            laps.sum() - inner
        );
        // The laps are the outer span's child time.
        let outer_total = reg.histogram("span.test.laps_outer.ns").sum();
        let outer_self = reg.counter("span.test.laps_outer.self_ns").value();
        assert_eq!(outer_self, outer_total - laps.sum());
    }

    #[test]
    fn sequential_spans_do_not_leak_between_frames() {
        {
            let _a = crate::span!("test.seq_a");
            spin(Duration::from_millis(2));
        }
        {
            let _b = crate::span!("test.seq_b");
            spin(Duration::from_millis(2));
        }
        let reg = global();
        // b had no children, so b's self time equals its total even though
        // a closed right before it on the same thread.
        assert_eq!(
            reg.counter("span.test.seq_b.self_ns").value(),
            reg.histogram("span.test.seq_b.ns").sum()
        );
    }
}
