//! What a traced run records, all of it from the benchmark's side of
//! each call: spans (name, start, end, parent, request id) kept in memory
//! and written as Chrome trace JSON at exit, and deltas of the program's
//! always-on `btpub_obs` counters and histograms. Nothing here reaches
//! inside the program.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use btpub_obs::serde_json::{Map, Value};

/// Spans kept per span name. A 20 s run of single announces would
/// otherwise keep some 25 000 request spans, and `obs_diff --validate-trace` takes time
/// quadratic in a trace's length (10 s for 10 000 events on a 2-CPU
/// Xeon). Past the cap spans are counted, not stored, so each kind of
/// span keeps its first thousand however many requests a run makes.
const SPAN_CAP: usize = 1_000;

/// Identifies a span so children can name their parent (`0` = root).
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start: Instant,
    dur: Duration,
    id: SpanId,
    parent: SpanId,
    req: u64,
    tid: u32,
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// A small per-thread lane number for the trace viewer.
fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// In-memory span store of one traced run, shared across its threads.
pub struct Ledger {
    epoch: Instant,
    next_id: AtomicU32,
    /// Kept spans, and how many of each name were kept.
    spans: Mutex<(Vec<Span>, BTreeMap<&'static str, usize>)>,
    dropped: AtomicU64,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new((Vec::new(), BTreeMap::new())),
            dropped: AtomicU64::new(0),
        }
    }

    /// Reserves an id for a span that will be recorded when it closes, so
    /// its children can name it while it is still open.
    pub fn id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        id: SpanId,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let mut guard = self.spans.lock().expect("ledger lock");
        let (spans, per_name) = &mut *guard;
        let kept = per_name.entry(name).or_insert(0);
        if *kept >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        *kept += 1;
        spans.push(Span {
            name,
            start,
            dur: end.saturating_duration_since(start),
            id,
            parent,
            req,
            tid: tid(),
        });
    }

    /// Runs `f` as span `name` under `parent` and returns its result with
    /// the span's duration (what the layer metric is built from).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(name, id, parent, req, start, end);
        (out, end - start)
    }

    /// Spans kept and spans dropped past the cap.
    pub fn counts(&self) -> (usize, u64) {
        (
            self.spans.lock().expect("ledger lock").0.len(),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Renders the spans as Chrome trace event JSON (Perfetto,
    /// `chrome://tracing`, `obs_diff --validate-trace`).
    pub fn chrome_trace(&self, process: &str) -> Value {
        let guard = self.spans.lock().expect("ledger lock");
        let spans = &guard.0;
        let mut events = Vec::with_capacity(spans.len() + 8);
        let meta = |name: &str, tid: u32, label: String| {
            let mut args = Map::new();
            args.insert("name", Value::from(label));
            let mut e = Map::new();
            e.insert("name", Value::from(name));
            e.insert("ph", Value::from("M"));
            e.insert("pid", Value::from(1u64));
            e.insert("tid", Value::from(u64::from(tid)));
            e.insert("args", Value::Object(args));
            Value::Object(e)
        };
        events.push(meta(
            "process_name",
            0,
            format!("btpub-benchmark {process}"),
        ));
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            events.push(meta("thread_name", lane, format!("bench-{lane}")));
        }
        for s in spans.iter() {
            let mut args = Map::new();
            args.insert("id", Value::from(u64::from(s.id)));
            args.insert("parent", Value::from(u64::from(s.parent)));
            args.insert("req", Value::from(s.req));
            let mut e = Map::new();
            e.insert("name", Value::from(s.name));
            e.insert("cat", Value::from("bench"));
            e.insert("ph", Value::from("X"));
            e.insert(
                "ts",
                Value::from(s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6),
            );
            e.insert("dur", Value::from(s.dur.as_secs_f64() * 1e6));
            e.insert("pid", Value::from(1u64));
            e.insert("tid", Value::from(u64::from(s.tid)));
            e.insert("args", Value::Object(args));
            events.push(Value::Object(e));
        }
        let mut root = Map::new();
        root.insert("traceEvents", Value::Array(events));
        root.insert("displayTimeUnit", Value::from("ns"));
        Value::Object(root)
    }
}

/// A copy of the program's obs registry at one instant. Two marks give
/// the deltas a run caused; absolute values would mix in everything the
/// process did before (set-up, warm-up, earlier workloads).
pub struct ObsMark {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, Vec<(u64, u64)>)>,
}

impl ObsMark {
    pub fn now() -> ObsMark {
        let reg = btpub_obs::global();
        ObsMark {
            counters: reg.counters().into_iter().collect(),
            histograms: reg
                .histograms()
                .into_iter()
                .map(|(name, h)| (name, (h.sum(), h.bucket_counts())))
                .collect(),
        }
    }

    /// How much counter `name` grew since `self`.
    pub fn counter(&self, later: &ObsMark, name: &str) -> u64 {
        let at = |m: &ObsMark| m.counters.get(name).copied().unwrap_or(0);
        at(later).saturating_sub(at(self))
    }

    /// Summed growth of every counter whose name starts with `prefix`.
    pub fn counters_with_prefix(&self, later: &ObsMark, prefix: &str) -> u64 {
        later
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix))
            .map(|k| self.counter(later, k))
            .sum()
    }

    /// Samples histogram `name` gained since `self`.
    pub fn histogram(&self, later: &ObsMark, name: &str) -> HistDelta {
        let empty = (0, Vec::new());
        let (sum0, b0) = self.histograms.get(name).unwrap_or(&empty);
        let (sum1, b1) = later.histograms.get(name).unwrap_or(&empty);
        let before: BTreeMap<u64, u64> = b0.iter().copied().collect();
        let buckets: Vec<(u64, u64)> = b1
            .iter()
            .map(|&(lo, c)| (lo, c.saturating_sub(before.get(&lo).copied().unwrap_or(0))))
            .filter(|&(_, c)| c > 0)
            .collect();
        HistDelta {
            sum: sum1.saturating_sub(*sum0),
            buckets,
        }
    }
}

/// The samples one histogram gained between two marks: log2 buckets as
/// `(lower bound, count)`.
pub struct HistDelta {
    pub sum: u64,
    buckets: Vec<(u64, u64)>,
}

impl HistDelta {
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// Estimated `q`-quantile, interpolating linearly inside the log2
    /// bucket the rank falls in (the registry's own estimator).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for &(lo, c) in &self.buckets {
            if (seen + c) as f64 >= rank {
                let hi = if lo == 0 { 1.0 } else { lo as f64 * 2.0 };
                return lo as f64 + (hi - lo as f64) * (rank - seen as f64) / c as f64;
            }
            seen += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_ignores_samples_before_the_mark() {
        let h = btpub_obs::histogram("bench.ledger.test.hist");
        for _ in 0..100 {
            h.record(1_000_000);
        }
        let before = ObsMark::now();
        for v in [100u64, 150, 200] {
            h.record(v);
        }
        let after = ObsMark::now();
        let d = before.histogram(&after, "bench.ledger.test.hist");
        assert_eq!((d.count(), d.sum), (3, 450));
        // The median lands in the [128, 256) bucket, not near 1 ms.
        let p50 = d.quantile(0.5);
        assert!((128.0..256.0).contains(&p50), "{p50}");
    }

    #[test]
    fn the_cap_is_per_span_name() {
        let ledger = Ledger::new();
        let t = Instant::now();
        for i in 0..SPAN_CAP + 5 {
            ledger.record("request", ledger.id(), 0, i as u64, t, t);
        }
        ledger.record("run", ledger.id(), 0, 0, t, t);
        assert_eq!(ledger.counts(), (SPAN_CAP + 1, 5));
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let ledger = Ledger::new();
        let ((), _) = ledger.span("outer", 0, 7, |outer| {
            ledger.span("inner", outer, 7, |_| ());
        });
        let trace = ledger.chrome_trace("unit");
        let events = trace["traceEvents"].as_array().unwrap();
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let inner = complete
            .iter()
            .find(|e| e["name"].as_str() == Some("inner"))
            .unwrap();
        let outer = complete
            .iter()
            .find(|e| e["name"].as_str() == Some("outer"))
            .unwrap();
        assert_eq!(inner["args"]["parent"], outer["args"]["id"]);
        assert_eq!(inner["args"]["req"].as_u64(), Some(7));
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("M")));
    }
}
