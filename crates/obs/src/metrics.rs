//! Metric primitives: sharded counters, gauges and log2 histograms.
//!
//! All three are updated with relaxed atomics — metrics are advisory and
//! never synchronize program logic — and read with a best-effort sum,
//! which is exact once writers are quiescent (e.g. at snapshot time).

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of independent cells a [`Counter`] is striped over. A power of
/// two so the shard pick is a mask, sized to cover typical core counts.
const SHARDS: usize = 16;

/// Pads an atomic out to a cache line so neighbouring shards don't
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// This thread's shard index, assigned round-robin at first use.
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1)
    };
}

/// A monotonically increasing event count.
///
/// Increments go to a per-thread shard, so concurrent writers on
/// different cores do not contend on one cache line; [`Counter::value`]
/// sums the shards. Single-threaded increment throughput is north of
/// 100 M/s in release builds (see the `counter_throughput` test).
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        SHARD.with(|&s| self.shards[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A point-in-time signed level (queue depth, store size, population).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`. u64 needs 64 value buckets + zero.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds or
/// item counts).
///
/// Records are lock-free; quantiles are estimated by walking the bucket
/// cumulative counts and interpolating linearly inside the target
/// bucket, which bounds the relative error by the bucket width (a factor
/// of two, i.e. ±50 % worst case, far tighter in practice because the
/// interpolation assumes a uniform in-bucket distribution).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Lower/upper (inclusive/exclusive) value bounds of bucket `i`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 1)
        } else {
            (1 << (i - 1), if i >= 64 { u64::MAX } else { 1 << i })
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by in-bucket linear
    /// interpolation. Returns 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Rank of the sample we are after, 1-based, clamped into range.
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            let in_bucket = self.buckets[i].load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (seen + in_bucket) as f64 >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                // The true maximum caps the top bucket's upper edge.
                let hi = (hi as f64)
                    .min(self.max() as f64 + 1.0)
                    .max(lo as f64 + 1.0);
                let into = (rank - seen as f64) / in_bucket as f64;
                return lo as f64 + (hi - lo as f64) * into;
            }
            seen += in_bucket;
        }
        self.max() as f64
    }

    /// Adds everything `local` recorded since its last fold to this
    /// histogram and empties `local`. One atomic add per non-empty
    /// bucket, so a loop folding at its checkpoints pays for the
    /// buckets its samples hit, not for every sample.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (i, n) in local.buckets.iter_mut().enumerate() {
            if *n > 0 {
                self.buckets[i].fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
        self.sum
            .fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
        self.max
            .fetch_max(std::mem::take(&mut local.max), Ordering::Relaxed);
    }

    /// Raw bucket counts (index = log2 bucket), for export.
    pub fn bucket_counts(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                (c > 0).then(|| (Self::bucket_bounds(i).0, c))
            })
            .collect()
    }
}

/// A [`Histogram`] a single owner records into with plain integer
/// adds: same log2 buckets, no atomics. Hot loops keep one in a field
/// (inside a [`SampledHistogram`] when they time their events) and
/// [`Histogram::absorb`] it into the registry at their checkpoints, so a
/// reader of the shared histogram lags by at most one checkpoint.
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_weighted(v, 1);
    }

    /// Records `v` as the value of `weight` samples at once: what
    /// `weight` calls of [`Self::record`] would leave, in one bucket add.
    #[inline]
    pub fn record_weighted(&mut self, v: u64, weight: u64) {
        self.buckets[Histogram::bucket_of(v)] += weight;
        self.count += weight;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(weight));
        self.max = self.max.max(v);
    }

    /// Samples recorded since the last fold.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples recorded since the last fold.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Mean number of events a [`SampledHistogram`] counts per event it
/// measures.
pub const SAMPLE_PERIOD: u64 = 16;

/// Events from a measured event to the next one: uniform in
/// `1..=2 * SAMPLE_PERIOD - 1`, so the mean gap is [`SAMPLE_PERIOD`].
/// A pure function of the meter's hashed label and the measured event's
/// index. Because the gaps are not a constant, no periodic pattern in
/// the events (a round robin over vantage clients, say) can line up
/// with the measured subset; because each meter draws from its own
/// label, two meters counting the same events measure different ones.
#[inline]
fn gap_after(stream: u64, index: u64) -> u64 {
    1 + crate::trace::mix_hashed(0, stream, index) % (2 * SAMPLE_PERIOD - 1)
}

/// A [`LocalHistogram`] that measures a deterministic, aperiodic subset
/// of about one in [`SAMPLE_PERIOD`] of its owner's events and weights
/// each measured value by the events it stands for.
///
/// The owner asks [`Self::wants`] before each event, pays for a
/// measurement (a clock read, say) only when it says yes, and then
/// calls [`Self::record`] with the value, or [`Self::skip`] otherwise.
/// Which events are measured depends only on the label the meter was
/// made with and the events' indices: the first event always is, and
/// each measured event draws the gap to the next. A measured value
/// stands for itself and every unmeasured event after it;
/// [`Self::settle`] moves them into the histogram at that value, so
/// after a settle the histogram's count is exactly the number of
/// events, while its sum and quantiles are estimates. Events that are
/// neither recorded nor skipped are not counted and carry no weight.
#[derive(Debug)]
pub struct SampledHistogram {
    local: LocalHistogram,
    /// The meter's label, hashed: the stream its gaps are drawn from.
    stream: u64,
    /// Index of the next event.
    next: u64,
    /// Index of the next event to measure.
    next_measured: u64,
    /// The last measured value.
    held: u64,
    /// Index of the first event not yet in `local`; events from here
    /// to `next` are weighted at `held`.
    settled: u64,
}

impl SampledHistogram {
    /// An empty meter whose gaps are drawn from the stream `label`;
    /// name it after the metric it feeds.
    pub fn new(label: &str) -> SampledHistogram {
        SampledHistogram {
            local: LocalHistogram::default(),
            stream: crate::trace::fnv1a(label.as_bytes()),
            next: 0,
            next_measured: 0,
            held: 0,
            settled: 0,
        }
    }

    /// Whether the next event is one to measure.
    #[inline]
    pub fn wants(&self) -> bool {
        self.next == self.next_measured
    }

    /// Counts an event that [`Self::wants`] did not ask to measure.
    #[inline]
    pub fn skip(&mut self) {
        debug_assert!(!self.wants(), "a measured event must be recorded");
        self.next += 1;
    }

    /// Records the value of an event that [`Self::wants`] asked to
    /// measure, and draws the gap to the next one.
    pub fn record(&mut self, v: u64) {
        debug_assert!(self.wants(), "an unmeasured event must be skipped");
        self.settle();
        self.held = v;
        self.next_measured = self.next + gap_after(self.stream, self.next);
        self.next += 1;
    }

    /// Moves every event counted since the last settle into the
    /// histogram, each at the value of the measured event that stands
    /// for it, and returns the histogram for folding.
    pub fn settle(&mut self) -> &mut LocalHistogram {
        let weight = self.next - self.settled;
        if weight > 0 {
            self.local.record_weighted(self.held, weight);
            self.settled = self.next;
        }
        &mut self.local
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Bounds are half-open and contiguous.
        for i in 1..64 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi - 1), i);
            assert_eq!(Histogram::bucket_bounds(i + 1).0, hi);
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        // 1000 samples uniform over [0, 1000): true p50 ≈ 500, p90 ≈ 900.
        for v in 0..1000 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        // Log2 buckets bound the error by the bucket width.
        assert!((380.0..=640.0).contains(&p50), "p50 {p50}");
        assert!((700.0..=1000.0).contains(&p90), "p90 {p90}");
        assert!(p99 >= p90 && p99 <= 1000.0, "p99 {p99}");
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 999);
        assert!((h.mean() - 499.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_on_single_valued_histogram_stays_in_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(700);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((512.0..=701.0).contains(&v), "q{q} -> {v}");
        }
    }

    #[test]
    fn exact_powers_of_two_open_their_own_bucket() {
        // 2^k is the *inclusive lower* bound of bucket k+1, so an exact
        // power must not land with the values just below it.
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_of(v), k as usize + 1, "2^{k}");
            if v > 1 {
                assert_eq!(Histogram::bucket_of(v - 1), k as usize, "2^{k}-1");
            }
        }
        let h = Histogram::new();
        h.record(1024);
        assert_eq!(h.bucket_counts(), vec![(1024, 1)]);
        // A bucket holding one exact power: quantiles stay within
        // [value, value+1] thanks to the max-capped upper edge.
        for q in [0.0, 0.5, 1.0] {
            let est = h.quantile(q);
            assert!((1024.0..=1025.0).contains(&est), "q{q} -> {est}");
        }
    }

    #[test]
    fn value_zero_has_a_dedicated_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.bucket_counts(), vec![(0, 10)]);
        // All samples are 0; the interpolated estimate must stay inside
        // bucket 0's [0, 1) range for every quantile.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!((0.0..=1.0).contains(&est), "q{q} -> {est}");
        }
    }

    #[test]
    fn u64_max_lands_in_the_top_bucket_without_overflow() {
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 1);
        // bucket_bounds(64) must not shift by 64; its lower edge is 2^63.
        assert_eq!(Histogram::bucket_bounds(64).0, 1u64 << 63);
        let est = h.quantile(1.0);
        assert!(est >= (1u64 << 63) as f64 && est.is_finite(), "p100 {est}");
    }

    #[test]
    fn quantile_interpolation_is_monotone_within_a_single_bucket() {
        // 512 samples uniform over bucket 10's range [512, 1024): the
        // in-bucket linear interpolation should be monotone in q and
        // roughly track the true quantiles.
        let h = Histogram::new();
        for v in 512..1024 {
            h.record(v);
        }
        let mut prev = f64::MIN;
        for i in 0..=10 {
            let q = f64::from(i) / 10.0;
            let est = h.quantile(q);
            assert!(
                est >= prev,
                "quantile not monotone at q={q}: {est} < {prev}"
            );
            assert!((512.0..=1024.0).contains(&est), "q{q} -> {est}");
            prev = est;
        }
        let p50 = h.quantile(0.5);
        assert!(
            (700.0..=830.0).contains(&p50),
            "p50 of [512,1024) was {p50}"
        );
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.bucket_counts().is_empty());
    }

    #[test]
    fn absorbing_a_local_histogram_equals_recording_directly() {
        let direct = Histogram::new();
        let folded = Histogram::new();
        let mut local = LocalHistogram::default();
        for (i, v) in [0u64, 1, 3, 700, 700, 1 << 40, 5, 999]
            .into_iter()
            .enumerate()
        {
            direct.record(v);
            local.record(v);
            // Fold at uneven checkpoints: nothing is dropped or doubled.
            if i % 3 == 2 {
                folded.absorb(&mut local);
                assert_eq!((local.count(), local.sum()), (0, 0));
            }
        }
        folded.absorb(&mut local);
        folded.absorb(&mut local);
        assert_eq!(folded.count(), direct.count());
        assert_eq!(folded.sum(), direct.sum());
        assert_eq!(folded.max(), direct.max());
        assert_eq!(folded.bucket_counts(), direct.bucket_counts());
    }

    /// Drives `events` events through a fresh sampler labelled `label`,
    /// recording event `i`'s value as `value(i)` when asked; returns the
    /// sampler and the indices it measured.
    fn drive(label: &str, events: u64, value: impl Fn(u64) -> u64) -> (SampledHistogram, Vec<u64>) {
        let mut h = SampledHistogram::new(label);
        let mut measured = Vec::new();
        for i in 0..events {
            if h.wants() {
                h.record(value(i));
                measured.push(i);
            } else {
                h.skip();
            }
        }
        (h, measured)
    }

    #[test]
    fn sampled_weights_sum_to_the_event_count_at_every_fold() {
        let shared = Histogram::new();
        let mut h = SampledHistogram::new("test.sampled");
        let mut folds = 0;
        for i in 0..20_000u64 {
            if h.wants() {
                h.record(100 + i % 900);
            } else {
                h.skip();
            }
            // Uneven fold points, some inside a gap, some twice in a row.
            if i % 37 == 5 || i % 101 == 0 || i % 101 == 1 {
                shared.absorb(h.settle());
                folds += 1;
                assert_eq!(shared.count(), i + 1, "after event {i}");
                let buckets: u64 = shared.bucket_counts().iter().map(|&(_, n)| n).sum();
                assert_eq!(buckets, shared.count(), "bucket totals after event {i}");
            }
        }
        assert!(folds > 500);
        // Settling twice adds nothing.
        shared.absorb(h.settle());
        shared.absorb(h.settle());
        assert_eq!(shared.count(), 20_000);
        // A constant value is estimated exactly.
        let (mut constant, _) = drive("test.sampled", 5_000, |_| 7);
        let local = constant.settle();
        assert_eq!((local.count(), local.sum()), (5_000, 35_000));
    }

    #[test]
    fn sampled_events_are_a_pure_function_of_label_and_index() {
        let (_, a) = drive("test.sampled", 100_000, |i| i);
        let (_, b) = drive("test.sampled", 100_000, |i| i * 3 + 1);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // Another label measures another subset.
        let (_, c) = drive("test.sampled.other", 100_000, |i| i);
        assert_ne!(a, c);
    }

    #[test]
    fn one_event_in_sample_period_is_measured() {
        let (_, measured) = drive("test.sampled", 1_000_000, |_| 1);
        let share = measured.len() as f64 / 1e6;
        let target = 1.0 / SAMPLE_PERIOD as f64;
        assert!(
            (share - target).abs() <= 0.01 * target,
            "measured share {share}, target {target}"
        );
    }

    #[test]
    fn a_round_robin_cannot_alias_with_the_sample() {
        // The crawler's queries cycle over four vantage clients.
        let (_, measured) = drive("test.sampled", 1_000_000, |_| 1);
        let mut per_client = [0u64; 4];
        for i in &measured {
            per_client[(i % 4) as usize] += 1;
        }
        for (client, n) in per_client.iter().enumerate() {
            let share = *n as f64 / measured.len() as f64;
            assert!((share - 0.25).abs() <= 0.02, "client {client}: {share}");
        }
    }

    #[test]
    fn a_loop_shorter_than_the_mean_gap_is_still_measured() {
        let (mut h, measured) = drive("test.sampled", 3, |_| 42);
        assert_eq!(measured, vec![0]);
        let local = h.settle();
        assert_eq!((local.count(), local.sum()), (3, 126));
        // An owner that never counted an event leaves nothing behind.
        let mut idle = SampledHistogram::new("test.sampled");
        assert_eq!(idle.settle().count(), 0);
    }

    #[test]
    fn sharded_counter_is_exact_under_concurrency() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 800_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
    }

    /// The counter's single-threaded throughput: at least 10 M
    /// increments/sec. Ignored by default because debug builds are ~20x
    /// slower; `scripts/check.sh` runs it in release with `--ignored`.
    #[test]
    #[ignore = "release-only: scripts/check.sh"]
    fn counter_throughput() {
        let c = Counter::new();
        let n = 100_000_000u64;
        let start = std::time::Instant::now();
        for _ in 0..n {
            c.inc();
        }
        let secs = start.elapsed().as_secs_f64();
        let rate = n as f64 / secs;
        eprintln!("counter: {rate:.0} increments/sec ({secs:.3}s for {n})");
        assert_eq!(c.value(), n);
        assert!(
            rate >= 10_000_000.0,
            "counter throughput: {rate:.0} increments/s, bound >= 10000000/s"
        );
    }
}
