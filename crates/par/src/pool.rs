//! The ordered chunked executor.
//!
//! A [`Pool`] is a *named policy* — a worker count plus a metrics label —
//! not a set of resident threads. Each [`Pool::par_map_indexed`] call
//! opens a fork-join region: worker threads are scoped to the call
//! ([`std::thread::scope`]), so tasks may borrow from the caller's stack
//! and a nested map inside a task simply opens its own region — there
//! is no shared ready-queue for inner regions to starve on, which is
//! what makes nesting deadlock-free by construction.
//!
//! Within a region, `0..n` is cut into contiguous chunks, a few per
//! worker, and workers claim the next chunk from one atomic cursor until
//! none is left: a worker stuck on a slow chunk simply claims fewer.
//! Each chunk's results come back tagged with the chunk index and are
//! concatenated in chunk order, so the output order is the input order
//! regardless of which worker ran what.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use btpub_obs::{Counter, Gauge, Histogram};

use crate::jobs::{self, Jobs};

/// A named parallel-execution policy. See the module docs.
#[derive(Debug, Clone)]
pub struct Pool {
    name: String,
    jobs: Jobs,
}

/// Per-pool obs handles, looked up once per region.
struct Metrics {
    tasks: Arc<Counter>,
    task_ns: Arc<Histogram>,
    workers: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
}

impl Metrics {
    fn for_pool(name: &str) -> Metrics {
        Metrics {
            tasks: btpub_obs::counter(&format!("par.{name}.tasks")),
            task_ns: btpub_obs::histogram(&format!("par.{name}.task_ns")),
            workers: btpub_obs::gauge(&format!("par.{name}.workers")),
            queue_depth: btpub_obs::gauge(&format!("par.{name}.queue_depth")),
        }
    }

    /// Times one task and counts it.
    fn task<T>(&self, body: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = body();
        self.task_ns.record(t0.elapsed().as_nanos() as u64);
        self.tasks.inc();
        out
    }
}

/// Chunks per worker: enough that a worker held up by a slow chunk
/// leaves the rest to the others, few enough that per-task bookkeeping
/// (metrics, timing, the cursor) disappears from the profile.
const CHUNKS_PER_WORKER: usize = 8;

/// State shared by one region's workers.
struct Region {
    /// Number of chunks `0..n` is cut into.
    chunks: usize,
    /// The next unclaimed chunk; values `>= chunks` mean none is left.
    next: AtomicUsize,
    /// Set on the first task panic; workers stop claiming new chunks.
    poisoned: AtomicBool,
    /// The first panic payload, re-thrown on the calling thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Pool {
    /// A pool with an explicit worker count.
    pub fn new(name: impl Into<String>, jobs: Jobs) -> Pool {
        Pool {
            name: name.into(),
            jobs,
        }
    }

    /// A pool following the process-wide [`jobs::global`] policy
    /// (`--jobs N` > `BTPUB_JOBS` > detected cores).
    pub fn global(name: impl Into<String>) -> Pool {
        Pool::new(name, jobs::global())
    }

    /// Maps `f` over `0..n`, returning `vec![f(0), …, f(n-1)]`.
    ///
    /// With one worker (`min(jobs, n) == 1`) this is a plain loop on the
    /// calling thread, recorded as one task. Otherwise `0..n` runs as
    /// `min(n, workers × 8)` contiguous chunks, one task each, claimed
    /// by scoped worker threads. If a task panics, no further chunk is
    /// claimed and the first panic resumes on the calling thread (as a
    /// serial loop would).
    pub fn par_map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let m = Metrics::for_pool(&self.name);
        let workers = self.jobs.get().min(n);
        m.workers.set(workers as i64);
        if workers == 1 {
            m.queue_depth.set(1);
            let out = m.task(|| (0..n).map(f).collect());
            m.queue_depth.set(0);
            return out;
        }

        // Flight recorder: mark the region open on the calling thread.
        // record_named (not a cached macro): the name varies per pool.
        if btpub_obs::trace::enabled() {
            btpub_obs::trace::record_named(
                &format!("par.{}.region", self.name),
                btpub_obs::trace::EventKind::Instant,
                n as u64,
            );
        }

        let region = Region {
            chunks: (workers * CHUNKS_PER_WORKER).min(n),
            next: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        m.queue_depth.set(region.chunks as i64);
        let mut parts: Vec<(usize, Vec<R>)> = Vec::with_capacity(region.chunks);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (region, f, m) = (&region, &f, &m);
                    std::thread::Builder::new()
                        .name(format!("btpub-par/{}/{w}", self.name))
                        .spawn_scoped(s, move || run_worker(w, n, region, f, m))
                        .expect("spawn worker thread")
                })
                .collect();
            for h in handles {
                parts.extend(h.join().expect("worker survives (tasks are caught)"));
            }
        });
        m.queue_depth.set(0);

        if let Some(payload) = region.panic.into_inner().expect("panic slot") {
            resume_unwind(payload);
        }
        parts.sort_unstable_by_key(|&(c, _)| c);
        debug_assert_eq!(parts.len(), region.chunks, "every chunk ran exactly once");
        let mut out = Vec::with_capacity(n);
        for (_, results) in parts {
            out.extend(results);
        }
        out
    }
}

/// One worker's claim-execute loop. Returns `(chunk, results)` for every
/// chunk this worker ran.
fn run_worker<R, F>(w: usize, n: usize, region: &Region, f: &F, m: &Metrics) -> Vec<(usize, Vec<R>)>
where
    F: Fn(usize) -> R,
{
    // Worker-id stamp: the first event a worker records also registers
    // its thread (named `btpub-par/<pool>/<w>`) with the flight
    // recorder, which is what materializes this worker's trace lane.
    // The name constant is shared across monomorphizations, so the
    // cached-Sym macro is safe here.
    btpub_obs::trace_instant!("par.worker.start", w as u64);
    let chunks = region.chunks;
    let mut out = Vec::new();
    // Relaxed: the cursor and the flag publish no data. Results reach
    // the caller through the thread join, the payload through a mutex.
    while !region.poisoned.load(Ordering::Relaxed) {
        let c = region.next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            break;
        }
        m.queue_depth.add(-1);
        let items = n * c / chunks..n * (c + 1) / chunks;
        match catch_unwind(AssertUnwindSafe(|| m.task(|| items.map(f).collect()))) {
            Ok(results) => out.push((c, results)),
            Err(payload) => {
                region
                    .panic
                    .lock()
                    .expect("panic slot")
                    .get_or_insert(payload);
                region.poisoned.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_input_returns_empty() {
        let pool = Pool::new("test.empty", Jobs::new(4));
        let out: Vec<u32> = pool.par_map_indexed(0, |_| unreachable!("no tasks"));
        assert!(out.is_empty());
    }

    #[test]
    fn single_task_runs_on_caller() {
        let pool = Pool::new("test.single", Jobs::new(8));
        // workers = min(jobs, n) = 1 → serial path, no threads spawned.
        let caller = std::thread::current().id();
        let out = pool.par_map_indexed(1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            i + 41
        });
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn results_are_ordered_under_adversarial_durations() {
        // Early indices sleep longest, so late indices finish first on
        // any schedule; output must still be in input order.
        let pool = Pool::new("test.order", Jobs::new(4));
        let n = 24;
        let out = pool.par_map_indexed(n, |i| {
            std::thread::sleep(Duration::from_millis(((n - 1 - i) % 5) as u64));
            i * i
        });
        assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_map_for_every_jobs_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in 1..=6 {
            let pool = Pool::new("test.match", Jobs::new(jobs));
            let out = pool.par_map_indexed(items.len(), |i| items[i] * 3 + 1);
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_in_worker_propagates_to_caller() {
        let pool = Pool::new("test.panic", Jobs::new(4));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(16, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("task 7 exploded"), "payload: {msg}");
    }

    #[test]
    fn panic_stops_claiming_new_tasks() {
        // Chunk 0 panics at once; the other worker must see the poison
        // flag before it has claimed every remaining chunk. Sleep makes
        // each chunk slow enough for the flag to win.
        let ran = AtomicUsize::new(0);
        let pool = Pool::new("test.poison", Jobs::new(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(1000, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("early");
                }
                std::thread::sleep(Duration::from_micros(50));
            })
        }));
        assert!(result.is_err());
        assert!(
            ran.load(Ordering::SeqCst) < 1000,
            "poisoning should abandon part of the queue"
        );
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let pool = Pool::new("test.nested.outer", Jobs::new(4));
        let out = pool.par_map_indexed(4, |i| {
            let inner = Pool::new("test.nested.inner", Jobs::new(4));
            inner
                .par_map_indexed(8, |j| i * 100 + j)
                .iter()
                .sum::<usize>()
        });
        let inner_sum: usize = (0..8).sum();
        assert_eq!(
            out,
            (0..4).map(|i| i * 100 * 8 + inner_sum).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_metrics_are_recorded() {
        // 50 items over 3 workers run as 3 × CHUNKS_PER_WORKER tasks.
        let pool = Pool::new("test.metrics", Jobs::new(3));
        pool.par_map_indexed(50, |i| i);
        let reg = btpub_obs::global();
        assert_eq!(reg.counter("par.test.metrics.tasks").value(), 24);
        assert_eq!(reg.histogram("par.test.metrics.task_ns").count(), 24);
        assert_eq!(reg.gauge("par.test.metrics.workers").value(), 3);
        assert_eq!(reg.gauge("par.test.metrics.queue_depth").value(), 0);
    }

    #[test]
    fn chunked_maps_match_per_item_maps() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 7 + 3).collect();
        for jobs in [1, 2, 3, 8] {
            let pool = Pool::new("test.chunked", Jobs::new(jobs));
            let out = pool.par_map_indexed(items.len(), |i| items[i] * 7 + 3);
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn chunked_map_coarsens_task_count() {
        // 1000 items over 2 workers must run as exactly
        // 2 * CHUNKS_PER_WORKER tasks, and exactly one task when serial.
        let reg = btpub_obs::global();
        let pool = Pool::new("test.coarse", Jobs::new(2));
        pool.par_map_indexed(1000, |i| i);
        let par_tasks = reg.counter("par.test.coarse.tasks").value();
        assert_eq!(par_tasks, 2 * CHUNKS_PER_WORKER as u64);
        let serial = Pool::new("test.coarse.serial", Jobs::new(1));
        serial.par_map_indexed(1000, |i| i);
        assert_eq!(reg.counter("par.test.coarse.serial.tasks").value(), 1);
        assert_eq!(reg.histogram("par.test.coarse.serial.task_ns").count(), 1);
    }
}
