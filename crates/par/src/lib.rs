//! # btpub-par
//!
//! Deterministic data parallelism for the measurement pipeline.
//!
//! The build environment is offline (no rayon), so this crate provides a
//! `std`-only fork-join executor: [`par_map_indexed`] maps `0..n` over
//! scoped worker threads that claim contiguous chunks from one atomic
//! cursor, and returns the results **in input order**, no matter which
//! worker computed what. At one worker it is a plain loop on the
//! calling thread.
//!
//! ## Determinism contract
//!
//! Every call site in this workspace derives its randomness *per item*
//! (`rngs::derive(seed, stream, idx)`), never threaded through the loop,
//! so a task's output depends only on its index — not on scheduling.
//! Together with ordered result assembly this gives the headline
//! guarantee: **serial (`--jobs 1`) and parallel (`--jobs N`) runs
//! produce byte-identical reports.** `tests/determinism_par.rs` and the
//! `scripts/check.sh` gate enforce it end to end.
//!
//! ## Worker-count policy
//!
//! [`Jobs`] resolves, in precedence order: an explicit
//! [`set_global`] (the `--jobs N` CLI flag), the `BTPUB_JOBS`
//! environment variable, then [`std::thread::available_parallelism`] —
//! and the result is capped at the available parallelism, so an
//! oversubscribed `--jobs N` on a small box degrades to fewer workers
//! (down to the no-pool serial fast path at one core) instead of
//! time-slicing N working sets through one cache.
//!
//! ## Observability
//!
//! Each named pool reports through `btpub-obs`:
//!
//! * `par.<name>.tasks` — counter of tasks executed (one per chunk, or
//!   one per region at one worker);
//! * `par.<name>.task_ns` — histogram of per-task wall latency;
//! * `par.<name>.workers` — gauge: workers used by the last region;
//! * `par.<name>.queue_depth` — gauge: tasks not yet claimed.
//!
//! ```
//! let items = [1, 2, 3];
//! let doubled = btpub_par::par_map_indexed("doc.demo", items.len(), |i| items[i] * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! let squares = btpub_par::par_map_indexed("doc.demo", 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! ```

pub mod jobs;
pub mod pool;

pub use jobs::{global, set_global, Jobs};
pub use pool::Pool;

/// Maps `f` over `0..n` on the global [`Jobs`] worker count, returning
/// `vec![f(0), f(1), …, f(n-1)]`. `name` labels the pool's metrics.
pub fn par_map_indexed<R, F>(name: &str, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    Pool::global(name).par_map_indexed(n, f)
}
