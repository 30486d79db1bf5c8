//! Worker-count policy: `--jobs N` > `BTPUB_JOBS` > detected cores,
//! with the resolved count capped at the machine's available
//! parallelism (see [`Jobs::effective`]).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads a parallel region may use. Always ≥ 1;
/// `Jobs(1)` means "run serially on the calling thread".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(usize);

impl Jobs {
    /// An explicit worker count (clamped up to 1).
    pub fn new(n: usize) -> Jobs {
        Jobs(n.max(1))
    }

    /// The machine's available parallelism (1 when undetectable).
    pub fn detected() -> Jobs {
        Jobs(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// `BTPUB_JOBS` when set to a positive integer, else [`Jobs::detected`].
    pub fn from_env() -> Jobs {
        match std::env::var("BTPUB_JOBS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Jobs(n),
                _ => Jobs::detected(),
            },
            Err(_) => Jobs::detected(),
        }
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0
    }

    /// Caps the request at the machine's available parallelism.
    ///
    /// Workers beyond the core count cannot run concurrently — on a
    /// 1-CPU container `--jobs 4` used to time-slice three full
    /// event-loop working sets through one cache for a 0.83× "speedup".
    /// Capping makes an oversubscribed request resolve to the same
    /// no-pool serial fast path as `--jobs 1`. Explicit [`Pool::new`]
    /// counts are deliberately *not* capped, so the threaded executor
    /// stays unit-testable on any box.
    ///
    /// [`Pool::new`]: crate::Pool::new
    pub fn effective(self) -> Jobs {
        Jobs(self.0.min(Jobs::detected().get()))
    }
}

/// Process-wide override; 0 means "not set yet".
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (what `--jobs N` does). Takes
/// precedence over `BTPUB_JOBS` and core detection for every subsequent
/// [`global`] call.
pub fn set_global(jobs: Jobs) {
    GLOBAL.store(jobs.get(), Ordering::SeqCst);
}

/// The effective process-wide worker count: the last [`set_global`] if
/// any, else [`Jobs::from_env`] (resolved once and cached, so a single
/// run sees one consistent policy), capped at the machine's available
/// parallelism ([`Jobs::effective`]).
pub fn global() -> Jobs {
    let cur = GLOBAL.load(Ordering::SeqCst);
    if cur != 0 {
        return Jobs(cur).effective();
    }
    let resolved = Jobs::from_env();
    // Cache; racing resolvers compute the same value, first write wins.
    let _ = GLOBAL.compare_exchange(0, resolved.get(), Ordering::SeqCst, Ordering::SeqCst);
    Jobs(GLOBAL.load(Ordering::SeqCst).max(1)).effective()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_to_one() {
        assert_eq!(Jobs::new(0).get(), 1);
        assert_eq!(Jobs::new(7).get(), 7);
    }

    #[test]
    fn detected_is_positive() {
        assert!(Jobs::detected().get() >= 1);
    }

    #[test]
    fn global_round_trips_set() {
        // Note: global state; other tests in this binary must not depend
        // on a specific global value.
        set_global(Jobs::new(3));
        assert_eq!(global().get(), Jobs::new(3).effective().get());
        set_global(Jobs::detected());
        assert!(global().get() >= 1);
    }

    #[test]
    fn effective_caps_at_available_parallelism() {
        let cores = Jobs::detected().get();
        assert_eq!(Jobs::new(1).effective().get(), 1);
        assert_eq!(Jobs::new(cores).effective().get(), cores);
        assert_eq!(Jobs::new(cores + 7).effective().get(), cores);
    }
}
