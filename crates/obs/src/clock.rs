//! The integer-nanosecond monotonic clock every timer in this crate
//! reads.
//!
//! `std::time::Instant` is opaque: every duration and every conversion
//! to the observability epoch goes through `Duration` arithmetic (a
//! seconds/nanoseconds pair, a `u128` round-trip for `as_nanos`), which
//! on the announce path cost more than the clock read itself. [`now`]
//! returns `CLOCK_MONOTONIC` as plain `u64` nanoseconds — read through
//! raw FFI on Linux, in the style of `btpub-monitor`'s `signal(2)` —
//! so a duration is one subtraction and an epoch offset another.
//! Elsewhere it falls back to `Instant` arithmetic against a fixed
//! origin.

use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux: `time_t` and `long` are both
    /// 64 bits wide.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_MONOTONIC: i32 = 1;

    /// `CLOCK_MONOTONIC` in nanoseconds (a vDSO call, no syscall).
    #[inline]
    pub fn monotonic_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, and CLOCK_MONOTONIC always exists on Linux, so the
        // call cannot fail.
        unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
        (ts.tv_sec as u64)
            .wrapping_mul(1_000_000_000)
            .wrapping_add(ts.tv_nsec as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Nanoseconds since the first reading: an `Instant` has no
    /// readable origin, so the fallback clock makes one.
    #[inline]
    pub fn monotonic_ns() -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let d = ORIGIN.get_or_init(Instant::now).elapsed();
        d.as_secs()
            .wrapping_mul(1_000_000_000)
            .wrapping_add(u64::from(d.subsec_nanos()))
    }
}

/// Monotonic nanoseconds from an arbitrary fixed origin. Only
/// differences between readings, and [`to_epoch`], mean anything.
#[inline]
pub fn now() -> u64 {
    sys::monotonic_ns()
}

/// The observability epoch as a [`now`] reading: [`UNSET`] until the
/// first conversion to it (the first log line, trace event or uptime
/// read), fixed after. An atomic rather than a `OnceLock`, so an armed
/// event pays one relaxed load for it.
static EPOCH_NS: AtomicU64 = AtomicU64::new(UNSET);

const UNSET: u64 = u64::MAX;

/// Nanoseconds from the observability epoch to the [`now`] reading
/// `at` (0 for a reading taken before the epoch).
#[inline]
pub(crate) fn to_epoch(at: u64) -> u64 {
    let base = match EPOCH_NS.load(Ordering::Relaxed) {
        UNSET => fix_epoch(),
        base => base,
    };
    at.saturating_sub(base)
}

/// Fixes the epoch at the current reading, once: the first thread to
/// get here stores it, the others return what it stored.
#[cold]
fn fix_epoch() -> u64 {
    let first = now();
    match EPOCH_NS.compare_exchange(UNSET, first, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => first,
        Err(set) => set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn readings_are_monotonic_and_bracket_instant_reads() {
        let c0 = now();
        let i0 = Instant::now();
        let mut prev = c0;
        for _ in 0..1000 {
            let c = now();
            assert!(c >= prev, "clock went back: {c} < {prev}");
            prev = c;
        }
        std::thread::sleep(Duration::from_millis(2));
        let i1 = Instant::now();
        let c1 = now();
        // Both read the same monotonic clock, so the integer readings
        // taken around two `Instant` reads span at least as much time.
        let by_clock = c1 - c0;
        let by_instant = (i1 - i0).as_nanos() as u64;
        assert!(
            by_instant >= 2_000_000,
            "slept 2 ms, Instant says {by_instant} ns"
        );
        assert!(
            by_clock >= by_instant,
            "clock {by_clock} ns < Instant {by_instant} ns"
        );
    }

    #[test]
    fn epoch_offsets_are_fixed_and_clamp_at_the_epoch() {
        // Fix the epoch (if nothing has yet), then read after it:
        // readings sit at the same distance from it as from each other.
        to_epoch(now());
        let a = now();
        let first = to_epoch(a);
        let b = now();
        assert_eq!(to_epoch(b) - to_epoch(a), b - a);
        assert!(to_epoch(b) >= first);
        assert_eq!(to_epoch(0), 0, "readings before the epoch clamp to it");
    }
}
