//! Retry with exponential backoff, deterministic jitter, and a deadline
//! budget.
//!
//! The same policy type drives two clocks:
//!
//! * **sim time** — the crawler computes `delay_secs(attempt, jitter)`
//!   and schedules its retry event that many simulated seconds later;
//! * **wall time** — the live-network clients call [`RetryPolicy::run`],
//!   which sleeps between attempts and enforces the deadline for real.
//!
//! Jitter is *deterministic*: callers pass a draw (usually
//! [`crate::FaultPlan::jitter`]) derived from `(seed, stream, index)`, so
//! retried schedules are as reproducible as everything else.

use std::time::{Duration, Instant};

/// An exponential-backoff retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). Always ≥ 1.
    pub max_attempts: u32,
    /// Delay before the second attempt.
    pub base: Duration,
    /// Per-attempt delay ceiling.
    pub cap: Duration,
    /// Fraction of each delay subject to jitter, in parts per million
    /// (`0` = fixed schedule, `1_000_000` = full jitter).
    pub jitter_ppm: u32,
    /// Total time budget across all attempts and sleeps; `None` = only
    /// `max_attempts` bounds the operation.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// A sane default for simulated announce retries: six attempts,
    /// 15 s base doubling to a 15-minute cap, 25 % jitter.
    pub fn announce() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_secs(15),
            cap: Duration::from_secs(900),
            jitter_ppm: 250_000,
            deadline: None,
        }
    }

    /// Raw exponential delay before attempt `attempt` (1-based; attempt 1
    /// has no delay), capped.
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = (attempt - 2).min(62);
        let factor = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        self.base
            .saturating_mul(factor.min(u64::from(u32::MAX)) as u32)
            .min(self.cap)
    }

    /// Delay in whole seconds with a deterministic jitter draw folded in
    /// — the sim-time entry point. `jitter_draw` is any uniform `u64`
    /// (e.g. [`crate::FaultPlan::jitter`] output or a raw
    /// [`crate::mix`]); only `jitter_ppm` of the delay is modulated.
    pub fn delay_secs(&self, attempt: u32, jitter_draw: u64) -> u64 {
        let base = self.delay(attempt).as_secs();
        if base == 0 || self.jitter_ppm == 0 {
            return base;
        }
        let window = base * u64::from(self.jitter_ppm) / 1_000_000;
        if window == 0 {
            return base;
        }
        // Centre the jitter: [base - window/2, base + window/2].
        base - window / 2 + jitter_draw % (window + 1)
    }

    /// Runs `op` under this policy on the wall clock, sleeping between
    /// attempts. `op` receives the 1-based attempt number. Gives up after
    /// `max_attempts`, or earlier when the next sleep would cross the
    /// deadline; the last error is returned. Metrics: `retry.<name>.attempts`,
    /// `retry.<name>.success`, `retry.<name>.gaveup`.
    pub fn run<T, E>(&self, name: &str, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let started = Instant::now();
        let mut attempt = 1;
        loop {
            btpub_obs::counter(&format!("retry.{name}.attempts")).inc();
            match op(attempt) {
                Ok(v) => {
                    btpub_obs::counter(&format!("retry.{name}.success")).inc();
                    return Ok(v);
                }
                Err(e) => {
                    let next_delay = self.delay(attempt + 1);
                    let out_of_budget = self
                        .deadline
                        .is_some_and(|d| started.elapsed() + next_delay >= d);
                    if attempt >= self.max_attempts || out_of_budget {
                        btpub_obs::counter(&format!("retry.{name}.gaveup")).inc();
                        return Err(e);
                    }
                    // Deterministic jitter keyed on the attempt alone: the
                    // wall-clock path has no plan seed, and reproducibility
                    // here only needs a fixed ladder. Sub-second ladders
                    // (tests, probes) skip jitter — `delay_secs` works in
                    // whole seconds.
                    let sleep = if next_delay >= Duration::from_secs(1) {
                        let jitter = crate::mix(0, name, u64::from(attempt));
                        Duration::from_secs(self.delay_secs(attempt + 1, jitter))
                    } else {
                        next_delay
                    };
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_ladder_doubles_and_caps() {
        let p = RetryPolicy::announce();
        assert_eq!(p.delay(1), Duration::ZERO);
        assert_eq!(p.delay(2), Duration::from_secs(15));
        assert_eq!(p.delay(3), Duration::from_secs(30));
        assert_eq!(p.delay(4), Duration::from_secs(60));
        assert_eq!(p.delay(20), Duration::from_secs(900), "capped");
    }

    #[test]
    fn jittered_delay_stays_in_band_and_is_deterministic() {
        let p = RetryPolicy::announce();
        for draw in [0u64, 1, 17, u64::MAX, 0xDEAD_BEEF] {
            let d = p.delay_secs(3, draw);
            // base 30, 25 % jitter → [27, 34].
            assert!((27..=34).contains(&d), "delay {d}");
            assert_eq!(d, p.delay_secs(3, draw));
        }
        // Zero jitter reproduces the raw ladder.
        let fixed = RetryPolicy {
            jitter_ppm: 0,
            ..RetryPolicy::announce()
        };
        assert_eq!(fixed.delay_secs(3, 12345), 30);
    }

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            jitter_ppm: 0,
            deadline: None,
        };
        let mut calls = 0;
        let out: Result<u32, &str> = p.run("test.ok", |attempt| {
            calls += 1;
            if attempt < 3 {
                Err("flaky")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(3));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_gives_up_after_max_attempts() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            jitter_ppm: 0,
            deadline: None,
        };
        let mut calls = 0;
        let out: Result<(), u32> = p.run("test.fail", |a| {
            calls += 1;
            Err(a)
        });
        assert_eq!(out, Err(3), "last error surfaces");
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_respects_deadline_budget() {
        let p = RetryPolicy {
            max_attempts: 100,
            base: Duration::from_millis(20),
            cap: Duration::from_millis(20),
            jitter_ppm: 0,
            deadline: Some(Duration::from_millis(30)),
        };
        let started = Instant::now();
        let mut calls = 0;
        let out: Result<(), &str> = p.run("test.deadline", |_| {
            calls += 1;
            Err("down")
        });
        assert!(out.is_err());
        assert!(calls < 5, "deadline must cut attempts, got {calls}");
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
