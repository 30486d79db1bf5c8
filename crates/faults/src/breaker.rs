//! A per-tracker circuit breaker.
//!
//! The paper's tracker blacklists clients that keep hammering it (the
//! simulation's `TrackerSim` tolerates 20 strikes). A crawler that
//! retries a failing tracker in a tight loop converts a transient outage
//! into a permanent blacklisting — the one failure mode a measurement
//! campaign cannot recover from. The breaker opens long before that
//! threshold: after a handful of consecutive failures it refuses further
//! traffic until a cooldown has elapsed, then lets one half-open trial
//! through and only fully closes again on success.
//!
//! The clock is caller-supplied (`u64` seconds), so the same type serves
//! simulated and wall time.

/// Breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; traffic flows.
    Closed,
    /// Tripped; traffic refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one trial request allowed.
    HalfOpen,
}

/// A consecutive-failure circuit breaker over a caller-supplied clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    name: &'static str,
    /// Consecutive failures that trip the breaker.
    threshold: u32,
    /// Seconds the breaker stays open after tripping.
    cooldown_secs: u64,
    consecutive: u32,
    /// Set while open/half-open: when the cooldown ends.
    open_until: Option<u64>,
    /// Whether this breaker currently holds a full-rate tracing window
    /// open (`btpub_obs::trace::push_full_rate`). Tracked per instance
    /// so half-open re-trips cannot double-push and so the matching pop
    /// fires exactly once, on the close transition.
    full_rate: bool,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// backing off for `cooldown_secs`. `name` labels the metrics
    /// (`retry.breaker.<name>.*`).
    pub fn new(name: &'static str, threshold: u32, cooldown_secs: u64) -> CircuitBreaker {
        CircuitBreaker {
            name,
            threshold: threshold.max(1),
            cooldown_secs,
            consecutive: 0,
            open_until: None,
            full_rate: false,
        }
    }

    /// The breaker guarding the crawler's tracker connection: trips after
    /// 5 consecutive failures — a quarter of `TrackerSim`'s 20-strike
    /// blacklist budget — and backs off for 15 minutes (one full
    /// announce interval).
    pub fn tracker() -> CircuitBreaker {
        CircuitBreaker::new("tracker", 5, 900)
    }

    /// Current state at `now`.
    pub fn state(&self, now: u64) -> BreakerState {
        match self.open_until {
            None => BreakerState::Closed,
            Some(until) if now < until => BreakerState::Open,
            Some(_) => BreakerState::HalfOpen,
        }
    }

    /// Whether a request may be sent at `now`.
    pub fn allow(&self, now: u64) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// When an open breaker next allows a (half-open) trial; `None` when
    /// traffic is already allowed.
    pub fn retry_at(&self, now: u64) -> Option<u64> {
        match self.open_until {
            Some(until) if now < until => Some(until),
            _ => None,
        }
    }

    /// Records a successful operation: the breaker closes fully.
    pub fn on_success(&mut self) {
        if self.open_until.is_some() && btpub_obs::trace::enabled() {
            // A real open/half-open → closed transition, worth a lane
            // marker in the flight recorder (routine successes are not).
            btpub_obs::trace::record_named(
                &format!("breaker.{}.closed", self.name),
                btpub_obs::trace::EventKind::Instant,
                0,
            );
        }
        if self.full_rate {
            // Close transition ends the full-rate tracing window this
            // breaker opened. Keyed off breaker state, not off the
            // recorder gate, so push/pop depth stays balanced even if
            // tracing is armed or disarmed mid-incident.
            self.full_rate = false;
            btpub_obs::trace::pop_full_rate(self.name);
        }
        self.consecutive = 0;
        self.open_until = None;
    }

    /// Records a failed operation at `now`; trips (or re-trips, from
    /// half-open) once the consecutive run reaches the threshold.
    pub fn on_failure(&mut self, now: u64) {
        self.consecutive = self.consecutive.saturating_add(1);
        if self.consecutive >= self.threshold {
            if self.open_until.is_none_or(|until| now >= until) {
                btpub_obs::counter(&format!("retry.breaker.{}.opened", self.name)).inc();
                if !self.full_rate {
                    // First open of this incident: trace at full rate
                    // until the close transition pops the window. A
                    // half-open re-trip keeps the existing window.
                    self.full_rate = true;
                    btpub_obs::trace::push_full_rate(self.name);
                }
                if btpub_obs::trace::enabled() {
                    btpub_obs::trace::record_named(
                        &format!("breaker.{}.opened", self.name),
                        btpub_obs::trace::EventKind::Instant,
                        now,
                    );
                    // Black box: a breaker opening is exactly the "what
                    // led up to this" moment; dump the recent rings
                    // (bounded + deduped per reason inside trip).
                    btpub_obs::trace::trip(&format!("breaker.{}.opened", self.name));
                }
            }
            self.open_until = Some(now + self.cooldown_secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that trip a breaker touch the process-global full-rate
    /// tracing depth; serialize them so assertions about it are not
    /// racing a concurrently-scheduled #[test].
    fn serialize_full_rate() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trips_after_threshold_and_cools_down() {
        let _g = serialize_full_rate();
        let mut b = CircuitBreaker::new("test.trip", 3, 100);
        assert!(b.allow(0));
        b.on_failure(10);
        b.on_failure(11);
        assert!(b.allow(11), "below threshold stays closed");
        b.on_failure(12);
        assert_eq!(b.state(12), BreakerState::Open);
        assert!(!b.allow(50));
        assert_eq!(b.retry_at(50), Some(112));
        // Cooldown elapsed → half-open trial allowed.
        assert_eq!(b.state(112), BreakerState::HalfOpen);
        assert!(b.allow(112));
        assert_eq!(b.retry_at(112), None);
        // Close the breaker so its full-rate tracing window pops.
        b.on_success();
    }

    #[test]
    fn half_open_failure_reopens_success_closes() {
        let _g = serialize_full_rate();
        let mut b = CircuitBreaker::new("test.halfopen", 2, 100);
        b.on_failure(0);
        b.on_failure(1);
        assert_eq!(b.state(101), BreakerState::HalfOpen);
        // Trial fails → straight back to open for another cooldown.
        b.on_failure(101);
        assert_eq!(b.state(150), BreakerState::Open);
        assert_eq!(b.retry_at(150), Some(201));
        // Trial succeeds → fully closed, counter reset.
        b.on_success();
        assert_eq!(b.state(202), BreakerState::Closed);
        b.on_failure(300);
        assert_eq!(
            b.state(300),
            BreakerState::Closed,
            "one failure after reset"
        );
    }

    #[test]
    fn open_close_transitions_drive_full_rate_tracing() {
        let _g = serialize_full_rate();
        assert!(
            !btpub_obs::trace::full_rate_active(),
            "serialized tripping tests leave the depth balanced"
        );
        let mut b = CircuitBreaker::new("test.adaptive", 2, 100);
        b.on_failure(0);
        assert!(!btpub_obs::trace::full_rate_active(), "below threshold");
        b.on_failure(1);
        assert!(
            btpub_obs::trace::full_rate_active(),
            "opening pushes a full-rate tracing window"
        );
        // A failed half-open trial re-trips; the existing window must
        // be kept, not double-pushed (or one pop would not restore).
        b.on_failure(101);
        assert!(btpub_obs::trace::full_rate_active());
        b.on_success();
        assert!(
            !btpub_obs::trace::full_rate_active(),
            "the close transition pops exactly the one window"
        );
        // Routine successes on a closed breaker pop nothing.
        b.on_success();
        assert!(!btpub_obs::trace::full_rate_active());
    }

    #[test]
    fn success_resets_consecutive_count() {
        let mut b = CircuitBreaker::new("test.reset", 3, 10);
        for t in 0..10 {
            b.on_failure(t);
            b.on_failure(t);
            b.on_success();
        }
        assert_eq!(b.state(20), BreakerState::Closed, "never trips with resets");
    }

    #[test]
    fn tracker_breaker_trips_well_before_blacklist() {
        let b = CircuitBreaker::tracker();
        // TrackerSim blacklists after 20 strikes; the breaker must open
        // far earlier to protect the campaign.
        assert!(b.threshold <= 10);
        assert!(
            b.cooldown_secs >= 600,
            "cooldown at least one announce interval"
        );
    }
}
