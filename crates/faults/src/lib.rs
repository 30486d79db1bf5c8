//! # btpub-faults
//!
//! Deterministic fault injection and resilience for the measurement
//! pipeline. The paper's crawler ran for months against a hostile real
//! network — tracker outages, rate limiting, truncated and garbled
//! replies, unreachable NATed peers — while the reproduction's simulated
//! ecosystem is, by default, perfectly clean. This crate closes that gap
//! in two halves:
//!
//! * **Injection** — a [`FaultProfile`] names per-edge fault rates
//!   (`clean`, `flaky`, `hostile`, or custom), and a seeded [`FaultPlan`]
//!   turns them into concrete decisions. Every decision is a pure
//!   function of `(seed, stream, index)` — no hidden RNG state — so the
//!   same seed and profile produce the same faults whether the pipeline
//!   runs serially or under `btpub-par` at any job count, and adding a
//!   fault draw at one I/O edge never perturbs another. Injection points
//!   are described by the [`FaultPoint`] trait; the tracker simulation,
//!   the portal RSS feed and the live-network clients each implement the
//!   check at their own edge.
//! * **Resilience** — a generic [`RetryPolicy`] (exponential backoff with
//!   deterministic jitter and a per-operation deadline budget, including
//!   the BEP 15 `15·2^n` UDP retransmit schedule), a [`CircuitBreaker`]
//!   that stops hammering a failing tracker well before its blacklist
//!   threshold trips, and a shared [`NetConfig`] replacing the hardcoded
//!   socket timeouts that were previously scattered over the live
//!   clients.
//!
//! Everything is `std`-only and emits `faults.*` / `retry.*` metrics
//! through `btpub-obs`.

pub mod breaker;
pub mod crash;
pub mod net;
pub mod plan;
pub mod profile;
pub mod retry;

pub use breaker::{BreakerState, CircuitBreaker};
pub use crash::{crash_point, hit_for};
pub use net::NetConfig;
pub use plan::{points, Fault, FaultPlan, FaultPoint};
pub use profile::FaultProfile;
pub use retry::RetryPolicy;

/// Mixes `(seed, stream, index)` into a uniform `u64` — the workspace's
/// one seed mixer, shared with the flight recorder's sampler and the
/// simulation's RNG streams.
pub use btpub_obs::trace::mix;

/// Folds several ids into one draw index (e.g. `(client, torrent, t)`).
pub fn key(parts: &[u64]) -> u64 {
    let mut z: u64 = 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        z ^= p
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(z << 6)
            .wrapping_add(z >> 2);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_separated() {
        assert_eq!(mix(1, "a", 2), 0xff34_8301_e0d8_2733);
        assert_eq!(mix(1, "a", 3), 0xfd47_e8a3_73c3_4c97);
        assert_eq!(mix(1, "b", 2), 0xf19e_d877_2319_e759);
        assert_eq!(mix(2, "a", 2), 0x28bf_0016_c090_2ce6);
    }

    #[test]
    fn mix_is_roughly_uniform() {
        let n = 10_000;
        let hits = (0..n)
            .filter(|&i| mix(42, "uniformity", i) % 1_000_000 < 100_000)
            .count();
        // 10 % rate ± generous slack.
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn key_depends_on_every_part_and_order() {
        assert_eq!(key(&[1, 2, 3]), key(&[1, 2, 3]));
        assert_ne!(key(&[1, 2, 3]), key(&[1, 2, 4]));
        assert_ne!(key(&[1, 2, 3]), key(&[3, 2, 1]));
        assert_ne!(key(&[0, 0]), key(&[0]));
    }
}
