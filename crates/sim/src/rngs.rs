//! Deterministic RNG discipline.
//!
//! Every stochastic component derives its own [`StdRng`] from the master
//! scenario seed, a stream label, and a numeric id. Two properties follow:
//!
//! 1. **Reproducibility** — the same `(config, seed)` produces a
//!    byte-identical ecosystem regardless of iteration order or threading;
//! 2. **Insensitivity** — adding draws in one component never shifts the
//!    random sequence seen by another, so calibration doesn't ripple.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent RNG for `(stream, id)` under `master` seed.
pub fn derive(master: u64, stream: &str, id: u64) -> StdRng {
    StdRng::seed_from_u64(btpub_obs::trace::mix(master, stream, id))
}

/// Samples a log-normal: `exp(N(mu, sigma))`.
///
/// The swarm popularity and seeding-time models are log-normal because the
/// paper's box plots show order-of-magnitude spreads with heavy upper
/// tails (Figures 3 and 4).
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    let n: f64 = rand::distributions::Standard.sample(rng);
    let m: f64 = rand::distributions::Standard.sample(rng);
    // Box-Muller from two uniforms.
    let z = (-2.0 * n.max(f64::MIN_POSITIVE).ln()).sqrt()
        * (2.0 * std::f64::consts::PI * m).cos();
    (mu + sigma * z).exp()
}

/// Samples an exponential with the given mean.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples an integer in `[lo, hi]` inclusive (convenience for config ranges).
pub fn int_in<R: Rng + ?Sized>(rng: &mut R, lo: u32, hi: u32) -> u32 {
    if lo >= hi {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Weighted choice: returns the index of the chosen weight.
///
/// # Panics
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_stream_separated() {
        let mut a1 = derive(42, "swarm", 7);
        let mut a2 = derive(42, "swarm", 7);
        assert_eq!(a1.gen::<u64>(), a2.gen::<u64>());
        let mut b = derive(42, "swarm", 8);
        let mut c = derive(42, "publisher", 7);
        let mut d = derive(43, "swarm", 7);
        let base = derive(42, "swarm", 7).gen::<u64>();
        assert_ne!(base, b.gen::<u64>());
        assert_ne!(base, c.gen::<u64>());
        assert_ne!(base, d.gen::<u64>());
    }

    #[test]
    fn lognormal_statistics() {
        let mut rng = derive(1, "test", 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| lognormal(&mut rng, 2.0, 0.5)).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[n / 2];
        // Median of lognormal is exp(mu) = e^2 ≈ 7.39.
        assert!((median - 7.39).abs() / 7.39 < 0.1, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_statistics() {
        let mut rng = derive(2, "test", 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_nonpositive_mean() {
        let mut rng = derive(0, "t", 0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn int_in_handles_degenerate_ranges() {
        let mut rng = derive(3, "test", 0);
        assert_eq!(int_in(&mut rng, 5, 5), 5);
        assert_eq!(int_in(&mut rng, 9, 2), 9);
        for _ in 0..100 {
            let v = int_in(&mut rng, 1, 3);
            assert!((1..=3).contains(&v));
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = derive(4, "test", 0);
        let weights = [0.0, 10.0, 0.0, 1.0];
        let mut counts = [0usize; 4];
        for _ in 0..5000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        assert!(counts[1] > counts[3] * 5);
    }

    #[test]
    #[should_panic(expected = "positive value")]
    fn weighted_index_rejects_zero_weights() {
        let mut rng = derive(5, "test", 0);
        weighted_index(&mut rng, &[0.0, 0.0]);
    }
}
