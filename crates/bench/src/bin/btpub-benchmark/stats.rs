//! Order statistics. Pure functions only: the unit tests below feed them
//! synthetic samples, so nothing here depends on how fast the machine
//! happens to be.

/// Median of `values` (sorted in place). `0.0` for no samples.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples. The
/// epsilon keeps `99.99 × 100 000 / 100` from rounding up past 99 990.
fn rank(pct: f64, n: usize) -> usize {
    ((pct * n as f64 / 100.0) - 1e-6).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `pct` of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(pct, sorted.len()).min(sorted.len()) - 1]
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile a sample supports, with its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (`99.0` for p99).
    pub pct: f64,
    /// Its value.
    pub value: f64,
}

/// The highest percentile on the ladder with at least ten samples beyond
/// it, so a p99 is never claimed from 200 samples. `None` when even the
/// median lacks that support.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&pct| n.saturating_sub(rank(pct, n)) >= TAIL_SUPPORT)
        .map(|&pct| Tail {
            pct,
            value: percentile(sorted, pct),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
        let t = tail(&sorted).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // 230 samples (a 44 ms HTTP run): p90 leaves 23, p99 leaves 2.
        let t = tail(&sorted[..230]).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 207.0));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&sorted[..20]).unwrap().pct, 50.0);
        // 19 samples support nothing.
        assert_eq!(tail(&sorted[..19]), None);
        // 100 000 samples support p99.99 exactly.
        let big: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&big).unwrap();
        assert_eq!((t.pct, t.value), (99.99, 99_990.0));
    }
}
