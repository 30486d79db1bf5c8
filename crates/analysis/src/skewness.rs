//! §3.1 / Figure 1: skewness of publisher contribution.

use crate::publishers::PublisherStats;

/// One point of the Figure 1 curve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CdfPoint {
    /// Top x % of publishers (by content count).
    pub pct_publishers: f64,
    /// Percentage of all published content they account for.
    pub pct_content: f64,
}

/// Computes Figure 1's curve: percentage of content published by the top
/// x % of publishers, evaluated at each publisher boundary.
///
/// Input must already be sorted by content count descending, which
/// [`crate::streaming::StreamAnalyses::publishers`] guarantees.
pub fn contribution_cdf(publishers: &[PublisherStats]) -> Vec<CdfPoint> {
    let total: usize = publishers.iter().map(PublisherStats::content_count).sum();
    if total == 0 || publishers.is_empty() {
        return Vec::new();
    }
    let mut acc = 0usize;
    publishers
        .iter()
        .enumerate()
        .map(|(i, p)| {
            acc += p.content_count();
            CdfPoint {
                pct_publishers: 100.0 * (i + 1) as f64 / publishers.len() as f64,
                pct_content: 100.0 * acc as f64 / total as f64,
            }
        })
        .collect()
}

/// Evaluates the curve at `pct` (e.g. 3.0 → content share of the top 3 %).
pub fn content_share_of_top(publishers: &[PublisherStats], pct: f64) -> f64 {
    let cdf = contribution_cdf(publishers);
    cdf.iter()
        .take_while(|p| p.pct_publishers <= pct + 1e-9)
        .last()
        .map_or(0.0, |p| p.pct_content)
}

/// Content and download shares of the top `k` publishers — the paper's
/// headline "~100 publishers ⇒ 2/3 of content, 3/4 of downloads".
pub fn shares_of_top_k(publishers: &[PublisherStats], k: usize) -> (f64, f64) {
    let total_content: usize = publishers.iter().map(PublisherStats::content_count).sum();
    let total_downloads: u64 = publishers.iter().map(|p| p.downloads).sum();
    if total_content == 0 {
        return (0.0, 0.0);
    }
    let top_content: usize = publishers
        .iter()
        .take(k)
        .map(PublisherStats::content_count)
        .sum();
    let top_downloads: u64 = publishers.iter().take(k).map(|p| p.downloads).sum();
    (
        top_content as f64 / total_content as f64,
        if total_downloads == 0 {
            0.0
        } else {
            top_downloads as f64 / total_downloads as f64
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publishers::PublisherKey;

    fn stats(counts: &[usize]) -> Vec<PublisherStats> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| PublisherStats {
                key: PublisherKey::Username(format!("u{i}")),
                torrents: (0..c).collect(),
                downloads: (c * 10) as u64,
                ips: Default::default(),
            })
            .collect()
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_100() {
        let s = stats(&[50, 30, 10, 5, 3, 1, 1]);
        let cdf = contribution_cdf(&s);
        assert_eq!(cdf.len(), 7);
        for w in cdf.windows(2) {
            assert!(w[1].pct_publishers > w[0].pct_publishers);
            assert!(w[1].pct_content >= w[0].pct_content);
        }
        assert!((cdf.last().unwrap().pct_content - 100.0).abs() < 1e-9);
        assert!((cdf.last().unwrap().pct_publishers - 100.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_input_shows_skewed_curve() {
        let s = stats(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        // Top ~9% (1 of 11) holds 90% of content.
        let share = content_share_of_top(&s, 10.0);
        assert!(share > 89.0, "share {share}");
    }

    #[test]
    fn shares_of_top_k_headline() {
        let s = stats(&[60, 40, 1, 1, 1, 1]);
        let (content, downloads) = shares_of_top_k(&s, 2);
        assert!((content - 100.0 / 104.0).abs() < 1e-9);
        assert!((downloads - 1000.0 / 1040.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(contribution_cdf(&[]).is_empty());
        assert_eq!(shares_of_top_k(&[], 5), (0.0, 0.0));
        assert_eq!(content_share_of_top(&[], 3.0), 0.0);
    }
}
