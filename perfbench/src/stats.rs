//! Latency summaries: nearest-rank percentiles, the tail-percentile rule,
//! and per-class medians.

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0];

/// Fewest samples that must lie beyond a tail percentile's rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs binary rounding: 0.999 × 10 000 is not exactly
    // 9 990 in floating point, and must not round up to rank 9 991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond percentile `p`'s rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail rule: the highest ladder percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, never above `preferred` (the
/// workload's stated percentile, so runs of one workload compare the same
/// percentile). `None` when even the lowest rung leaves too few.
pub fn tail_percentile(n: usize, preferred: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= preferred)
        .find(|&p| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted values (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, 50.0))
}

/// One request sample: which class it belonged to and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: usize,
    pub ms: f64,
}

/// Where a percentile's rank landed: the class of the sample there; the
/// share of samples within ±2% of the rank (less near either end) that
/// belong to that class; and
/// the spread of those samples relative to the one at the rank. A rank
/// inside a class, or among overlapping classes, has a small spread; a
/// rank on a gap between two classes has a large one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankSite {
    pub class: usize,
    pub same_class_share: f64,
    pub window_spread: f64,
}

/// Locates percentile `p` of `samples` among the classes.
pub fn rank_site(samples: &[Sample], p: f64) -> RankSite {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let r = rank(sorted.len(), p) - 1;
    let class = sorted[r].class;
    // ±2% of the samples, kept symmetric and inside the sample so a tail
    // rank's window does not reach the single slowest request.
    let half = (sorted.len() / 50)
        .min(r)
        .min(sorted.len().saturating_sub(r + 2))
        .max(1);
    let window = &sorted[r.saturating_sub(half)..(r + half + 1).min(sorted.len())];
    let same = window.iter().filter(|s| s.class == class).count();
    let (lo, hi) = (window[0].ms, window[window.len() - 1].ms);
    RankSite {
        class,
        same_class_share: same as f64 / window.len() as f64,
        window_spread: (hi - lo) / sorted[r].ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.5), 5);
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        // The stated percentile caps the rule even when more would fit.
        assert_eq!(tail_percentile(10_000, 99.0), Some(99.0));
        // 400 samples: p97.5 leaves 10, p98 leaves 8.
        assert_eq!(tail_percentile(400, 99.0), Some(97.5));
        // Fewer than 100 samples: even p90 leaves fewer than 10.
        assert_eq!(tail_percentile(99, 99.0), None);
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
    }

    #[test]
    fn rank_site_tells_inside_from_boundary() {
        // Two classes of 100 samples each, well separated: p25 sits inside
        // class 0, p50 sits on the last sample of class 0 — the boundary.
        let mut s: Vec<Sample> = (0..100)
            .map(|i| Sample {
                class: 0,
                ms: 1.0 + i as f64 * 1e-3,
            })
            .collect();
        s.extend((0..100).map(|i| Sample {
            class: 1,
            ms: 5.0 + i as f64 * 1e-3,
        }));
        let inside = rank_site(&s, 25.0);
        assert_eq!((inside.class, inside.same_class_share), (0, 1.0));
        assert!(inside.window_spread < 0.01, "{inside:?}");
        let boundary = rank_site(&s, 50.0);
        assert_eq!(boundary.class, 0);
        assert!(boundary.same_class_share < 0.7, "{boundary:?}");
        assert!(boundary.window_spread > 3.0, "{boundary:?}");
        // One far outlier at the very top does not widen a p99 window.
        s.push(Sample {
            class: 1,
            ms: 500.0,
        });
        let tail = rank_site(&s, 99.0);
        assert_eq!(tail.class, 1);
        assert!(tail.window_spread < 0.01, "{tail:?}");
    }
}
