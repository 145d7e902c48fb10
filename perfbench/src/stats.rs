//! Order statistics for the benchmark's own timings.
//!
//! A tail percentile is only reported when at least ten samples lie beyond
//! it; with fewer, the reported tail is the highest percentile of the
//! ladder that still has ten samples behind it.

/// Percentiles the tail rule may choose from, ascending.
const LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

/// Samples the tail rule wants beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest ladder percentile with at least ten samples beyond it, or
/// `None` when even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Percentile `q` of `xs`, capped by the tail rule. Returns the percentile
/// actually used and its value; `None` when the sample is too small for
/// any ladder percentile.
pub fn tail(xs: &[f64], q: f64) -> Option<(f64, f64)> {
    let q = q.min(highest_supported(xs.len())?);
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((q, percentile(&sorted, q)))
}

/// Half-width of the smoothing window of [`smoothed_tail`]: the standard
/// deviation, in ranks, of the sample `q`-quantile of `n` draws.
fn half_width(n: usize, q: f64) -> usize {
    (n as f64 * q * (1.0 - q)).sqrt().ceil() as usize
}

/// Like [`tail`], but the value is the mean of the order statistics
/// within [`half_width`] ranks of the nearest rank, which stays below the
/// ten samples the tail rule keeps beyond it. A percentile that falls
/// where the sorted values climb steeply then moves little when noise
/// reorders the samples around it.
pub fn smoothed_tail(xs: &[f64], q: f64) -> Option<(f64, f64)> {
    let (q, _) = tail(xs, q)?;
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let r = rank(n, q) - 1;
    // The tail rule left at least MIN_BEYOND samples above rank r.
    let h = half_width(n, q).min(r).min(n - 1 - r - MIN_BEYOND);
    let window = &sorted[r - h..=r + h];
    Some((q, window.iter().sum::<f64>() / window.len() as f64))
}

/// Mean of the middle half of `xs` (0 for an empty slice). Unlike the
/// median it does not jump when the samples fall into two modes and the
/// split between them shifts a little.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Median of repeated measurements (mean of the two middle values for an
/// even count; 0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [20, 100, 200, 1000, 10_000, 123_457] {
            let q = highest_supported(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn tail_caps_the_requested_percentile() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some((0.95, 190.0)));
        assert_eq!(tail(&xs, 0.5), Some((0.5, 100.0)));
        assert_eq!(tail(&xs[..10], 0.5), None);
    }

    #[test]
    fn smoothed_tail_averages_the_ranks_around_the_percentile() {
        // 1..=400: p95 is rank 380; the half-width is ceil(sqrt(19)) = 5,
        // so the window is ranks 375..=385, whose mean is 380.
        let xs: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(smoothed_tail(&xs, 0.95), Some((0.95, 380.0)));
        // A step at the percentile: the window straddles it.
        let step: Vec<f64> = (1..=400).map(|i| if i <= 380 { 1.0 } else { 100.0 }).collect();
        let (_, v) = smoothed_tail(&step, 0.95).unwrap();
        assert!(v > 1.0 && v < 100.0);
        // Thirty samples support only the median (rank 15); the window is
        // ranks 12..=18, clear of the ten largest.
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(smoothed_tail(&few, 0.95), Some((0.5, 15.0)));
        assert_eq!(smoothed_tail(&few[..10], 0.5), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
