//! Order statistics over raw samples.
//!
//! Latencies are kept as individual samples, never pre-bucketed, so a
//! percentile is an exact order statistic and its sample count is known.

/// A latency distribution reduced to what the report publishes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples the percentiles were taken over.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// How many samples lie strictly above the reported p99. Fewer than
    /// ten means the p99 is not supported by the sample.
    pub beyond_p99: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `NaN` when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts the samples and summarizes them. Non-finite samples are a
/// caller bug (a missed request is represented by a finite penalty).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
    let p99 = percentile_sorted(&sorted, 0.99);
    Summary {
        count: sorted.len(),
        p50: percentile_sorted(&sorted, 0.50),
        p99,
        beyond_p99: sorted.iter().filter(|&&v| v > p99).count(),
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Indices, ascending, of the quieter half of a run's windows: the
/// `ceil(n / 2)` with the least disturbance (hypervisor steal), a `NaN`
/// ranking last and ties keeping window order. On a shared host the steal
/// drifts from minute to minute and inflates every wall-clock figure with
/// it; the quiet half is what the program does when the host lets it run.
pub fn quiet_half(disturbance: &[f64]) -> Vec<usize> {
    let rank = |i: usize| if disturbance[i].is_nan() { f64::INFINITY } else { disturbance[i] };
    let mut idx: Vec<usize> = (0..disturbance.len()).collect();
    idx.sort_by(|&a, &b| rank(a).total_cmp(&rank(b)));
    idx.truncate(idx.len().div_ceil(2));
    idx.sort_unstable();
    idx
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_counts_samples_and_tail_support() {
        // Unsorted input with a heavy tail: 990 fast, 10 slow samples.
        let mut v: Vec<f64> = (0..990).map(|i| 10.0 + (i % 7) as f64).collect();
        v.extend((0..10).map(|i| 100.0 + i as f64));
        v.reverse();
        let s = summarize(&v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 13.0);
        // Rank 990 is the last fast sample; the ten slow ones lie beyond.
        assert_eq!(s.p99, 16.0);
        assert_eq!(s.beyond_p99, 10);

        let small = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((small.count, small.p50, small.p99, small.beyond_p99), (3, 2.0, 3.0, 0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[0.5, 0.3, 0.4]), 0.4);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn quiet_half_keeps_the_least_disturbed_windows() {
        assert_eq!(quiet_half(&[0.30, 0.01, 0.02, 0.20, 0.00]), vec![1, 2, 4]);
        // An unknown disturbance ranks last; ties keep window order.
        assert_eq!(quiet_half(&[f64::NAN, 0.1, 0.1, 0.9]), vec![1, 2]);
        assert_eq!(quiet_half(&[0.5]), vec![0]);
        assert!(quiet_half(&[]).is_empty());
    }
}
