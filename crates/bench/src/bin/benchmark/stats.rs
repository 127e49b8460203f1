//! Order statistics the benchmark reports: exact percentiles over every
//! sample of a run, and the median / quartile summaries of per-second
//! slices and of sets of runs.

/// The exact `q`-quantile (nearest rank) of `sorted`, which must be sorted
/// ascending. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the `q`-quantile's rank — the
/// support of a tail percentile.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len.saturating_sub((q * len as f64).ceil() as usize)
}

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the rule the acceptance check of this
/// benchmark is stated in. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The median of `values`, or zero for none: what a metric reads when the
/// thing it measures did not happen in the run.
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// `(q3 - q1) / median`: the spread of a set of values as a share of their
/// median. `None` below two values or for a zero median.
pub fn spread_frac(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_known_vectors() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile::<u32>(&[], 0.5), None);
        assert_eq!(samples_beyond(100_000, 0.99), 1_000);
        assert_eq!(samples_beyond(10, 0.99), 0);
    }

    #[test]
    fn slice_median_resists_one_disturbed_second() {
        let slices = [100.0, 101.0, 99.0, 12.0, 100.0];
        assert_eq!(median(&slices), Some(100.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).expect("ten values");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).expect("two values");
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        let spread = spread_frac(&values).expect("spread");
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
