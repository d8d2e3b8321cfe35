//! Order statistics over samples.

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of latency samples (sorts in place); 0 for none.
pub fn percentile_ns(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default, exclusive method) gives them — the rule the acceptance
/// check of this benchmark is written in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The quartile of `values` on their better side: the first for a metric
/// that is better lower, the third for one that is better higher. A
/// neighbour on a shared host only ever takes memory bandwidth away, so
/// what it does to a repetition is one-sided, and when it is busy more than
/// half the repetitions of a run carry it: their median then sits on the
/// edge between disturbed and undisturbed and jumps from run to run, while
/// the better quartile stays with the undisturbed ones. One value is its
/// own quartile; none give 0.
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    match values {
        [] => 0.0,
        [only] => *only,
        _ => {
            let (q1, q3) = quartiles(values);
            match better {
                Better::Lower => q1,
                Better::Higher => q3,
            }
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (q3 - q1) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut samples, 0.50), 50);
        assert_eq!(percentile_ns(&mut samples, 0.99), 99);
        assert_eq!(percentile_ns(&mut [7], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn better_quartile_sides_with_the_undisturbed_values() {
        // Five repetitions, three of them slowed by a neighbour.
        let seconds = [0.22, 0.31, 0.21, 0.29, 0.34];
        assert_eq!(better_quartile(&seconds, Better::Lower), 0.215);
        let ops_per_s = [150.0, 110.0, 155.0, 120.0, 100.0];
        assert_eq!(better_quartile(&ops_per_s, Better::Higher), 152.5);
        assert_eq!(better_quartile(&[7.0], Better::Lower), 7.0);
        assert_eq!(better_quartile(&[], Better::Higher), 0.0);
    }
}
