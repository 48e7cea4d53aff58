//! Order statistics over repeated samples.

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The tail the benchmark reports, as `(value, percentile)`: the highest
/// sample that still has ten samples above it. A run with fewer than 44
/// samples leaves a quarter of them above it instead (rounded down), so
/// the tail never falls below the upper quartile; with fewer than four
/// samples that is the maximum.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    let index = n - BEYOND.min(n / 4) - 1;
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&samples);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(tail(&[1.0, 2.0]), (2.0, 100.0));
        assert_eq!(tail(&[]), (0.0, 100.0));
    }

    #[test]
    fn tail_of_few_samples_leaves_a_quarter_beyond() {
        let samples: Vec<f64> = (1..=17).map(f64::from).collect();
        // Four of seventeen samples lie above the 13th.
        assert_eq!(tail(&samples).0, 13.0);
        let samples: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&samples).0, 7.0);
    }
}
