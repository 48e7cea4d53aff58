//! Empirical CDFs: the engine behind Figures 3, 5, 6, 7 and 9.

/// An empirical CDF over f64 samples.
///
/// ```
/// use kt_analysis::Ecdf;
///
/// let delays = Ecdf::new(vec![2.0, 5.0, 9.0, 12.0]);
/// assert_eq!(delays.median(), Some(5.0));
/// assert_eq!(delays.eval(9.0), 0.75);
/// assert_eq!(delays.max(), Some(12.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (order irrelevant; NaNs rejected).
    pub fn new(mut samples: Vec<f64>) -> Ecdf {
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x): fraction of samples ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The q-quantile (0 ≤ q ≤ 1), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }

    /// Median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evenly-spaced plot points `(x, F(x))` for rendering the curve.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let (lo, hi) = (self.sorted[0], self.sorted[self.sorted.len() - 1]);
        (0..=points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / points as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(e.median(), Some(3.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(5.0));
        assert_eq!(e.quantile(0.2), Some(1.0));
        assert_eq!(e.quantile(0.21), Some(2.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(5.0));
    }

    #[test]
    fn empty_cdf() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.median(), None);
        assert!(e.curve(10).is_empty());
    }

    #[test]
    fn curve_is_monotone() {
        let e = Ecdf::new((0..100).map(|i| (i * i % 37) as f64).collect());
        let curve = e.curve(50);
        assert_eq!(curve.len(), 51);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be nondecreasing");
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}
