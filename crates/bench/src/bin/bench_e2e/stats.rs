//! Sample series, the percentile rule, and the quartile spread the
//! driver judges steadiness by.

/// Percentiles a timing may be reported at, ascending.
const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples a percentile needs beyond it to be trusted.
const BEYOND: f64 = 10.0;

/// A series of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean, or 0 for an empty series.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile `p` in `[0, 1]`; 0 for an empty series.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = (p * self.values.len() as f64).ceil() as usize;
        self.values[rank.clamp(1, self.values.len()) - 1]
    }
}

/// The percentile rule: the highest percentile of the ladder with at
/// least ten samples beyond it, or `None` when even the median has fewer.
/// A fixed-name metric (`*_p90_*`) asked of a shorter series is still
/// computed, but its report carries a note saying so.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        // The epsilon keeps 1000 × (1 − 0.99) from rounding to 9.999….
        .find(|p| n as f64 * (1.0 - p) + 1e-9 >= BEYOND)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// `(median, IQR ÷ median)` — the spread the driver compares to a bound.
pub fn spread(values: &[f64]) -> (f64, f64) {
    let [q1, q2, q3] = quartiles(values);
    let share = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
    (q2, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(supported_percentile(9), None);
        assert_eq!(supported_percentile(20), Some(0.50));
        assert_eq!(supported_percentile(99), Some(0.75));
        assert_eq!(supported_percentile(100), Some(0.90));
        assert_eq!(supported_percentile(150), Some(0.90));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(1_000), Some(0.99));
        assert_eq!(supported_percentile(75_000), Some(0.999));
    }

    #[test]
    fn percentiles_are_nearest_rank_and_report_their_count() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(0.5), 0.0);
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(0.50), 50.0);
        assert_eq!(s.percentile(0.90), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(supported_percentile(s.len()), Some(0.90));
        assert_eq!(s.mean(), 50.5);
        // A six-sample series still answers p90 (its maximum) but the
        // rule says no percentile of it is supported.
        let mut few = Samples::new();
        for v in [3.0, 1.0, 2.0, 6.0, 5.0, 4.0] {
            few.push(v);
        }
        assert_eq!(few.percentile(0.90), 6.0);
        assert_eq!(supported_percentile(few.len()), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4)
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        let (median, share) = spread(&v);
        assert_eq!(median, 5.5);
        assert!((share - 1.0).abs() < 1e-12);
    }
}
