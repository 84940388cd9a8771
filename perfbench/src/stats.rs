//! Order statistics used to summarise repeated measurements.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `xs` (`q` in `[0, 1]`): the smallest
/// value with at least a `q` share of the values at or below it. `NaN`
/// for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external check computes.
/// A single value is its own quartiles; an empty slice gives NaNs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// A tail latency: the highest whole percentile (at most the requested
/// one) that still has at least [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples a reported tail percentile must leave above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest whole percentile `p <= target` whose nearest-rank sample
/// leaves at least [`TAIL_MIN_BEYOND`] samples beyond it. With too few
/// samples for any percentile down to the median, the maximum is
/// reported as percentile 100 with nothing beyond it. `None` for an
/// empty slice.
pub fn tail(xs: &[f64], target: u32) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for p in (50..=target).rev() {
        // Nearest rank: the smallest k with k/n >= p/100 (1-based).
        let k = (u64::from(p) * n as u64).div_ceil(100).max(1) as usize;
        if n - k >= TAIL_MIN_BEYOND {
            return Some(Tail {
                percentile: f64::from(p),
                value: v[k - 1],
                samples: n,
                beyond: n - k,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: v[n - 1],
        samples: n,
        beyond: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.1), 2.0);
        assert_eq!(quantile(&xs, 0.9), 18.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
        assert_eq!(quantile(&[4.0], 0.1), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, so it is allowed.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 rank is 990 (9 beyond), p98 rank 980 (19 beyond).
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (98.0, 980.0, 19));
        // 100 samples: the highest percentile with >= 10 beyond is p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_maximum() {
        let t = tail(&[3.0, 9.0, 1.0], 99).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 9.0, 0));
        assert!(tail(&[], 99).is_none());
    }
}
