//! Order statistics over timing samples.
//!
//! Quantiles come only from the benchmark's own timings: the server's
//! `at-obs` histograms are octave-coarse, so they are read for their exact
//! `sum/count` means and nothing else.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it (`q` in 0..=1).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest percentile a sample set supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile, 0..100.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
}

/// The highest percentile with at least `min_beyond` samples strictly
/// beyond it in rank: the sample at rank `n - min_beyond` of `n`. `None`
/// when the set is too small to support any.
pub fn tail(sorted: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = n - min_beyond;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_q() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.51), 6.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.99), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).expect("1000 samples support a tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples lie beyond the reported one.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let t = tail(&v, 10).expect("25 samples");
        assert_eq!(t.value, 15.0);
        assert_eq!(t.percentile, 60.0);
    }

    #[test]
    fn tail_needs_more_than_min_beyond_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        assert!(tail(&v[..], 9).is_some());
        assert_eq!(tail(&[], 10), None);
    }
}
