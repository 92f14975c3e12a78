//! Order statistics for timing samples.

/// The `q` quantile of `samples` (linear interpolation between closest
/// ranks, as `numpy.percentile`'s default). `0.0` for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A timing reported as its median plus the highest percentile that has
/// at least ten samples beyond it (`None` when there are too few samples
/// for any percentile above the median to qualify).
#[derive(Debug, Clone)]
pub struct Summary {
    pub median: f64,
    pub tail: Option<(f64, f64)>,
    pub samples: Vec<f64>,
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

impl Summary {
    #[must_use]
    pub fn of(samples: Vec<f64>) -> Self {
        let n = samples.len() as f64;
        let tail = TAILS
            .iter()
            .find(|&&q| n * (1.0 - q) + 1e-9 >= 10.0)
            .map(|&q| (q * 100.0, quantile(&samples, q)));
        Summary {
            median: median(&samples),
            tail,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(Summary::of(vec![1.0; 19]).tail.is_none());
        assert_eq!(Summary::of(vec![1.0; 40]).tail.unwrap().0, 75.0);
        assert_eq!(Summary::of(vec![1.0; 100]).tail.unwrap().0, 90.0);
        assert_eq!(Summary::of(vec![1.0; 1000]).tail.unwrap().0, 99.0);
    }
}
