//! Order statistics for timings.

/// Samples a tail percentile needs beyond its rank before it is reported.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `samples`: the value at rank
/// `ceil(p/100 · n)` of the sorted samples.
///
/// A tail (`p > 50`) is refused, returning `None`, unless at least
/// [`MIN_TAIL`] samples lie beyond its rank. Empty input gives `None`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if p > 50.0 && n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nearest-rank median; `None` for empty input.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Quartiles as Python's `statistics.quantiles(samples, n=4)` gives them
/// (the default "exclusive" method); `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        // After clamping, delta may fall outside 0..4: Python extrapolates.
        let delta = k as f64 - 4.0 * j as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        // rank ceil(0.75 * 40) = 30 leaves exactly 10 beyond.
        assert_eq!(percentile(&forty, 75.0), Some(30.0));
        // 39 samples: rank 30 leaves 9 beyond.
        assert_eq!(percentile(&forty[..39], 75.0), None);
        assert_eq!(percentile(&forty, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
