//! Order statistics: median, tail percentiles and quartiles.

/// Samples a percentile must leave beyond it before it is reported: a
/// tail read from fewer samples is one slow job, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile `q` in `(0, 1)`, refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (default "exclusive" method) gives
/// them; `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90: exactly ten beyond it.
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // p95 leaves five beyond: refused.
        assert_eq!(percentile(&xs, 0.95), None);
        // 99 samples leave nine beyond p90's rank 90.
        assert_eq!(percentile(&xs[..99], 0.90), None);
        assert_eq!(percentile(&xs[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
