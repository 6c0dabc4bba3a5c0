//! Sample summaries: medians and the supported tail percentile.
//!
//! A tail latency is reported at the highest percentile that still has at
//! least [`MIN_BEYOND`] samples beyond it (capped at the metric's nominal
//! percentile), so a small sample never reports a maximum as a "p99".

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: the value and the sample support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported percentile.
    pub value: f64,
    /// The percentile actually reported (≤ the nominal one).
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `nominal` percentile, or the highest lower
/// percentile with at least [`MIN_BEYOND`] samples beyond it. With fewer
/// than `MIN_BEYOND + 1` samples no percentile has that support; the
/// maximum is returned with its (short) support stated.
pub fn tail(samples: &[f64], nominal: f64) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest rank: the smallest index k with (k + 1) / n >= p / 100.
    let wanted = ((nominal / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = if n > MIN_BEYOND { wanted.min(n - MIN_BEYOND - 1) } else { n - 1 };
    let pct = if k == wanted { nominal } else { (k + 1) as f64 * 100.0 / n as f64 };
    Tail { value: s[k], pct, n, beyond: n - 1 - k }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_nominal_percentile_with_enough_support() {
        // 2000 samples: p99 is rank 1980 with 20 samples beyond it.
        let t = tail(&ramp(2000), 99.0);
        assert_eq!((t.value, t.pct, t.n, t.beyond), (1980.0, 99.0, 2000, 20));
        // Exactly 10 beyond is still enough.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!((t.value, t.pct, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_falls_back_to_highest_supported_percentile() {
        // 500 samples cannot support p99 (5 beyond): fall back to rank
        // 490, the highest with 10 beyond, and say so.
        let t = tail(&ramp(500), 99.0);
        assert_eq!((t.value, t.beyond, t.n), (490.0, 10, 500));
        assert!((t.pct - 98.0).abs() < 1e-9, "{}", t.pct);
        // p95 of 120 samples: nominal rank 114 leaves 6 beyond.
        let t = tail(&ramp(120), 95.0);
        assert_eq!((t.value, t.beyond), (110.0, 10));
    }

    #[test]
    fn tail_of_tiny_sample_is_its_maximum_with_short_support() {
        let t = tail(&ramp(5), 99.0);
        assert_eq!((t.value, t.beyond, t.n), (5.0, 0, 5));
        let t = tail(&[7.0], 99.0);
        assert_eq!((t.value, t.beyond), (7.0, 0));
    }
}
