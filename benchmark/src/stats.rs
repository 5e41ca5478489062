//! Order statistics with the sample-count rule the benchmark reports by:
//! a percentile is only quoted when at least [`MIN_BEYOND`] samples lie
//! strictly beyond it, so a tail number is never one or two outliers.

/// Samples that must lie strictly beyond a percentile for it to be quoted.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample in place (times are never NaN).
fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Median of a sample; `None` when it is empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    sort(&mut s);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Position of percentile `p` in a sorted sample of `n`: `floor(p·n/100)`.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize / 100).min(n.saturating_sub(1))
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(1 + rank(n, p))
}

/// The highest whole percentile (50..=99) that `n` samples support.
pub fn highest_supported(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The rule: a percentile of `n` samples is quoted only with
/// [`MIN_BEYOND`] samples beyond it (p99 needs 1001, p95 needs 201).
fn supported(n: usize, p: u32) -> Result<(), String> {
    if beyond(n, p) >= MIN_BEYOND {
        return Ok(());
    }
    Err(format!(
        "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {}",
        beyond(n, p)
    ))
}

/// Percentile `p` of a sample, refused when it is not supported.
pub fn percentile(samples: &[f64], p: u32) -> Result<f64, String> {
    supported(samples.len(), p)?;
    let mut s = samples.to_vec();
    sort(&mut s);
    Ok(s[rank(s.len(), p)])
}

/// [`percentile`], or — when the sample is too small, as in `--smoke`
/// runs — the highest percentile it does support (its maximum when none).
pub fn percentile_or_supported(samples: &[f64], p: u32) -> Option<f64> {
    let p = match highest_supported(samples.len()) {
        Some(h) => h.min(p),
        None => return samples.iter().copied().reduce(f64::max),
    };
    percentile(samples, p).ok()
}

/// Mean of the samples strictly beyond percentile `p` — the slowest
/// `100 - p` percent — refused by the same rule as [`percentile`].
///
/// A pooled latency distribution is a comb of operation kinds, and a
/// percentile that falls between two teeth flips from one to the other
/// between identical runs; the mean beyond it moves smoothly.
pub fn tail_mean(samples: &[f64], p: u32) -> Result<f64, String> {
    supported(samples.len(), p)?;
    let mut s = samples.to_vec();
    sort(&mut s);
    let tail = &s[rank(s.len(), p) + 1..];
    Ok(tail.iter().sum::<f64>() / tail.len() as f64)
}

/// [`tail_mean`], or for a sample too small the tail beyond the highest
/// percentile it supports (its maximum when none).
pub fn tail_mean_or_supported(samples: &[f64], p: u32) -> Option<f64> {
    match highest_supported(samples.len()) {
        Some(h) => tail_mean(samples, h.min(p)).ok(),
        None => samples.iter().copied().reduce(f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_refuses_fewer_than_1001_samples() {
        assert!(percentile(&ramp(1000), 99).is_err());
        assert_eq!(percentile(&ramp(1001), 99), Ok(990.0));
        assert_eq!(beyond(1001, 99), 10);
    }

    #[test]
    fn p95_needs_201_samples() {
        assert!(percentile(&ramp(200), 95).is_err());
        assert_eq!(percentile(&ramp(201), 95), Ok(190.0));
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(21), Some(52));
        assert_eq!(highest_supported(108), Some(90));
        assert_eq!(highest_supported(324), Some(96));
        assert_eq!(highest_supported(1001), Some(99));
        for n in [21, 108, 324, 5000] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND);
            assert!(p == 99 || beyond(n, p + 1) < MIN_BEYOND);
        }
    }

    #[test]
    fn small_samples_fall_back_to_what_they_support() {
        assert_eq!(percentile_or_supported(&ramp(108), 95), Some(97.0));
        assert_eq!(percentile_or_supported(&ramp(5), 95), Some(4.0));
        assert_eq!(percentile_or_supported(&[], 95), None);
    }

    #[test]
    fn tail_mean_averages_the_samples_beyond_the_percentile() {
        // 201 samples: p95 is the 191st, ten lie beyond it: 191..=200.
        assert_eq!(tail_mean(&ramp(201), 95), Ok(195.5));
        assert!(tail_mean(&ramp(200), 95).is_err());
        // 108 samples support p90: the ten beyond are 98..=107.
        assert_eq!(tail_mean_or_supported(&ramp(108), 95), Some(102.5));
        assert_eq!(tail_mean_or_supported(&ramp(5), 95), Some(4.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
