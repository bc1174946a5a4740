//! Order statistics over timing samples.

/// How many samples a percentile must have strictly beyond it before
/// it is reported (a tail read from fewer points is mostly noise).
pub const MIN_TAIL: usize = 10;

/// The median, interpolated between the two middle samples when the
/// count is even (the convention of Python's `statistics.median`).
///
/// # Panics
///
/// On an empty sample set — every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-percentile (`0 < q < 1`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_TAIL`] samples lie beyond the
/// percentile's rank: with 100 samples p90 has exactly ten beyond it
/// and is reported, with 99 it is refused.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = samples.len();
    // Nearest rank: the smallest sample with at least q·n samples at
    // or below it. The epsilon keeps 0.9 × 100 from rounding to 91.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} needs at least {MIN_TAIL} samples beyond it; {n} samples leave {beyond}",
            (q * 100.0).round()
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(percentile(&hundred, 0.5), Ok(50.0));
        assert!(percentile(&hundred[..99], 0.9).is_err());
        assert!(percentile(&hundred[..19], 0.5).is_err());
        assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }
}
