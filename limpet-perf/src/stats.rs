//! Sample statistics: medians, quantiles, and the rule for which tail
//! percentile a sample count can support.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`. NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The percentiles a report may quote, highest first, in permille (so
/// "samples beyond" is exact integer arithmetic).
const TAILS_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAILS_PERMILLE`] that leaves at least ten of `n`
/// samples beyond it — below that a "tail" is one or two outliers, not a
/// distribution. `None` when even p75 has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS_PERMILLE
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 50.0);
        assert_eq!(quantile(&xs, 0.25), 20.0);
        assert_eq!(quantile(&xs, 0.9), 46.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // The issue's sizing: 320 jobs leave 16 beyond p95.
        assert_eq!(tail_percentile(320), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_is_the_harness_one_and_scale_free() {
        let g = limpet_harness::geomean([2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        let scaled = limpet_harness::geomean([20.0, 80.0]);
        assert!((scaled / g - 10.0).abs() < 1e-12);
    }
}
