//! Order statistics over measured samples.

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (i, frac) = (at.floor() as usize, at.fract());
    v[i] + (v[(i + 1).min(last)] - v[i]) * frac
}

/// Quantile `q` smoothed over a band of ranks: the mean of the sorted
/// samples ranked within `q ± half_width`. A plain order statistic flips
/// between clusters when the quantile falls in a gap of a multi-modal
/// sample (slate sizes {1, 4, 16, 64} put the median of a request mix
/// exactly between two sizes); the band average moves smoothly instead.
/// 0 when empty.
pub fn band_quantile(xs: &[f64], q: f64, half_width: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let lo = (((q - half_width) * n as f64).floor().max(0.0) as usize).min(n - 1);
    let hi = (((q + half_width) * n as f64).ceil() as usize).clamp(lo + 1, n);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Nanosecond samples as `f64` in the given unit (1e6 for ms, 1e3 for µs).
pub fn scaled(ns: &[u64], per_unit: f64) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / per_unit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_band_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.25), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 40..60 of 1..=100: mean 50.5.
        assert_eq!(band_quantile(&xs, 0.5, 0.1), 50.5);
        assert_eq!(band_quantile(&[7.0], 0.99, 0.005), 7.0);
        // Half small, half large: the band straddles the gap evenly.
        let gap: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(band_quantile(&gap, 0.5, 0.1), 2.0);
    }
}
