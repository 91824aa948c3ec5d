//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics. `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean (`NaN` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile with at least ten samples beyond it, and its
/// value: `(percentile, value)`. The percentile is `100 × (1 − 10/n)`, so it
/// moves smoothly with the sample count; below 20 samples the median
/// stands in, labelled 50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    if n < 20.0 {
        return (50.0, median(samples));
    }
    let q = 1.0 - 10.0 / n;
    (100.0 * q, quantile(samples, q))
}

/// Samples per tail window, and the most windows a run is split into.
const TAIL_WINDOW: usize = 500;
const TAIL_WINDOWS_MAX: usize = 16;

/// The tail of samples kept in arrival order: the median, over up to 16
/// consecutive windows of at least 500 samples each (one window when there
/// are fewer), of each window's [`tail`]. Returns `(mean percentile,
/// value, windows)`. A single stall then moves one window, not the figure.
pub fn windowed_tail(samples: &[f64]) -> (f64, f64, usize) {
    let w = (samples.len() / TAIL_WINDOW).clamp(1, TAIL_WINDOWS_MAX);
    let size = samples.len() / w;
    let tails: Vec<(f64, f64)> = (0..w)
        .map(|i| {
            let end = if i + 1 == w {
                samples.len()
            } else {
                (i + 1) * size
            };
            tail(&samples[i * size..end])
        })
        .collect();
    let p = mean(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let v = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    (p, v, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.1), 1.4);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&v[..100]).0, 90.0);
        assert_eq!(tail(&v[..19]).0, 50.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut v = vec![1.0; 2000];
        for x in &mut v[..40] {
            *x = 100.0;
        }
        let (_, value, windows) = windowed_tail(&v);
        assert_eq!((value, windows), (1.0, 4));
    }
}
