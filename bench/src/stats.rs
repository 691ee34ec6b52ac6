//! Order statistics for latency samples and run-to-run spreads.

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Median of an ascending slice (mean of the two middle samples when the
/// count is even); `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of an unsorted slice.
pub fn median_of(values: &[f64]) -> Option<f64> {
    median(&sorted(values))
}

/// Nearest-rank percentile (`0 < pct <= 100`) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile that still has [`TAIL_SUPPORT`] samples beyond
/// it: `(percentile, value)`. With fewer than 11 samples there is none.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let rank = n - TAIL_SUPPORT; // 1-based; ten samples sit above it
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the driver's spread
/// rule, reproduced so `compare` and `selfcheck` judge by it.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median_of(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Cuts `values` (in arrival order) into `blocks` equal runs and returns
/// the median of the blocks' `pct`-th percentiles — for a steady sample
/// the plain percentile, but one that a disturbance confined to a
/// minority of the blocks (a hot-swap's warm-up burst, a
/// version-propagation stall) cannot move. With fewer than `min_block`
/// samples per block it is the plain percentile of everything.
pub fn blocked_percentile(
    values: &[f64],
    pct: f64,
    blocks: usize,
    min_block: usize,
) -> Option<f64> {
    let of = |v: &[f64]| percentile(&sorted(v), pct);
    let per = values.len() / blocks.max(1);
    if blocks < 2 || per < min_block.max(1) {
        return of(values);
    }
    let per_block: Vec<f64> = values.chunks_exact(per).filter_map(of).collect();
    median_of(&per_block)
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(&[]), None);
        assert_eq!(highest_supported(&ramp(1)), None);
        assert_eq!(highest_supported(&ramp(10)), None);
        // 11 samples: only the smallest has ten beyond it.
        let (pct, v) = highest_supported(&ramp(11)).unwrap();
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        // 1000 samples: p99 exactly.
        let (pct, v) = highest_supported(&ramp(1000)).unwrap();
        assert_eq!((pct, v), (99.0, 990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&ramp(3), 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_percentile_ignores_a_disturbed_minority_of_blocks() {
        // Eight blocks of 50; three of them a hundred times slower. The
        // plain median and tail are dragged up, the blocked ones are not.
        let mut v: Vec<f64> = Vec::new();
        for block in 0..8 {
            let scale = if block % 3 == 1 { 100.0 } else { 1.0 };
            v.extend((1..=50).map(|i| i as f64 * scale));
        }
        assert_eq!(blocked_percentile(&v, 50.0, 8, 20), Some(25.0));
        assert!(percentile(&sorted(&v), 50.0).unwrap() > 30.0);
        assert_eq!(blocked_percentile(&v, 90.0, 8, 20), Some(45.0));
        assert!(percentile(&sorted(&v), 90.0).unwrap() > 3000.0);
        // Too few samples per block: the plain percentile of everything.
        assert_eq!(
            blocked_percentile(&v, 90.0, 8, 100),
            percentile(&sorted(&v), 90.0)
        );
        assert_eq!(blocked_percentile(&[], 50.0, 8, 1), None);
    }

    #[test]
    fn geomean_of_ratios() {
        assert_eq!(geomean([]), None);
        assert!((geomean([2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }
}
