//! Order statistics the harness reports: medians, the
//! median-of-block-medians estimator, and the tail rule ("the highest
//! percentile that still has ten samples beyond it").

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Blocks a run's samples are cut into (consecutive, in arrival order).
pub const BLOCKS: usize = 5;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` for
/// an empty slice, which the result writer rejects.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The consecutive blocks `len` samples split into: at most [`BLOCKS`],
/// never an empty one (fewer samples give fewer blocks), every sample in
/// exactly one.
pub fn block_ranges(len: usize) -> Vec<std::ops::Range<usize>> {
    let blocks = BLOCKS.min(len);
    (0..blocks)
        .map(|b| b * len / blocks..(b + 1) * len / blocks)
        .collect()
}

/// Medians of the consecutive blocks of `values`.
pub fn block_medians(values: &[f64]) -> Vec<f64> {
    block_ranges(values.len())
        .into_iter()
        .map(|block| median(&values[block]))
        .collect()
}

/// The timing estimator every end-to-end latency uses: the median of
/// the block medians, so one disturbed stretch of a run moves at most one
/// of the values the final median is taken over.
pub fn median_of_block_medians(values: &[f64]) -> f64 {
    median(&block_medians(values))
}

/// The tail a sample can support: the value with exactly
/// [`TAIL_SAMPLES_BEYOND`] samples above it and the percentile it sits
/// at. With 100 samples that is the p90. A sample too small for that
/// value to lie above its median supports no tail, so its maximum is
/// returned at percentile 100.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n <= 2 * TAIL_SAMPLES_BEYOND {
        return (100.0, v[n - 1]);
    }
    let idx = n - 1 - TAIL_SAMPLES_BEYOND;
    (100.0 * (n - TAIL_SAMPLES_BEYOND) as f64 / n as f64, v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn one_disturbed_block_does_not_move_the_estimate() {
        // Five blocks of four samples; the third block is 10x slower.
        let mut v = vec![10.0; 20];
        for s in &mut v[8..12] {
            *s = 100.0;
        }
        assert_eq!(block_medians(&v), vec![10.0, 10.0, 100.0, 10.0, 10.0]);
        assert_eq!(median_of_block_medians(&v), 10.0);
    }

    #[test]
    fn blocks_cover_every_sample_once_for_uneven_counts() {
        let v: Vec<f64> = (0..7).map(f64::from).collect();
        // 7 samples -> blocks of 1,1,2,1,2 (floor boundaries).
        assert_eq!(block_medians(&v), vec![0.0, 1.0, 2.5, 4.0, 5.5]);
        assert_eq!(block_medians(&[1.0, 9.0]), vec![1.0, 9.0]);
        assert!(block_medians(&[]).is_empty());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = supported_tail(&v);
        assert_eq!((pct, value), (90.0, 90.0));
        assert_eq!(v.iter().filter(|&&s| s > value).count(), 10);

        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (75.0, 30.0));

        // Too few samples for a tail above the median: the maximum, p100.
        assert_eq!(supported_tail(&[5.0, 7.0, 6.0]), (100.0, 7.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (100.0, 20.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(supported_tail(&v).1, 11.0);
    }
}
