//! Order statistics and failure arithmetic for the benchmark's reports.

/// Percentiles tried for the tail, highest first, in tenths of a percent.
const TAIL_LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Nearest-rank percentile: the smallest sample with at least
/// `permille / 1000` of the samples at or below it.  `None` when empty.
pub fn percentile_permille(values: &[f64], permille: u64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), permille) - 1])
}

/// The highest percentile (in tenths of a percent) of `n` samples that has at
/// least [`MIN_SAMPLES_BEYOND`] samples strictly above its nearest rank, so a
/// tail figure is never read off a handful of points.  `None` when even the
/// median has fewer than that many samples beyond it.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| n >= MIN_SAMPLES_BEYOND && n - nearest_rank(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Share of attempted operations that failed; 0 when nothing was attempted.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed.min(attempted) as f64 / attempted as f64
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// One-based nearest rank `ceil(permille * n / 1000)`, clamped to `1..=n`,
/// in integer arithmetic so `p90` of 100 samples is exactly rank 90.
fn nearest_rank(n: usize, permille: u64) -> usize {
    let rank = (permille * n as u64).div_ceil(1000) as usize;
    rank.clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
