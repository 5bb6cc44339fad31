//! Percentiles over samples.

/// The `pct`-th percentile of `samples` (linear interpolation between
/// closest ranks), or `None` when there are no samples.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::max)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples —
/// the tail rule asks for at least ten.
pub fn beyond(n: usize, pct: f64) -> f64 {
    n as f64 * (1.0 - pct / 100.0)
}
