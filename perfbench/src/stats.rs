//! Order statistics over samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that must lie above the tail value.
const TAIL_MARGIN: usize = 10;

/// The percentiles a tail is read at, highest first.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at `percentile` (nearest rank).
    pub value: f64,
    /// The highest percentile of [`LADDER`] with at least `TAIL_MARGIN`
    /// samples above it.
    pub percentile: f64,
}

/// The tail of `values`: the highest ladder percentile that still has
/// `TAIL_MARGIN` samples above it, or `None` if even the median has not.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MARGIN).then(|| Tail {
            value: v[rank - 1],
            percentile: p,
        })
    })
}
