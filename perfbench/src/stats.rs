//! Order statistics and the simulated-output digest.

use dg_obs::RunReport;

/// Median of `values` (mean of the two middle samples for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100] of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (u64::from(p) * v.len() as u64).div_ceil(100).max(1) as usize;
    v[rank - 1]
}

/// A tail percentile chosen by sample count rather than fixed in advance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 88 for n = 84).
    pub percentile: u32,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// The highest whole percentile that still has at least `beyond` samples
/// above it, so a tail figure always rests on `beyond` observations.
/// `None` when there are too few samples for any such percentile.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    // The sample at 1-based rank `n - beyond` is the last with `beyond`
    // samples after it; the largest p whose nearest rank does not pass it
    // is floor(100 * rank / n).
    let rank = n - beyond;
    let p = (100 * rank / n) as u32;
    if p == 0 {
        return None;
    }
    Some(Tail {
        percentile: p,
        value: percentile(values, p),
        n,
    })
}

/// Harrell–Davis estimate of quantile `q` (in (0, 1)) of `values`: the
/// mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
/// distribution, which centres the weight on the nearest rank and spreads
/// it over a few ranks either side. A single order statistic jumps when
/// samples near it change order across a gap between clusters of like
/// jobs; this estimate moves by a fraction of the gap.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn harrell_davis(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    // Rank i's weight is the Beta mass on [i/n, (i+1)/n], integrated by
    // the midpoint rule in log space; normalising by the total leaves out
    // the Beta function itself.
    const STEPS: usize = 64;
    let log_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let mode = ((a - 1.0) / (a + b - 2.0)).clamp(1e-9, 1.0 - 1e-9);
    let peak = log_density(mode);
    let weights: Vec<f64> = (0..v.len())
        .map(|i| {
            (0..STEPS)
                .map(|k| {
                    let x = (i as f64 + (k as f64 + 0.5) / STEPS as f64) / n;
                    (log_density(x) - peak).exp()
                })
                .sum()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Folds `next` into a running digest (order-sensitive).
pub fn fold(acc: u64, next: u64) -> u64 {
    fnv64(&[acc.to_le_bytes(), next.to_le_bytes()].concat())
}

/// Digest of a run's simulated outcome: FNV-1a of the report's canonical
/// JSON with its `engine` block cleared. The engine block says how the
/// event engine covered simulated time (ticks, warps, polls), which is a
/// property of the host-side engine rather than of the simulated outcome;
/// the repository's cross-engine and cross-shard identity tests clear it
/// the same way.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut r = report.clone();
    r.engine = Default::default();
    fnv64(r.to_json().as_bytes())
}
