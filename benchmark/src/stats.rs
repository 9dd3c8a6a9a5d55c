//! Order statistics over a handful of repeated measurements, plus the
//! timing loop the standalone per-layer costs use.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median (mean of the middle two for even counts). Panics on empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of what is left after the `trim` smallest and the `trim`
/// largest values are dropped; the plain mean when fewer than
/// `2 * trim + 1` values are given.
pub fn trimmed_mean(values: &[f64], trim: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 * trim { &v[trim..v.len() - trim] } else { &v[..] };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule);
/// needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The `q`-quantile (0..=1) of an unsorted sample, nearest rank.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    assert!(!values.is_empty());
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Mean microseconds per call of `f`, timed alone: one warm-up call,
/// then batches of calls until 4 ms have been measured. Results pass
/// through `black_box` so the calls are not optimised away.
pub fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut calls = 0u64;
    let mut spent = Duration::ZERO;
    let mut batch = 1u64;
    while spent < Duration::from_millis(4) {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        spent += t0.elapsed();
        calls += batch;
        batch = (batch * 2).min(4096);
    }
    spent.as_secs_f64() * 1e6 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        assert_eq!(trimmed_mean(&[9.0, 1.0, 3.0, 2.0, 100.0, 4.0, 0.0], 2), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 3.0], 2), 2.0);
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [7], 0.99), 7);
    }
}
