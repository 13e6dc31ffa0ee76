//! Order statistics for reported timings.

use std::time::Duration;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p < 100) by the nearest-rank rule, or
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond it. `p = 50`
/// is the median. Sorts `values` in place.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    Some(values[idx])
}

/// The median of a non-empty sample (no tail rule: medians of a few
/// repeated set-ups or passes are reported as such).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Runs a set-up at least 3 times and until 2 s have passed (at most
/// 15 times). `f` returns the seconds to report and what it built;
/// returns the median of the seconds and the last build.
pub fn repeated_setup<T>(mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    const MIN: usize = 3;
    const MAX: usize = 15;
    const TOTAL: Duration = Duration::from_secs(2);
    let start = crate::clock::now();
    let mut times = Vec::with_capacity(MAX);
    loop {
        let (secs, built) = f();
        times.push(secs);
        if times.len() >= MAX || (times.len() >= MIN && start.elapsed() >= TOTAL) {
            return (median(&times), built);
        }
    }
}

/// `values` holds whole rounds of the same `width` measurements, round
/// after round; returns each measurement's fastest round. A neighbour on
/// a shared host only ever adds time, so the fastest of rounds run far
/// apart is the measurement with the least interference in it.
pub fn best_of_rounds(values: &[f64], width: usize) -> Vec<f64> {
    assert!(width > 0 && !values.is_empty() && values.len().is_multiple_of(width));
    let mut best = values[..width].to_vec();
    for round in values.chunks(width).skip(1) {
        for (b, &v) in best.iter_mut().zip(round) {
            *b = b.min(v);
        }
    }
    best
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 over 1000 samples: rank 990, 10 samples beyond -> reported.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(990.0));
        // Over 999 samples only 9 lie beyond rank 990 -> withheld.
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), None);
        // p90 over 100 samples: 10 beyond -> reported; over 99: withheld.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 90.0), None);
    }

    #[test]
    fn median_of_small_samples() {
        let mut v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(11.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn each_measurement_keeps_its_fastest_round() {
        let rounds = [3.0, 1.0, 5.0, 2.0, 4.0, 6.0, 9.0, 0.5, 7.0];
        assert_eq!(best_of_rounds(&rounds, 3), vec![2.0, 0.5, 5.0]);
        assert_eq!(best_of_rounds(&rounds[..3], 3), vec![3.0, 1.0, 5.0]);
    }
}
