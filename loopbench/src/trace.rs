//! Span arithmetic: quantiles of recorded samples and per-layer self time.

/// Nearest-rank `q`-quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v` (sorted in place); 0 when empty.
pub fn quantile_f64(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Self times of nested spans. `inclusive` lists each layer's span
/// duration from the innermost layer out; every span contains the one
/// before it, so a layer's self time is its duration minus its child's.
pub fn self_times(inclusive: &[f64]) -> Vec<f64> {
    let mut child = 0.0;
    inclusive
        .iter()
        .map(|&d| {
            let own = d - child;
            child = d;
            own
        })
        .collect()
}

/// Signed gap between the sum of `parts` and `whole`, in percent of `whole`.
pub fn gap_pct(parts: &[f64], whole: f64) -> f64 {
    (parts.iter().sum::<f64>() - whole) / whole * 100.0
}

/// `a / b`, or 0 when `b` is 0 (a layer that saw no traffic).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Marks the calmest `1/share` of windows, ranked by `keys` (lowest
/// first), plus every window tied with the last one taken.
pub fn calmest<K: Ord + Copy>(keys: &[K], share: usize) -> Vec<bool> {
    let mut ranked = keys.to_vec();
    ranked.sort_unstable();
    let Some(&cut) = ranked.get((keys.len().max(1) - 1) / share) else { return Vec::new() };
    keys.iter().map(|k| *k <= cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_outer_span() {
        // core 30 ⊂ map 38 ⊂ blob 120 ⊂ hot 95 (the front cache saves
        // time, so its self time is negative) ⊂ store 101.
        let inc = [30.0, 38.0, 120.0, 95.0, 101.0];
        let own = self_times(&inc);
        assert_eq!(own, vec![30.0, 8.0, 82.0, -25.0, 6.0]);
        assert!((own.iter().sum::<f64>() - 101.0).abs() < 1e-9);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn calmest_takes_the_lowest_share_and_its_ties() {
        assert_eq!(calmest(&[5, 0, 9, 2, 7, 1], 3), [false, true, false, false, false, true]);
        assert_eq!(calmest(&[0, 0, 0, 3], 3), [true, true, true, false]);
        assert_eq!(calmest(&[(0, 9), (0, 2), (4, 1)], 3), [false, true, false]);
        assert_eq!(calmest(&[7], 3), [true]);
        assert!(calmest::<u64>(&[], 3).is_empty());
    }

    #[test]
    fn gap_is_signed_and_relative() {
        assert!((gap_pct(&[30.0, 5.0, 0.5], 40.0) - (-11.25)).abs() < 1e-9);
        assert!((gap_pct(&[44.0], 40.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [], 0.5), 0);
        let mut slices: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(quantile_f64(&mut slices, 0.25), 4.0);
        assert_eq!(quantile_f64(&mut slices, 0.75), 12.0);
        assert_eq!(quantile_f64(&mut [], 0.25), 0.0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
