//! Order statistics shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Smallest of `xs`: the best-of-N estimate of a time that cannot be
/// corrected for interference from outside the process. That interference
/// only ever adds time, so the fastest repetition is the least disturbed.
pub fn least(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`: the smallest sample
/// with at least `p` % of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()).clamp(1, v.len()) - 1])
}

/// Nearest rank of percentile `p` among `n` samples, `ceil(p/100 * n)`,
/// robust to the product landing a rounding error above a whole number.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Percentiles the benchmark reports as "tail", most extreme first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, with its value. A percentile `p` of `n` samples has
/// `n - ceil(p/100 * n)` samples above its rank; fewer than ten of them
/// would make the tail one or two unlucky requests. `None` when even the
/// median has fewer than ten samples beyond it (fewer than 20 samples).
pub fn reportable_tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let r = rank(p, n);
        (n >= r + 10 && r >= 1).then(|| (p, percentile(xs, p).expect("non-empty")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn least_is_the_minimum() {
        assert_eq!(least(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(least(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((99.0, 990.0)));
        // 10_000 samples: p99.9 leaves exactly 10.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((99.9, 9990.0)));
        // 999 samples: p99 leaves 9, so p90 is the tail.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((90.0, 900.0)));
        // 19 samples: even the median leaves only 9 beyond.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(reportable_tail(&xs), Some((50.0, 10.0)));
    }
}
