//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of n
//! sorted samples is the sample at 1-based rank ⌈p·n/100⌉. A timing is
//! reported as its median plus its *tail*: the highest of p99.9 / p99 /
//! p90 that still has at least [`MIN_BEYOND`] samples above its rank,
//! or the maximum when the sample is too small for any of them.

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 0-based index of the nearest-rank `p`-th percentile in `n`
/// sorted samples (`n > 0`, `0 < p <= 100`).
pub fn percentile_index(n: usize, p: f64) -> usize {
    // The epsilon keeps exact ranks exact: 99.9% of 10000 is 9990,
    // not the 9990.000000000002 the float product gives.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly after the percentile's rank: how many observations
/// the reported figure is "beyond".
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - percentile_index(n, p)
}

/// The nearest-rank percentile of unsorted samples; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[percentile_index(v.len(), p)])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The tail figure and its label: the highest of p99.9 / p99 / p90 with
/// at least [`MIN_BEYOND`] samples beyond it, else the maximum.
pub fn tail(samples: &[f64]) -> Option<(f64, &'static str)> {
    let n = samples.len();
    for (p, label) in [(99.9, "p99.9"), (99.0, "p99"), (90.0, "p90")] {
        if n > 0 && samples_beyond(n, p) >= MIN_BEYOND {
            return percentile(samples, p).map(|v| (v, label));
        }
    }
    percentile(samples, 100.0).map(|v| (v, "max"))
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A small deterministic generator (SplitMix64) for workload inputs, so
/// the same `--seed` always yields the same query stream.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_index() {
        // 100 samples: p50 is rank 50 (index 49), p99 rank 99, p100 the last.
        assert_eq!(percentile_index(100, 50.0), 49);
        assert_eq!(percentile_index(100, 99.0), 98);
        assert_eq!(percentile_index(100, 100.0), 99);
        // Ranks round up: p50 of 5 samples is rank 3.
        assert_eq!(percentile_index(5, 50.0), 2);
        // A single sample is every percentile.
        assert_eq!(percentile_index(1, 0.1), 0);
        assert_eq!(percentile_index(1, 99.9), 0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(samples_beyond(15, 100.0), 0);
        assert_eq!(samples_beyond(20, 50.0), 10);
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((990.0, "p99")));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((9990.0, "p99.9")));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((180.0, "p90")));
        // Too few samples for any percentile with ten beyond: the max.
        let v = [3.0, 1.0, 2.0];
        assert_eq!(tail(&v), Some((3.0, "max")));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_unsorted_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), Some(3.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert!((0..1000).all(|_| a.below(3) < 3));
    }
}
