//! Order statistics, the tail-percentile rule and process memory.

/// Median of `values` (the mean of the two middle values for an even
/// count); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// splitmix64: the small seeded generator behind every input the seed
/// decides.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of the tail sample among `n` sorted
/// samples, never above p99: p99 when there are enough samples, otherwise the highest rank
/// that still leaves [`TAIL_MIN_BEYOND`] samples beyond it. `None` when
/// `n` is too small for any tail.
pub fn tail_index(n: usize) -> Option<usize> {
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    // Nearest rank of p99 is ceil(0.99 n); computed in integers.
    let p99_rank = (n * 99).div_ceil(100);
    Some((p99_rank - 1).min(n - 1 - TAIL_MIN_BEYOND))
}

/// The percentile the tail sample of `n` samples stands for.
pub fn tail_percentile(n: usize) -> Option<f64> {
    tail_index(n).map(|k| 100.0 * (k + 1) as f64 / n as f64)
}

/// Median and tail of a latency sample, both actual samples (nearest
/// rank). The tail falls back to the maximum when there are too few
/// samples for the rule, which the caller reports as such.
pub fn median_and_tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let tail = tail_index(n).map_or(sorted[n - 1], |k| sorted[k]);
    (median(&sorted), tail)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in 0..=TAIL_MIN_BEYOND {
            assert_eq!(tail_index(n), None, "{n} samples cannot have a tail");
        }
        for n in TAIL_MIN_BEYOND + 1..5000 {
            let k = tail_index(n).unwrap();
            let beyond = n - 1 - k;
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: only {beyond} samples beyond rank {k}");
            assert!(k < (n * 99).div_ceil(100), "n={n}: rank {k} lies above the p99 sample");
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_the_sample_allows() {
        // Too few samples for p99: exactly ten beyond.
        assert_eq!(tail_index(11), Some(0));
        assert_eq!(tail_index(450), Some(439));
        // From 1000 samples on, p99 itself has at least ten beyond it.
        assert_eq!(tail_index(1000), Some(989));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_index(25_160), Some(24_908));
    }

    #[test]
    fn median_and_tail_pick_actual_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, tail) = median_and_tail(&samples);
        assert_eq!(p50, 50.5);
        assert_eq!(tail, 90.0, "100 samples: rank 90 leaves ten beyond");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
