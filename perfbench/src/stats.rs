//! Sample summaries: nearest-rank percentiles, the tail rule, and the
//! process's peak resident memory.

/// Nearest-rank value at 1-based `rank` of an ascending slice.
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    at_rank(&sorted, sorted.len().div_ceil(2))
}

/// The tail latency the benchmark reports: the highest percentile with
/// at least ten samples beyond it, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile (nearest rank) the value sits at.
    pub percentile: f64,
    /// The latency there.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n.saturating_sub(10).max(n.div_ceil(2));
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: at_rank(&sorted, rank),
        beyond: n - rank,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_and_never_drops_below_the_median() {
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert!((t.percentile - 99.0).abs() < 1e-12);

        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!((t.value, t.beyond), (4.0, 3));
        assert_eq!(median(&few), 4.0);
    }
}
