//! Sample summaries and failure accounting shared by every workload.

/// Percentile ladder a tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Median plus one named tail percentile of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (`0.9` for p90, ...).
    pub tail_q: f64,
    /// Its value.
    pub tail: f64,
    /// The highest percentile the sample count supports.
    pub supported_q: Option<f64>,
}

impl Summary {
    /// Summarise `samples` at the requested tail percentile.
    pub fn of(samples: &[f64], tail_q: f64) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_q,
            tail: percentile(&sorted, tail_q),
            supported_q: highest_supported(sorted.len()),
        }
    }

    /// Whether the requested tail has at least ten samples beyond it.
    pub fn tail_supported(&self) -> bool {
        samples_beyond(self.n, self.tail_q) >= 10
    }
}

/// Median of a sample set (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Attempted/failed operation counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors and failed output checks).
    pub failed: u64,
}

impl Tally {
    /// Record one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Operations that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        let s = Summary::of(&(0..120).map(f64::from).collect::<Vec<_>>(), 0.9);
        assert!(s.tail_supported());
        assert_eq!(s.supported_q, Some(0.9));
        assert!(!Summary::of(&[1.0; 50], 0.9).tail_supported());
    }

    #[test]
    fn tally_closes() {
        let mut t = Tally::default();
        for i in 0..37 {
            t.record(i % 5 != 0);
        }
        assert_eq!(t.attempted, 37);
        assert_eq!(t.failed + t.succeeded(), t.attempted);
        assert!((t.failed_frac() - 8.0 / 37.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
