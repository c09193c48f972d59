//! Performance metrics: weighted speedup and latency aggregation.

/// Weighted speedup (Snavely & Tullsen, ASPLOS '00):
/// `Σ_i IPC_together_i / IPC_alone_i`.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn weighted_speedup(ipc_together: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(
        ipc_together.len(),
        ipc_alone.len(),
        "per-core IPC vectors must align"
    );
    ipc_together
        .iter()
        .zip(ipc_alone)
        .map(|(&t, &a)| if a > 0.0 { t / a } else { 0.0 })
        .sum()
}

/// The paper's headline metric: weighted speedup of a scheme normalised to
/// the no-prefetching system with the same resources. Using the
/// no-prefetching run as the `alone` baseline, this reduces to the mean of
/// per-core IPC ratios.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
pub fn normalized_weighted_speedup(ipc_scheme: &[f64], ipc_nopf: &[f64]) -> f64 {
    assert!(!ipc_scheme.is_empty(), "need at least one core");
    weighted_speedup(ipc_scheme, ipc_nopf) / ipc_scheme.len() as f64
}

/// Geometric mean of positive values (zero-length input → 1.0).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Five-number-ish summary of a sample of values (used when aggregating
/// per-mix results: means hide the outliers figures 10-16 care about).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Geometric mean (values clamped to a tiny positive floor).
    pub geomean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl SampleSummary {
    /// Summarises a sample. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<SampleSummary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Some(SampleSummary {
            count: xs.len(),
            mean,
            geomean: geomean(xs),
            stddev: var.sqrt(),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

impl std::fmt::Display for SampleSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} geomean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count, self.mean, self.geomean, self.stddev, self.min, self.max
        )
    }
}

/// Incremental latency average.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStat {
    /// Events observed.
    pub count: u64,
    /// Sum of latencies.
    pub total: u64,
}

impl LatencyStat {
    /// Records one latency observation.
    #[inline]
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.total += latency;
    }

    /// Average latency (0.0 when empty).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Merges another stat into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.count += other.count;
        self.total += other.total;
    }

    /// The observations added since `earlier`, a copy of this stat taken
    /// before.
    pub fn since(&self, earlier: &LatencyStat) -> LatencyStat {
        LatencyStat {
            count: self.count - earlier.count,
            total: self.total - earlier.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_identity() {
        let ipc = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&ipc, &ipc) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_ws_is_mean_ratio() {
        let scheme = [2.0, 1.0];
        let base = [1.0, 1.0];
        assert!((normalized_weighted_speedup(&scheme, &base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn normalized_ws_below_one_means_slowdown() {
        let scheme = [0.8, 0.8];
        let base = [1.0, 1.0];
        assert!(normalized_weighted_speedup(&scheme, &base) < 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = weighted_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_baseline_contributes_zero() {
        assert_eq!(weighted_speedup(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn sample_summary_basics() {
        let s = SampleSummary::of(&[1.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 3.0).abs() < 1e-12);
        assert!(s.stddev > 0.0);
        assert!(SampleSummary::of(&[]).is_none());
    }

    #[test]
    fn sample_summary_display() {
        let s = SampleSummary::of(&[2.0, 2.0]).expect("non-empty");
        assert!(s.to_string().contains("mean=2.000"));
        assert!((s.stddev - 0.0).abs() < 1e-12);
    }

    #[test]
    fn latency_stat_accumulates_and_merges() {
        let mut a = LatencyStat::default();
        a.record(10);
        a.record(30);
        assert!((a.avg() - 20.0).abs() < 1e-12);
        let mut b = LatencyStat::default();
        b.record(60);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert!((a.avg() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_latency_avg_is_zero() {
        assert_eq!(LatencyStat::default().avg(), 0.0);
    }
}
