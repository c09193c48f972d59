//! Metric names, units and summary statistics.

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `higher` or `lower`: the direction a change to the simulator
    /// should move the value. Only end-to-end metrics carry a bound.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off.
pub const E2E: [MetricDef; 3] = [
    m("sim_cycles_per_s", "cycles/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, from the traced pass. `ns_per_*` and `est_share`
/// come from the layer drivers; the other values come from the
/// simulation's own `SimResult` and repeat exactly for a seed.
pub const LAYER: [MetricDef; 37] = [
    m("sim.wheel_speedup", "x", "higher"),
    m("sim.residual_share", "share", "lower"),
    m("sim.cycles", "count", "lower"),
    m("sim.instrs", "count", "higher"),
    m("noc.ns_per_flit_hop", "ns", "lower"),
    m("noc.est_share", "share", "lower"),
    m("noc.flit_hops", "count", "lower"),
    m("dram.ns_per_transfer", "ns", "lower"),
    m("dram.est_share", "share", "lower"),
    m("dram.transfers", "count", "lower"),
    m("dram.bw_util", "share", "higher"),
    m("dram.row_hit_ratio", "ratio", "higher"),
    m("dram.demand_latency_cycles", "cycles", "lower"),
    m("cache.ns_per_access", "ns", "lower"),
    m("cache.est_share", "share", "lower"),
    m("cache.l1_miss_ratio", "ratio", "lower"),
    m("cache.llc_miss_ratio", "ratio", "lower"),
    m("cpu.ns_per_instr", "ns", "lower"),
    m("cpu.est_share", "share", "lower"),
    m("cpu.ipc", "instrs/cycle", "higher"),
    m("trace.ns_per_instr", "ns", "lower"),
    m("trace.est_share", "share", "lower"),
    m("prefetch.ns_per_access", "ns", "lower"),
    m("prefetch.est_share", "share", "lower"),
    m("prefetch.candidates", "count", "lower"),
    m("prefetch.issued", "count", "lower"),
    m("prefetch.accuracy", "ratio", "higher"),
    m("core.ns_per_candidate", "ns", "lower"),
    m("core.est_share", "share", "lower"),
    m("core.candidates", "count", "lower"),
    m("core.drop_rate", "ratio", "lower"),
    m("bench.jobs", "count", "lower"),
    m("bench.cache_hits", "count", "higher"),
    m("bench.cache_stores", "count", "lower"),
    m("bench.ms_per_cached_job", "ms", "lower"),
    m("bench.thread_util", "share", "higher"),
    m("profile.overhead", "share", "lower"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    E2E.iter().chain(LAYER.iter()).find(|d| d.name == name)
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the same rule as Python's
    /// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
    /// numbers match the spread the benchmark's users compute.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                q1: x,
                median: x,
                q3: x,
                n,
            };
        }
        let q = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            q1: q(1),
            median: q(2),
            q3: q(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            f64::INFINITY
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}
