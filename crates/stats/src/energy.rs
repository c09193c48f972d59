//! Dynamic-energy model of the memory hierarchy (§5's energy results).
//!
//! The paper obtains per-access energies from CACTI-P (7 nm) and the
//! Micron DRAM power calculator; neither tool is redistributable, so the
//! constants below are representative 7 nm-class values with the right
//! *ratios* (DRAM access ≈ three orders of magnitude above an L1 read),
//! which is what the relative-improvement results depend on.
//!
//! Static (leakage) energy is not modelled: no figure computes it.

/// Per-access dynamic energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// L1D tag+data read.
    pub l1_read_pj: f64,
    /// L1D write/fill.
    pub l1_write_pj: f64,
    /// L2 read.
    pub l2_read_pj: f64,
    /// L2 write/fill.
    pub l2_write_pj: f64,
    /// LLC slice read.
    pub llc_read_pj: f64,
    /// LLC write/fill.
    pub llc_write_pj: f64,
    /// One 64-byte DRAM access with a row-buffer hit.
    pub dram_row_hit_pj: f64,
    /// One 64-byte DRAM access requiring activate+precharge.
    pub dram_row_miss_pj: f64,
    /// One flit-hop of NoC traversal.
    pub noc_flit_hop_pj: f64,
    /// One lookup of a CLIP structure (filter / predictor / CAM probe).
    pub clip_lookup_pj: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            l1_read_pj: 12.0,
            l1_write_pj: 14.0,
            l2_read_pj: 42.0,
            l2_write_pj: 48.0,
            llc_read_pj: 140.0,
            llc_write_pj: 160.0,
            dram_row_hit_pj: 8_000.0,
            dram_row_miss_pj: 14_000.0,
            noc_flit_hop_pj: 4.5,
            clip_lookup_pj: 0.8,
        }
    }
}

/// Event counts fed by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// L1D lookups.
    pub l1_reads: u64,
    /// L1D fills/writes.
    pub l1_writes: u64,
    /// L2 lookups.
    pub l2_reads: u64,
    /// L2 fills/writes.
    pub l2_writes: u64,
    /// LLC lookups.
    pub llc_reads: u64,
    /// LLC fills/writes.
    pub llc_writes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row misses/conflicts.
    pub dram_row_misses: u64,
    /// NoC flit-hops.
    pub noc_flit_hops: u64,
    /// CLIP structure lookups (candidates + CAM probes + training).
    pub clip_lookups: u64,
}

/// Itemised dynamic energy in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 total.
    pub l1_nj: f64,
    /// L2 total.
    pub l2_nj: f64,
    /// LLC total.
    pub llc_nj: f64,
    /// DRAM total.
    pub dram_nj: f64,
    /// NoC total.
    pub noc_nj: f64,
    /// CLIP structures total.
    pub clip_nj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.l1_nj + self.l2_nj + self.llc_nj + self.dram_nj + self.noc_nj + self.clip_nj
    }
}

/// The energy model: parameters + accumulation.
#[derive(Debug, Clone, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates the model with default 7 nm-class parameters.
    pub fn new() -> Self {
        EnergyModel {
            params: EnergyParams::default(),
        }
    }

    /// Computes the itemised energy for a set of counts.
    pub fn evaluate(&self, c: &EnergyCounts) -> EnergyBreakdown {
        let p = &self.params;
        EnergyBreakdown {
            l1_nj: (c.l1_reads as f64 * p.l1_read_pj + c.l1_writes as f64 * p.l1_write_pj) / 1000.0,
            l2_nj: (c.l2_reads as f64 * p.l2_read_pj + c.l2_writes as f64 * p.l2_write_pj) / 1000.0,
            llc_nj: (c.llc_reads as f64 * p.llc_read_pj + c.llc_writes as f64 * p.llc_write_pj)
                / 1000.0,
            dram_nj: (c.dram_row_hits as f64 * p.dram_row_hit_pj
                + c.dram_row_misses as f64 * p.dram_row_miss_pj)
                / 1000.0,
            noc_nj: c.noc_flit_hops as f64 * p.noc_flit_hop_pj / 1000.0,
            clip_nj: c.clip_lookups as f64 * p.clip_lookup_pj / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_when_traffic_is_comparable() {
        let m = EnergyModel::new();
        let b = m.evaluate(&EnergyCounts {
            l1_reads: 1000,
            l2_reads: 1000,
            llc_reads: 1000,
            dram_row_misses: 1000,
            ..EnergyCounts::default()
        });
        assert!(b.dram_nj > b.l1_nj + b.l2_nj + b.llc_nj);
    }

    #[test]
    fn halving_dram_traffic_halves_dram_energy() {
        let m = EnergyModel::new();
        let full = m.evaluate(&EnergyCounts {
            dram_row_misses: 2000,
            ..Default::default()
        });
        let half = m.evaluate(&EnergyCounts {
            dram_row_misses: 1000,
            ..Default::default()
        });
        assert!((full.dram_nj - 2.0 * half.dram_nj).abs() < 1e-9);
    }

    #[test]
    fn clip_overhead_is_tiny() {
        // The CLIP structures' energy must be negligible vs the DRAM
        // traffic it eliminates (the paper includes it and still reports
        // 18.21% savings).
        let m = EnergyModel::new();
        let b = m.evaluate(&EnergyCounts {
            clip_lookups: 1_000_000,
            dram_row_misses: 10_000,
            ..Default::default()
        });
        assert!(b.clip_nj < b.dram_nj / 10.0);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let m = EnergyModel::new();
        let b = m.evaluate(&EnergyCounts {
            l1_reads: 10,
            l1_writes: 10,
            l2_reads: 10,
            l2_writes: 10,
            llc_reads: 10,
            llc_writes: 10,
            dram_row_hits: 10,
            dram_row_misses: 10,
            noc_flit_hops: 10,
            clip_lookups: 10,
        });
        let sum = b.l1_nj + b.l2_nj + b.llc_nj + b.dram_nj + b.noc_nj + b.clip_nj;
        assert!((b.total_nj() - sum).abs() < 1e-12);
        assert!(b.total_nj() > 0.0);
    }

    #[test]
    fn row_hits_cost_less_than_misses() {
        let p = EnergyParams::default();
        assert!(p.dram_row_hit_pj < p.dram_row_miss_pj);
    }
}
