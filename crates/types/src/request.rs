//! Transaction ids, service levels and scheduling priorities shared by
//! the simulator and its fabric and memory models.

use std::fmt;

/// Unique identifier of an in-flight memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The level of the memory hierarchy that ultimately serviced a request.
///
/// This is the paper's *miss-level flag* generalised to an enum: `L1` means
/// the ROB's miss-level flag stays zero; anything deeper sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Serviced by the L1 data cache (or load-store queue forwarding).
    L1,
    /// Serviced by the private L2.
    L2,
    /// Serviced by a shared LLC slice.
    Llc,
    /// Serviced by DRAM.
    Dram,
}

impl MemLevel {
    /// True when the paper's miss-level flag would be non-zero, i.e. the
    /// request was serviced beyond the L1.
    #[inline]
    pub fn is_beyond_l1(self) -> bool {
        self != MemLevel::L1
    }
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::Llc => "LLC",
            MemLevel::Dram => "DRAM",
        };
        f.write_str(s)
    }
}

/// Scheduling priority at shared resources (NoC and DRAM controller).
///
/// With CLIP, critical-and-accurate prefetches are promoted to
/// [`Priority::Demand`]; plain prefetches stay at [`Priority::Prefetch`]
/// (the PADC / prefetch-aware NoC behaviour of the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Lowest: speculative traffic (plain prefetches).
    Prefetch,
    /// Writebacks: drained opportunistically.
    Writeback,
    /// Highest: demand requests and CLIP-critical prefetches.
    Demand,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writeback_sits_between_prefetch_and_demand() {
        assert!(Priority::Writeback > Priority::Prefetch);
        assert!(Priority::Writeback < Priority::Demand);
    }

    #[test]
    fn mem_level_beyond_l1() {
        assert!(!MemLevel::L1.is_beyond_l1());
        assert!(MemLevel::L2.is_beyond_l1());
        assert!(MemLevel::Llc.is_beyond_l1());
        assert!(MemLevel::Dram.is_beyond_l1());
    }
}
