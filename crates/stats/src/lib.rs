//! Metrics and the memory-hierarchy dynamic-energy model.
//!
//! * [`metrics`] — weighted speedup (Snavely & Tullsen), the
//!   normalisation against no-prefetching the paper reports, latency
//!   averages, and coverage/accuracy helpers.
//! * [`energy`] — per-access dynamic-energy accounting with 7 nm-class
//!   constants standing in for CACTI-P and the Micron DRAM power
//!   calculator (see `DESIGN.md` §3).
//! * [`json`] — a dependency-free JSON emitter (and test parser) for
//!   machine-readable experiment artifacts.

pub mod energy;
pub mod json;
pub mod metrics;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use json::{Json, JsonError};
pub use metrics::{
    geomean, normalized_weighted_speedup, weighted_speedup, LatencyStat, SampleSummary,
};
