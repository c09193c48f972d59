//! **clip** — a reproduction of *CLIP: Load Criticality based Data
//! Prefetching for Bandwidth-constrained Many-core Systems* (MICRO 2023)
//! as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`types`] — addresses, requests, and the Table 3 configuration;
//! * [`trace`] — synthetic SPEC/GAP/CloudSuite/CVP workload models;
//! * [`cpu`] — the out-of-order core model and ROB-stall ground truth;
//! * [`cache`] — set-associative caches, MSHRs, replacement policies;
//! * [`noc`] — wormhole mesh, analytic, and chiplet NoC models;
//! * [`dram`] — DDR4 and HBM channel/bank timing models with PADC;
//! * [`prefetch`] — Berti, IPCP, Bingo, SPP-PPF and simple baselines;
//! * [`crit`] — baseline criticality predictors (CATCH, FP, FVP, CBP,
//!   ROBO, CRISP) and their evaluation;
//! * [`throttle`] — FDP, HPAC, SPAC, NST;
//! * [`offchip`] — Hermes and DSPatch;
//! * [`core_mechanism`] — **CLIP itself**: the criticality filter, utility
//!   buffer, critical-signature predictor, and APC phase detector;
//! * [`stats`] — weighted speedup and the dynamic-energy model;
//! * [`sim`] — the many-core system simulator and run drivers;
//! * [`bench`] — the experiment harness, figure registry, and the
//!   universal result cache that also resumes interrupted sweeps.
//!
//! # Quickstart
//!
//! ```
//! use clip::sim::{run_mix, RunOptions, Scheme};
//! use clip::trace::Mix;
//! use clip::types::{PrefetcherKind, SimConfig};
//!
//! // A small bandwidth-constrained system: 4 cores, 1 DDR4 channel.
//! let cfg = SimConfig::builder()
//!     .cores(4)
//!     .dram_channels(1)
//!     .l1_prefetcher(PrefetcherKind::Berti)
//!     .build()?;
//! let mix = Mix::homogeneous(
//!     &clip::trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
//!     4,
//! );
//! let opts = RunOptions { warmup_instrs: 500, sim_instrs: 2_000, ..RunOptions::default() };
//!
//! let berti = run_mix(&cfg, &Scheme::plain(), &mix, &opts);
//! let clip = run_mix(&cfg, &Scheme::with_clip(), &mix, &opts);
//! assert!(clip.prefetch.issued <= berti.prefetch.issued);
//! # Ok::<(), clip::types::config::ConfigError>(())
//! ```

pub use clip_bench as bench;
pub use clip_cache as cache;
pub use clip_core as core_mechanism;
pub use clip_cpu as cpu;
pub use clip_crit as crit;
pub use clip_dram as dram;
pub use clip_noc as noc;
pub use clip_offchip as offchip;
pub use clip_prefetch as prefetch;
pub use clip_sim as sim;
pub use clip_stats as stats;
pub use clip_throttle as throttle;
pub use clip_trace as trace;
pub use clip_types as types;
