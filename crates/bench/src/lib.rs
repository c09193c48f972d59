//! Experiment harness: the declarative spec layer behind the figures and
//! tables that regenerate the paper's evaluation artifacts.
//!
//! Each entry of the registry in [`figures`] declares one or more
//! [`experiment::Experiment`] specs, which
//! [`experiment::run_experiment`] expands into jobs, runs through
//! `clip_sim::run_jobs_checked` (memoized in-process, with every
//! completed run also cached on disk under `target/clip-cache/`), prints
//! as a table, and writes as a JSON artifact under
//! `target/experiments/`. Failed cells render as `ERR` instead of
//! aborting the sweep. Run one or more entries with
//! `cargo run -p clip-bench --release --bin all_figures -- <name>...`
//! (no names runs the whole sweep). Scale knobs come from environment
//! variables so the same entries serve quick smoke runs and long
//! reproductions:
//!
//! * `CLIP_CORES` — cores per system (default 16; the paper uses 64).
//! * `CLIP_INSTRS` — measured instructions per core (default 6000).
//! * `CLIP_WARMUP` — warmup instructions per core (default 2000).
//! * `CLIP_MIXES` — how many mixes to sample for per-figure averages
//!   (default 10 homogeneous / 8 heterogeneous).
//! * `CLIP_NOC` — `mesh`, `analytic`, or `chiplet` (default analytic
//!   for sweeps).
//! * `CLIP_DRAM` — memory backend: `ddr4` (default) or `hbm`.
//! * `CLIP_CACHE` — `0`/`off` disables the universal on-disk result
//!   cache (every completed cell, all schemes — see `cache.rs`).
//! * `CLIP_CACHE_DIR` — overrides the result-cache directory (the cache
//!   holds at most 256 MiB; the oldest entries are garbage-collected).
//! * `CLIP_ARTIFACT_DIR` — overrides the JSON artifact directory.
//! * `CLIP_THREADS` — worker threads for job batches (accepted range
//!   1..=1024; anything else warns once on stderr and falls back to the
//!   host parallelism). Never affects results.
//! * `CLIP_CHECK` — integrity checking level: `off`, `cheap` (default),
//!   or `full`; see the `clip-sim` integrity layer. Audits are
//!   read-only, so results are identical at every level.
//! * `CLIP_TICK` — `step` forces cycle-by-cycle ticking instead of the
//!   event wheel (`wheel`, the default); results are identical either
//!   way (see `clip_sim::set_step_override`).
//! * `CLIP_FP_BASELINE` — fingerprint-baseline mode: `record` persists
//!   each freshly simulated job's per-window state-hash stream under
//!   `target/clip-fp/` (requires audits: `CLIP_CHECK=cheap` or `full`,
//!   whose streams are keyed apart), `verify` diffs every fresh job
//!   against its stored baseline and renders divergent cells as `DIV`;
//!   unset/`off` is completely inert (see [`fp_store`]).
//!
//! The last three are gates: they choose what a run checks. Unset or
//! blank, each takes its default; any word it does not accept stops the
//! run with exit status 2 and an error naming the words it does (see
//! `clip_types::knob::env_gate`), because a mistyped gate that fell back
//! would check nothing.
//! * `CLIP_FP_DIR` — overrides the fingerprint-baseline directory.

mod cache;
pub mod experiment;
pub mod figures;
pub mod fp_store;
mod store_util;

pub use cache::{stats as cache_stats, CacheStats};

use clip_sim::{NocChoice, RunOptions};
use clip_trace::Mix;
use clip_types::{DramKind, PrefetcherKind, SimConfig};

/// Experiment scale configuration, read from the environment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Cores per simulated system.
    pub cores: usize,
    /// Measured instructions per core.
    pub instrs: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Homogeneous mixes sampled.
    pub homo_mixes: usize,
    /// Heterogeneous mixes sampled.
    pub hetero_mixes: usize,
    /// NoC model choice.
    pub noc: NocChoice,
    /// DRAM backend choice.
    pub dram: DramKind,
}

impl Scale {
    /// Reads the scale from `CLIP_*` environment variables (validated
    /// warn-once, see `clip_types::knob`; garbage falls back to the
    /// documented defaults instead of being silently ignored).
    pub fn from_env() -> Self {
        use clip_types::knob;
        let noc = match knob::env_choice("CLIP_NOC", &["mesh", "analytic", "chiplet"]) {
            Some("mesh") => NocChoice::Mesh,
            Some("chiplet") => NocChoice::Chiplet,
            _ => NocChoice::Analytic,
        };
        let dram = match knob::env_choice("CLIP_DRAM", &["ddr4", "hbm"]) {
            Some("hbm") => DramKind::Hbm,
            _ => DramKind::Ddr4,
        };
        Scale {
            cores: knob::env_u64("CLIP_CORES", 1, 4096).unwrap_or(16) as usize,
            instrs: knob::env_u64("CLIP_INSTRS", 1, u64::MAX).unwrap_or(6_000),
            warmup: knob::env_u64("CLIP_WARMUP", 0, u64::MAX).unwrap_or(2_000),
            homo_mixes: knob::env_u64("CLIP_MIXES", 1, 4096).unwrap_or(10) as usize,
            hetero_mixes: knob::env_u64("CLIP_MIXES", 1, 4096).unwrap_or(8) as usize,
            noc,
            dram,
        }
    }

    /// Run options for this scale.
    pub fn options(&self) -> RunOptions {
        RunOptions {
            warmup_instrs: self.warmup,
            sim_instrs: self.instrs,
            seed: 42,
            noc: self.noc,
            ..RunOptions::default()
        }
    }

    /// A platform config with this scale's core count.
    pub fn config(&self, channels: usize, l1: PrefetcherKind, l2: PrefetcherKind) -> SimConfig {
        SimConfig::builder()
            .cores(self.cores)
            .dram_backend(self.dram)
            .dram_channels(channels)
            .l1_prefetcher(l1)
            .l2_prefetcher(l2)
            .build()
            .expect("valid experiment config")
    }

    /// The homogeneous mixes this scale samples (evenly spread over the 45).
    pub fn sample_homogeneous(&self) -> Vec<Mix> {
        let all = clip_trace::homogeneous_mixes(self.cores);
        sample(all, self.homo_mixes)
    }

    /// The heterogeneous mixes this scale samples.
    pub fn sample_heterogeneous(&self) -> Vec<Mix> {
        clip_trace::heterogeneous_mixes(self.hetero_mixes, self.cores, 1234)
    }
}

fn sample(mut v: Vec<Mix>, n: usize) -> Vec<Mix> {
    if n >= v.len() {
        return v;
    }
    let step = v.len() as f64 / n as f64;
    let mut out = Vec::with_capacity(n);
    let mut idx = 0.0;
    while out.len() < n {
        out.push(v[(idx as usize).min(v.len() - 1)].clone());
        idx += step;
    }
    // Preserve original order, drop the rest.
    v.clear();
    out
}

/// Maps a paper channel count (for 64 cores) to this scale's equivalent,
/// preserving the channels-per-core ratio (minimum one channel).
pub fn scaled_channels(paper_channels: usize, cores: usize) -> usize {
    ((paper_channels * cores) / 64).max(1).next_power_of_two()
}

/// Picks the prefetcher placement: L1-trained kinds go to the L1 slot,
/// L2-trained kinds to the L2 slot.
pub fn place(kind: PrefetcherKind) -> (PrefetcherKind, PrefetcherKind) {
    if kind.trains_at_l1() {
        (kind, PrefetcherKind::None)
    } else {
        (PrefetcherKind::None, kind)
    }
}

/// `cfg` with both prefetchers removed — the normalization baseline
/// platform for that config.
pub fn strip_prefetchers(cfg: &SimConfig) -> SimConfig {
    let mut base = cfg.clone();
    base.l1_prefetcher = PrefetcherKind::None;
    base.l2_prefetcher = PrefetcherKind::None;
    base
}

/// Geometric-mean aggregation of normalized weighted speedups over mixes.
pub fn mean_ws(values: &[f64]) -> f64 {
    clip_stats::geomean(values)
}

/// Formats a float column.
pub fn fmt(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_sane() {
        let s = Scale::from_env();
        assert!(s.cores >= 2);
        assert!(s.instrs > 0);
    }

    #[test]
    fn sampling_spreads() {
        let s = Scale {
            cores: 4,
            instrs: 100,
            warmup: 0,
            homo_mixes: 5,
            hetero_mixes: 2,
            noc: NocChoice::Analytic,
            dram: DramKind::Ddr4,
        };
        let m = s.sample_homogeneous();
        assert_eq!(m.len(), 5);
        let names: Vec<&str> = m.iter().map(|x| x.name.as_str()).collect();
        let mut uniq = names.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "sampled mixes must differ: {names:?}");
    }

    #[test]
    fn placement_routes_by_training_level() {
        assert_eq!(
            place(PrefetcherKind::Berti),
            (PrefetcherKind::Berti, PrefetcherKind::None)
        );
        assert_eq!(
            place(PrefetcherKind::SppPpf),
            (PrefetcherKind::None, PrefetcherKind::SppPpf)
        );
    }

    #[test]
    fn strip_prefetchers_clears_both_slots() {
        let cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .l1_prefetcher(PrefetcherKind::Berti)
            .l2_prefetcher(PrefetcherKind::SppPpf)
            .build()
            .expect("valid config");
        let base = strip_prefetchers(&cfg);
        assert_eq!(base.l1_prefetcher, PrefetcherKind::None);
        assert_eq!(base.l2_prefetcher, PrefetcherKind::None);
        assert_eq!(base.cores, cfg.cores);
    }
}
