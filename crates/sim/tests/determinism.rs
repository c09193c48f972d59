//! Determinism regression tests: the simulator must be a pure function of
//! (config, scheme, mix, seed). Two kinds of drift are guarded:
//!
//! * run-to-run — accidental `HashMap` iteration-order dependence, global
//!   state, or time-based seeding would break bit-identical reruns;
//! * serial vs parallel — `run_jobs_checked` must return exactly what
//!   the serial loop returns, independent of thread scheduling.

use clip_sim::{run_jobs_checked, run_mix, RunOptions, Scheme, SimResult, SweepJob};
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};

fn cfg(pf: PrefetcherKind) -> SimConfig {
    SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(pf)
        .build()
        .expect("valid config")
}

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 400,
        sim_instrs: 2_000,
        seed: 11,
        timeline_interval: 1_000,
        ..RunOptions::default()
    }
}

fn mixes() -> Vec<Mix> {
    ["605.mcf_s-1554B", "619.lbm_s-4268B", "603.bwaves_s-891B"]
        .iter()
        .map(|n| Mix::homogeneous(&clip_trace::catalog::by_name(n).expect("known workload"), 4))
        .collect()
}

/// Runs a batch through the parallel driver, panicking on any failed job.
fn run_parallel(jobs: &[SweepJob], opts: &RunOptions) -> Vec<SimResult> {
    run_jobs_checked(jobs, opts, |_, r| r)
        .into_iter()
        .map(|r| r.unwrap())
        .collect()
}

/// Every observable counter must match, not just IPC: a divergence in any
/// of them means nondeterminism crept into the cycle loop.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.per_core_ipc, b.per_core_ipc, "{what}: per-core IPC");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.dram_transfers, b.dram_transfers, "{what}: DRAM transfers");
    assert_eq!(a.dram_row_hits, b.dram_row_hits, "{what}: row hits");
    assert_eq!(a.noc_flit_hops, b.noc_flit_hops, "{what}: flit hops");
    assert_eq!(a.timeline, b.timeline, "{what}: timeline series");
    // The JSON rendering folds in every remaining report field (latency,
    // prefetch, misses, clip, energy) — compare it wholesale.
    assert_eq!(
        a.to_json().render(),
        b.to_json().render(),
        "{what}: full serialized result"
    );
}

#[test]
fn rerun_is_bit_identical() {
    let cfg = cfg(PrefetcherKind::Berti);
    let mix = &mixes()[0];
    let a = run_mix(&cfg, &Scheme::with_clip(), mix, &opts());
    let b = run_mix(&cfg, &Scheme::with_clip(), mix, &opts());
    assert_identical(&a, &b, "rerun");
}

#[test]
fn parallel_driver_matches_serial() {
    let cfg = cfg(PrefetcherKind::Berti);
    let mixes = mixes();
    let opts = opts();
    let serial: Vec<_> = mixes
        .iter()
        .map(|m| run_mix(&cfg, &Scheme::plain(), m, &opts))
        .collect();
    let jobs: Vec<SweepJob> = mixes
        .iter()
        .map(|mix| SweepJob {
            cfg: cfg.clone(),
            scheme: Scheme::plain(),
            mix: mix.clone(),
        })
        .collect();
    let parallel = run_parallel(&jobs, &opts);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_identical(s, p, &format!("serial vs parallel, mix {i}"));
    }
}

#[test]
fn parallel_driver_keeps_job_order_with_mixed_schemes() {
    let cfg_no = cfg(PrefetcherKind::None);
    let cfg_pf = cfg(PrefetcherKind::Berti);
    let mix = &mixes()[0];
    let opts = opts();
    let jobs: Vec<SweepJob> = [
        (cfg_no.clone(), Scheme::plain()),
        (cfg_pf.clone(), Scheme::plain()),
        (cfg_pf.clone(), Scheme::with_clip()),
    ]
    .into_iter()
    .map(|(cfg, scheme)| SweepJob {
        cfg,
        scheme,
        mix: mix.clone(),
    })
    .collect();
    let results = run_parallel(&jobs, &opts);
    let serial: Vec<_> = jobs
        .iter()
        .map(|j| run_mix(&j.cfg, &j.scheme, &j.mix, &opts))
        .collect();
    for (i, (s, p)) in serial.iter().zip(&results).enumerate() {
        assert_identical(s, p, &format!("job {i}"));
    }
    // Sanity: the three jobs are genuinely different runs.
    assert!(results[1].prefetch.issued > 0);
    assert!(results[2].prefetch.issued < results[1].prefetch.issued);
}
