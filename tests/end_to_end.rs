//! Cross-crate integration tests: drive full simulations through the
//! facade crate and check conservation and consistency invariants that
//! span the core model, caches, NoC, DRAM, prefetchers, and CLIP.

use clip::sim::{run_mix, NocChoice, RunOptions, Scheme};
use clip::trace::Mix;
use clip::types::{PrefetcherKind, SimConfig};

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 300,
        sim_instrs: 2_000,
        seed: 11,
        noc: NocChoice::Mesh,
        ..RunOptions::default()
    }
}

fn cfg(pf: PrefetcherKind, channels: usize) -> SimConfig {
    SimConfig::builder()
        .cores(4)
        .dram_channels(channels)
        .l1_prefetcher(pf)
        .build()
        .expect("valid config")
}

fn mix(name: &str) -> Mix {
    Mix::homogeneous(
        &clip::trace::catalog::by_name(name).expect("workload exists"),
        4,
    )
}

#[test]
fn miss_counts_are_hierarchical() {
    let r = run_mix(
        &cfg(PrefetcherKind::None, 2),
        &Scheme::plain(),
        &mix("605.mcf_s-994B"),
        &opts(),
    );
    // Without prefetching, deeper levels see at most the misses of the
    // level above, plus slack for transactions in flight across the
    // warmup/measurement boundary.
    let slack = 256;
    assert!(r.misses.l2_accesses <= r.misses.l1_misses + slack);
    assert!(r.misses.llc_accesses <= r.misses.l2_misses + slack);
    assert!(r.misses.l1_misses <= r.misses.l1_accesses);
}

#[test]
fn dram_traffic_only_from_llc_misses_plus_writebacks() {
    let r = run_mix(
        &cfg(PrefetcherKind::None, 2),
        &Scheme::plain(),
        &mix("619.lbm_s-2676B"),
        &opts(),
    );
    // Reads serviced by DRAM cannot exceed LLC misses by much (in-flight
    // slack at the boundary), and there must be traffic for lbm.
    assert!(r.dram_transfers > 0);
    assert!(r.misses.llc_misses > 0);
}

#[test]
fn clip_report_consistency() {
    let r = run_mix(
        &cfg(PrefetcherKind::Berti, 1),
        &Scheme::with_clip(),
        &mix("605.mcf_s-1554B"),
        &opts(),
    );
    let c = r.clip.expect("clip report");
    let s = c.stats;
    assert_eq!(
        s.candidates,
        s.allowed_critical
            + s.allowed_explore
            + s.dropped_not_critical
            + s.dropped_predicted
            + s.dropped_low_accuracy
            + s.dropped_phase,
        "every candidate must be accounted for"
    );
    // Berti trains at the L1 only and no governor bypasses CLIP, so each
    // prefetch issued in the measured window is one CLIP allowed in it.
    assert_eq!(r.prefetch.issued, s.allowed_critical + s.allowed_explore);
    assert!(c.dynamic_ips <= c.critical_ips + 1e-9);
    // On one channel the busiest channel is the only one.
    assert_eq!(r.dram_max_channel_util, r.dram_bw_util);
}

#[test]
fn prefetch_usefulness_bounded_by_fills() {
    let r = run_mix(
        &cfg(PrefetcherKind::Berti, 4),
        &Scheme::plain(),
        &mix("603.bwaves_s-891B"),
        &opts(),
    );
    assert!(
        r.prefetch.useful + r.prefetch.useless <= r.prefetch.issued + 64,
        "resolved prefetches cannot exceed issued (+warmup slack): {:?}",
        r.prefetch
    );
}

#[test]
fn ipc_within_machine_width() {
    for name in ["619.lbm_s-2677B", "623.xalancbmk_s-10B"] {
        let r = run_mix(
            &cfg(PrefetcherKind::Berti, 2),
            &Scheme::plain(),
            &mix(name),
            &opts(),
        );
        for &ipc in &r.per_core_ipc {
            assert!(ipc > 0.0 && ipc <= 4.0, "{name}: ipc {ipc} out of range");
        }
    }
}

#[test]
fn energy_counts_track_activity() {
    let r = run_mix(
        &cfg(PrefetcherKind::None, 2),
        &Scheme::plain(),
        &mix("654.roms_s-523B"),
        &opts(),
    );
    assert!(r.energy.l1_reads > 0);
    assert!(r.energy.dram_row_hits + r.energy.dram_row_misses == r.dram_transfers);
    assert!(r.energy.noc_flit_hops > 0);
}

#[test]
fn hetero_mix_runs_end_to_end() {
    let mixes = clip::trace::heterogeneous_mixes(1, 4, 5);
    let r = run_mix(
        &cfg(PrefetcherKind::Berti, 2),
        &Scheme::plain(),
        &mixes[0],
        &opts(),
    );
    assert_eq!(r.per_core_ipc.len(), 4);
    assert!(r.mean_ipc() > 0.0);
}

#[test]
fn l2_attached_clip_gates_spp() {
    let cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l2_prefetcher(PrefetcherKind::SppPpf)
        .build()
        .expect("valid config");
    let plain = run_mix(&cfg, &Scheme::plain(), &mix("603.bwaves_s-1740B"), &opts());
    let clipd = run_mix(
        &cfg,
        &Scheme::with_clip(),
        &mix("603.bwaves_s-1740B"),
        &opts(),
    );
    assert!(
        clipd.prefetch.issued <= plain.prefetch.issued,
        "CLIP at the L2 must not increase traffic: {} vs {}",
        clipd.prefetch.issued,
        plain.prefetch.issued
    );
}

#[test]
fn storage_report_matches_paper_budget() {
    let clip = clip::core_mechanism::Clip::new(clip::core_mechanism::ClipConfig::default());
    let kb = clip.storage_report().total_kib();
    assert!((1.4..=1.7).contains(&kb), "Table 2 budget: got {kb:.3} KB");
}
