//! Custom workloads: define your own workload model with the
//! `WorkloadSpec` builder, validate its statistics offline, and run it
//! through the simulator — the workflow a downstream user follows to
//! study a workload the catalog does not cover.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use clip::sim::{run_mix, RunOptions, Scheme};
use clip::stats::normalized_weighted_speedup;
use clip::trace::spec::PatternMix;
use clip::trace::{Mix, Suite, TraceStats, WorkloadSpec};
use clip::types::{PrefetcherKind, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A database-like workload: a B-tree-ish pointer chase over a large
    // footprint, a hot root working set, and branchy control flow.
    let spec = WorkloadSpec::new(
        "custom.btree-scan",
        Suite::SpecCpu2017,
        PatternMix {
            stream: 0.10,
            stride: 0.05,
            chase: 0.45,
            hot: 0.30,
            ctx_dual: 0.10,
        },
    )
    .footprint(1 << 21) // 128 MiB
    .hot(512)
    .ips(40, 28)
    .mixfrac(0.30, 0.10, 0.18)
    .predictability(0.75);

    // 1. Offline validation of the model's statistics.
    let window = spec.generator(1).record(30_000);
    let stats = TraceStats::analyse(&window, 768);
    println!("--- model statistics (30k instructions) ---");
    println!("{stats}");
    println!();

    // 2. Simulate 4 cores of it on a bandwidth-constrained system.
    let cores = 4;
    let mix = Mix::homogeneous(&spec, cores);
    let platform = |pf: PrefetcherKind| {
        SimConfig::builder()
            .cores(cores)
            .dram_channels(1)
            .l1_prefetcher(pf)
            .build()
    };
    let opts = RunOptions {
        warmup_instrs: 1_000,
        sim_instrs: 5_000,
        ..RunOptions::default()
    };
    let base = run_mix(
        &platform(PrefetcherKind::None)?,
        &Scheme::plain(),
        &mix,
        &opts,
    );
    let berti = run_mix(
        &platform(PrefetcherKind::Berti)?,
        &Scheme::plain(),
        &mix,
        &opts,
    );
    let clip = run_mix(
        &platform(PrefetcherKind::Berti)?,
        &Scheme::with_clip(),
        &mix,
        &opts,
    );

    println!("--- simulation (4 cores, 1 DDR4 channel) ---");
    println!(
        "Berti      : WS {:.3}, {} prefetches, {:.0}% accurate",
        normalized_weighted_speedup(&berti.per_core_ipc, &base.per_core_ipc),
        berti.prefetch.issued,
        berti.prefetch.accuracy() * 100.0
    );
    println!(
        "Berti+CLIP : WS {:.3}, {} prefetches, {:.0}% accurate",
        normalized_weighted_speedup(&clip.per_core_ipc, &base.per_core_ipc),
        clip.prefetch.issued,
        clip.prefetch.accuracy() * 100.0
    );
    Ok(())
}
