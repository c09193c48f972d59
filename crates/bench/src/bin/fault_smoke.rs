//! CI smoke binary for the integrity layer: injects one named fault and
//! checks the matching auditor turns it into a nonzero exit with the
//! expected diagnostic on stderr.
//!
//! Usage: `fault_smoke [<kind>] [--disarm]` where `<kind>` is one of the
//! kebab-case fault names below (default: `lose-delivery`, the
//! historical watchdog smoke). Exits 2 with the `SimError` on stderr
//! when the fault is detected — the expected outcome, asserted by the CI
//! fault matrix — and 0 when it goes unnoticed, so an undetected fault
//! fails the build. With `--disarm` the fault is left unarmed and the
//! run must complete cleanly (exit 0).
//!
//! Every kind runs through [`run_jobs_localized`]: faults the audits
//! catch directly surface as their audit error, and the two deliberately
//! audit-invisible kinds still fail — `lose-delivery` via the
//! forward-progress watchdog, `flip-criticality` via the state-fingerprint
//! comparison against the clean same-seed re-run.
//!
//! When `CLIP_FP_BASELINE` is set (see `clip_bench::fp_store`) the batch
//! instead runs through the plain checked driver plus the on-disk
//! fingerprint-baseline store, so any detection provably comes from the
//! persisted baseline rather than the intra-run localizer. That is the
//! CI `fp-baseline-smoke` recipe: record a clean baseline (`record` +
//! `--disarm`), re-verify the same revision (`verify` + `--disarm`, must
//! pass), then verify with the armed fault standing in for a code change
//! (`verify`, must exit nonzero with a `Divergence` naming the first
//! divergent window and component).

use clip_bench::fp_store::{self, FpMode};
use clip_sim::{
    run_jobs_checked, run_jobs_localized, CheckLevel, FaultKind, FaultSpec, NocChoice, RunOptions,
    Scheme, SweepJob,
};
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};
use std::process::ExitCode;

/// One injectable fault: its CLI name and the run shape that provokes it.
struct Smoke {
    name: &'static str,
    kind: FaultKind,
    /// Queue/criticality faults need prefetches in flight.
    needs_prefetcher: bool,
    check: CheckLevel,
    check_cadence: u64,
    /// `0` keeps the default window.
    watchdog_window: u64,
}

const SMOKES: &[Smoke] = &[
    Smoke {
        name: "drop-flit",
        kind: FaultKind::DropFlit,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
    },
    Smoke {
        name: "swallow-dram-completion",
        kind: FaultKind::SwallowDramCompletion,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
    },
    Smoke {
        name: "leak-llc-mshr",
        kind: FaultKind::LeakLlcMshr,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
    },
    Smoke {
        name: "lose-delivery",
        kind: FaultKind::LoseDelivery,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 2_000,
    },
    Smoke {
        name: "stale-retire",
        kind: FaultKind::StaleRetire,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
    },
    Smoke {
        name: "duplicate-delivery",
        kind: FaultKind::DuplicateDelivery,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
    },
    Smoke {
        name: "corrupt-prefetch-addr",
        kind: FaultKind::CorruptPrefetchAddr,
        needs_prefetcher: true,
        check: CheckLevel::Full,
        check_cadence: 8,
        watchdog_window: 0,
    },
    Smoke {
        name: "flip-criticality",
        kind: FaultKind::FlipCriticality,
        needs_prefetcher: true,
        check: CheckLevel::Full,
        check_cadence: 16,
        watchdog_window: 0,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let disarm = args.iter().any(|a| a == "--disarm");
    let name = args
        .iter()
        .find(|a| *a != "--disarm")
        .map(String::as_str)
        .unwrap_or("lose-delivery");
    let Some(smoke) = SMOKES.iter().find(|s| s.name == name) else {
        eprintln!("fault_smoke: unknown fault kind {name:?}; known kinds:");
        for s in SMOKES {
            eprintln!("  {}", s.name);
        }
        return ExitCode::from(3);
    };

    let cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(if smoke.needs_prefetcher {
            PrefetcherKind::Berti
        } else {
            PrefetcherKind::None
        })
        .build()
        .expect("valid config");
    let mix = Mix::homogeneous(
        &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
        4,
    );
    let fault = if disarm {
        None
    } else {
        Some(FaultSpec {
            kind: smoke.kind,
            at: if smoke.kind == FaultKind::LoseDelivery {
                2_000
            } else {
                1_000
            },
        })
    };
    let opts = RunOptions {
        warmup_instrs: 500,
        sim_instrs: 3_000,
        seed: 7,
        noc: NocChoice::Analytic,
        check: Some(smoke.check),
        check_cadence: smoke.check_cadence,
        watchdog_window: smoke.watchdog_window,
        fault,
        ..RunOptions::default()
    };
    let jobs = vec![SweepJob {
        cfg,
        scheme: Scheme::plain(),
        mix,
    }];
    // The fp key strips the fault, so a disarmed `record` run and an
    // armed `verify` run address the same baseline entry.
    let fp_mode = fp_store::mode();
    let outcome = if fp_mode == FpMode::Off {
        run_jobs_localized(&jobs, &opts).remove(0)
    } else {
        let raw = run_jobs_checked(&jobs, &opts, |_, r| r).remove(0);
        fp_store::apply(&jobs[0], &opts, raw)
    };
    match outcome {
        Err(e) if disarm => {
            eprintln!("fault_smoke: disarmed {name} run FAILED: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("fault_smoke: {name} caught by its auditor: {e}");
            ExitCode::from(2)
        }
        Ok(_) if disarm => {
            let did = match fp_mode {
                FpMode::Record => " (fingerprint baseline recorded)",
                FpMode::Verify | FpMode::Require => " (verified against the fingerprint baseline)",
                FpMode::Off => "",
            };
            eprintln!("fault_smoke: clean {name} run completed{did}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("fault_smoke: the injected {name} fault went UNDETECTED");
            ExitCode::SUCCESS
        }
    }
}
