//! Integrity-layer end-to-end tests: every injected fault class is caught
//! by its auditor with a `SimError` naming the component and cycle, fault
//! injection is deterministic (serial vs parallel), and a failing job in
//! a batch leaves the other jobs' results byte-identical to a clean run.

use clip_sim::{
    run_jobs_checked, run_jobs_localized, run_mix_checked, CheckLevel, FaultKind, FaultSpec,
    NocChoice, RunOptions, Scheme, SimError, SimErrorKind, SweepJob,
};
use clip_trace::{catalog, Mix};
use clip_types::{DramKind, PrefetcherKind, SimConfig};

fn cfg(cores: usize) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::None)
        .build()
        .expect("valid config")
}

fn cfg_pf(cores: usize) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config")
}

fn mix(cores: usize) -> Mix {
    Mix::homogeneous(
        &catalog::by_name("605.mcf_s-1554B").expect("known workload"),
        cores,
    )
}

fn faulted(kind: FaultKind, at: u64, noc: NocChoice) -> RunOptions {
    RunOptions {
        warmup_instrs: 500,
        sim_instrs: 3_000,
        seed: 7,
        noc,
        check: Some(CheckLevel::Cheap),
        check_cadence: 64,
        fault: Some(FaultSpec { kind, at }),
        ..RunOptions::default()
    }
}

#[test]
fn dropped_flit_is_caught_by_noc_auditor() {
    let opts = faulted(FaultKind::DropFlit, 1_000, NocChoice::Mesh);
    let err = run_mix_checked(&cfg(4), &Scheme::plain(), &mix(4), &opts)
        .expect_err("a lost flit must fail the run");
    assert_eq!(err.component, "noc");
    assert_eq!(err.kind, SimErrorKind::Conservation);
    assert!(err.cycle >= 1_000, "detected at cycle {}", err.cycle);
    assert!(err.detail.contains("conservation broken"), "{err}");
}

#[test]
fn swallowed_dram_completion_is_caught_by_dram_auditor() {
    let opts = faulted(FaultKind::SwallowDramCompletion, 1_000, NocChoice::Analytic);
    let err = run_mix_checked(&cfg(4), &Scheme::plain(), &mix(4), &opts)
        .expect_err("a swallowed completion must fail the run");
    assert_eq!(err.component, "dram");
    assert_eq!(err.kind, SimErrorKind::Conservation);
    assert!(err.cycle >= 1_000, "detected at cycle {}", err.cycle);
    assert!(err.detail.contains("conservation broken"), "{err}");
}

#[test]
fn leaked_llc_mshr_is_caught_by_mshr_auditor() {
    let opts = faulted(FaultKind::LeakLlcMshr, 1_000, NocChoice::Analytic);
    let err = run_mix_checked(&cfg(4), &Scheme::plain(), &mix(4), &opts)
        .expect_err("a leaked MSHR must fail the run");
    assert_eq!(err.component, "llc");
    assert_eq!(err.kind, SimErrorKind::Conservation);
    assert!(err.cycle >= 1_000, "detected at cycle {}", err.cycle);
    assert!(err.detail.contains("balance broken"), "{err}");
}

#[test]
fn lost_deliveries_trip_the_forward_progress_watchdog() {
    // LoseDelivery is invisible to every conservation audit (the network
    // accounts for each delivery before the fault discards it), so only
    // the watchdog can report the resulting hang.
    let opts = RunOptions {
        watchdog_window: 2_000,
        ..faulted(FaultKind::LoseDelivery, 2_000, NocChoice::Analytic)
    };
    let err = run_mix_checked(&cfg(4), &Scheme::plain(), &mix(4), &opts)
        .expect_err("losing every delivery must wedge the system");
    assert_eq!(err.component, "watchdog");
    assert_eq!(err.kind, SimErrorKind::Deadlock);
    assert!(err.cycle >= 2_000, "detected at cycle {}", err.cycle);
    // The report is the one stall diagnostic: every queue's occupancy
    // and the oldest stuck transactions.
    for field in [
        "live txns",
        "l1_mshr=",
        "l2_mshr=",
        "llc_mshr=",
        "outbox=",
        "pf_queue=",
        "dram_read_q=",
        "dram_parked=",
        "pending_events=",
        "oldest",
    ] {
        assert!(err.detail.contains(field), "missing {field}: {err}");
    }
}

/// One row of the fault → auditor table: how to provoke the fault and
/// what the resulting `SimError` must look like.
struct FaultRow {
    kind: FaultKind,
    /// Use the prefetcher-enabled config (queue/criticality faults need
    /// prefetches in flight).
    needs_prefetcher: bool,
    check: CheckLevel,
    check_cadence: u64,
    watchdog_window: u64,
    expect_kind: SimErrorKind,
    /// The error's component must start with one of these.
    expect_component_prefixes: &'static [&'static str],
}

const FAULT_TABLE: &[FaultRow] = &[
    FaultRow {
        kind: FaultKind::DropFlit,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Conservation,
        expect_component_prefixes: &["noc"],
    },
    FaultRow {
        kind: FaultKind::SwallowDramCompletion,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Conservation,
        expect_component_prefixes: &["dram"],
    },
    FaultRow {
        kind: FaultKind::LeakLlcMshr,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Conservation,
        expect_component_prefixes: &["llc"],
    },
    FaultRow {
        kind: FaultKind::LoseDelivery,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 2_000,
        expect_kind: SimErrorKind::Deadlock,
        expect_component_prefixes: &["watchdog"],
    },
    FaultRow {
        kind: FaultKind::StaleRetire,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Conservation,
        expect_component_prefixes: &["tile"],
    },
    FaultRow {
        kind: FaultKind::DuplicateDelivery,
        needs_prefetcher: false,
        check: CheckLevel::Cheap,
        check_cadence: 64,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Conservation,
        expect_component_prefixes: &["tile"],
    },
    FaultRow {
        kind: FaultKind::CorruptPrefetchAddr,
        needs_prefetcher: true,
        // The corrupted entry is only visible to the full-level legality
        // scans; a tight cadence catches it before the queue drains (the
        // txn-slab backstop catches it afterwards).
        check: CheckLevel::Full,
        check_cadence: 8,
        watchdog_window: 0,
        expect_kind: SimErrorKind::IllegalState,
        expect_component_prefixes: &["tile", "txns"],
    },
    FaultRow {
        kind: FaultKind::FlipCriticality,
        needs_prefetcher: true,
        // Conserved corruption: only the fingerprint comparison against a
        // clean same-seed run (run_jobs_localized) can report it.
        check: CheckLevel::Full,
        check_cadence: 16,
        watchdog_window: 0,
        expect_kind: SimErrorKind::Divergence,
        expect_component_prefixes: &["tile", "llc", "txns", "fingerprint"],
    },
];

/// Backend combinations the fault matrix covers: the default
/// analytic/DDR4 pair, each new backend on its own, and the full
/// chiplet + HBM stack.
const BACKENDS: &[(NocChoice, DramKind)] = &[
    (NocChoice::Analytic, DramKind::Ddr4),
    (NocChoice::Chiplet, DramKind::Ddr4),
    (NocChoice::Analytic, DramKind::Hbm),
    (NocChoice::Chiplet, DramKind::Hbm),
];

/// A 4-core platform on the given DRAM backend, split 2 + 2 across two
/// dies so chiplet runs actually exercise the die-to-die crossing.
fn backend_cfg(pf: PrefetcherKind, dram: DramKind) -> SimConfig {
    SimConfig::builder()
        .cores(4)
        .dram_backend(dram)
        .dram_channels(1)
        .chiplet_cluster(2)
        .l1_prefetcher(pf)
        .build()
        .expect("valid config")
}

fn row_options(row: &FaultRow, noc: NocChoice) -> RunOptions {
    RunOptions {
        warmup_instrs: 500,
        sim_instrs: 3_000,
        seed: 7,
        noc,
        check: Some(row.check),
        check_cadence: row.check_cadence,
        watchdog_window: row.watchdog_window,
        fault: Some(FaultSpec {
            kind: row.kind,
            at: 1_000,
        }),
        ..RunOptions::default()
    }
}

fn backend_row_error(row: &FaultRow, noc: NocChoice, dram: DramKind) -> SimError {
    let pf = if row.needs_prefetcher {
        PrefetcherKind::Berti
    } else {
        PrefetcherKind::None
    };
    let jobs = vec![SweepJob {
        cfg: backend_cfg(pf, dram),
        scheme: Scheme::plain(),
        mix: mix(4),
    }];
    let mut outcomes = run_jobs_localized(&jobs, &row_options(row, noc));
    outcomes
        .remove(0)
        .expect_err("every injected fault must be reported")
}

fn row_error(row: &FaultRow) -> SimError {
    backend_row_error(row, NocChoice::Analytic, DramKind::Ddr4)
}

fn assert_row_caught(row: &FaultRow, err: &SimError, noc: NocChoice, dram: DramKind) {
    assert_eq!(
        err.kind, row.expect_kind,
        "{:?} on {noc:?}/{dram:?}: wrong error kind: {err}",
        row.kind
    );
    assert!(
        row.expect_component_prefixes
            .iter()
            .any(|p| err.component.starts_with(p)),
        "{:?} on {noc:?}/{dram:?}: component {:?} not in {:?} ({err})",
        row.kind,
        err.component,
        row.expect_component_prefixes
    );
    // Tile-layer faults must name the specific structure.
    match row.kind {
        FaultKind::StaleRetire | FaultKind::DuplicateDelivery => {
            assert!(err.component.ends_with(".core"), "{err}");
        }
        FaultKind::CorruptPrefetchAddr => {
            assert!(
                err.component.ends_with(".pf-queue") || err.component == "txns",
                "{err}"
            );
        }
        _ => {}
    }
}

#[test]
fn every_fault_kind_is_caught_by_its_auditor() {
    for row in FAULT_TABLE {
        let err = row_error(row);
        assert_row_caught(row, &err, NocChoice::Analytic, DramKind::Ddr4);
    }
}

/// The full backend × fault-kind matrix: every auditor contract the
/// default stack honours must hold verbatim on the chiplet fabric and
/// the HBM memory backend (and their combination).
#[test]
fn every_fault_kind_is_caught_on_every_backend() {
    for &(noc, dram) in BACKENDS {
        if (noc, dram) == (NocChoice::Analytic, DramKind::Ddr4) {
            continue; // the default pair is covered above
        }
        for row in FAULT_TABLE {
            let err = backend_row_error(row, noc, dram);
            assert_row_caught(row, &err, noc, dram);
        }
    }
}

/// The composite ensemble under every fault kind: per-engine queue
/// accounting adds new conservation state (engine-tagged queue entries,
/// per-engine queued/dequeued balances), and every auditor contract the
/// single-engine path honours must hold verbatim with three engines
/// sharing the pf-queue. Like the rest of the matrix this runs the
/// plain scheme: CLIP gates at the issue point and may legitimately
/// consume a corrupted candidate there, so the legality-backstop
/// contract (queue scan or illegal issue, whichever comes first) is
/// defined on the ungated path.
#[test]
fn every_fault_kind_is_caught_under_the_composite_ensemble() {
    for row in FAULT_TABLE {
        let pf = if row.needs_prefetcher {
            PrefetcherKind::Composite
        } else {
            PrefetcherKind::None
        };
        let jobs = vec![SweepJob {
            cfg: backend_cfg(pf, DramKind::Ddr4),
            scheme: Scheme::plain(),
            mix: mix(4),
        }];
        let mut outcomes = run_jobs_localized(&jobs, &row_options(row, NocChoice::Analytic));
        let err = match outcomes.remove(0) {
            Err(e) => e,
            Ok(_) => panic!("{:?} must be reported under Composite", row.kind),
        };
        assert_row_caught(row, &err, NocChoice::Analytic, DramKind::Ddr4);
    }
}

#[test]
fn fault_victims_are_deterministic_across_runs_and_threads() {
    // The same seed must pick the same victim — and report the identical
    // error — whether jobs run serially or across worker threads.
    std::env::set_var("CLIP_THREADS", "2");
    for row in FAULT_TABLE {
        let a = row_error(row);
        let b = row_error(row);
        assert_eq!(a, b, "{:?}: victim must be deterministic", row.kind);
    }
}

#[test]
fn stale_retire_names_core_conservation() {
    let row = &FAULT_TABLE[4];
    let err = row_error(row);
    assert!(err.detail.contains("rob balance broken"), "{err}");
    assert!(err.cycle >= 1_000, "detected at cycle {}", err.cycle);
}

#[test]
fn duplicate_delivery_names_load_queue() {
    let row = &FAULT_TABLE[5];
    let err = row_error(row);
    assert!(err.detail.contains("load queue balance broken"), "{err}");
}

#[test]
fn flip_criticality_is_localized_to_a_window_and_component() {
    // The fingerprint localizer demo of the issue: a flipped criticality
    // bit is conserved state, so the faulted run completes cleanly; only
    // diffing its fingerprint stream against the un-faulted same-seed run
    // reports where the histories first part ways.
    let opts = row_options(&FAULT_TABLE[7], NocChoice::Analytic);
    let c = cfg_pf(4);
    let m = mix(4);

    let faulted = run_mix_checked(&c, &Scheme::plain(), &m, &opts)
        .expect("conserved corruption passes every auditor");
    let clean_opts = RunOptions {
        fault: None,
        ..opts.clone()
    };
    let clean = run_mix_checked(&c, &Scheme::plain(), &m, &clean_opts).expect("clean run");
    assert!(
        !clean.fingerprints.is_empty(),
        "full-level runs must capture fingerprints"
    );

    let err = clip_sim::fingerprint::compare(&clean, &faulted)
        .expect_err("flipped criticality must diverge");
    assert_eq!(err.kind, SimErrorKind::Divergence);
    assert!(err.detail.contains("first divergent window"), "{err}");
    // A clean run diffed against itself reports nothing.
    clip_sim::fingerprint::compare(&clean, &clean).expect("self-comparison is clean");
}

#[test]
fn watchdog_tolerates_slow_but_live_configurations() {
    // False-positive regression: the slowest known-good configuration —
    // bandwidth-starved streaming with a prefetcher multiplying traffic —
    // stalls individual cores for long stretches but always makes *some*
    // global progress. Under full checks and a tight audit cadence the
    // default watchdog window must not fire.
    let c = SimConfig::builder()
        .cores(8)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let m = Mix::homogeneous(
        &catalog::by_name("619.lbm_s-4268B").expect("known workload"),
        8,
    );
    let opts = RunOptions {
        warmup_instrs: 500,
        sim_instrs: 3_000,
        seed: 7,
        noc: NocChoice::Analytic,
        check: Some(CheckLevel::Full),
        check_cadence: 16,
        ..RunOptions::default()
    };
    let r = run_mix_checked(&c, &Scheme::plain(), &m, &opts)
        .expect("a slow but live run must not trip the watchdog");
    assert!(r.mean_ipc() > 0.0);
    assert!(!r.fingerprints.is_empty());
}

#[test]
fn fault_injection_is_deterministic_serial_vs_parallel() {
    let opts = faulted(FaultKind::SwallowDramCompletion, 1_000, NocChoice::Analytic);
    let c = cfg(4);
    let m = mix(4);

    let serial_a = run_mix_checked(&c, &Scheme::plain(), &m, &opts).unwrap_err();
    let serial_b = run_mix_checked(&c, &Scheme::plain(), &m, &opts).unwrap_err();
    assert_eq!(serial_a, serial_b, "same seed must kill the same victim");

    std::env::set_var("CLIP_THREADS", "2");
    let jobs: Vec<SweepJob> = (0..2)
        .map(|_| SweepJob {
            cfg: c.clone(),
            scheme: Scheme::plain(),
            mix: m.clone(),
        })
        .collect();
    for outcome in run_jobs_checked(&jobs, &opts, |_, r| r) {
        assert_eq!(outcome.unwrap_err(), serial_a, "parallel must match serial");
    }
}

#[test]
fn failing_job_leaves_other_jobs_byte_identical() {
    let good_cfg = cfg(4);
    let good_mix = mix(4);
    let opts = RunOptions {
        warmup_instrs: 500,
        sim_instrs: 3_000,
        seed: 7,
        noc: NocChoice::Analytic,
        check: Some(CheckLevel::Cheap),
        ..RunOptions::default()
    };

    // The clean reference: each good job run serially on its own.
    let reference = run_mix_checked(&good_cfg, &Scheme::plain(), &good_mix, &opts)
        .expect("clean run succeeds")
        .to_json()
        .render();

    // Middle job panics in System::new (mix does not match core count).
    let jobs = vec![
        SweepJob {
            cfg: good_cfg.clone(),
            scheme: Scheme::plain(),
            mix: good_mix.clone(),
        },
        SweepJob {
            cfg: good_cfg.clone(),
            scheme: Scheme::plain(),
            mix: mix(2),
        },
        SweepJob {
            cfg: good_cfg.clone(),
            scheme: Scheme::plain(),
            mix: good_mix.clone(),
        },
    ];
    let outcomes = run_jobs_checked(&jobs, &opts, |_, r| r);
    assert_eq!(outcomes.len(), 3);

    let bad = outcomes[1].as_ref().expect_err("mismatched mix must fail");
    assert_eq!(bad.kind, SimErrorKind::Panic);
    assert!(bad.detail.contains("mix must match core count"), "{bad}");

    for i in [0usize, 2] {
        let r = outcomes[i].as_ref().expect("good job survives");
        assert_eq!(
            r.to_json().render(),
            reference,
            "job {i} must be byte-identical to the clean serial run"
        );
    }
}
