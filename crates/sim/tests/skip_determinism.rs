//! Event-wheel skip-ahead equivalence: the wheel scheduler must be an
//! invisible optimization. Every run — clean or faulted, serial or
//! parallel, any scheme — must produce **byte-identical** results and
//! fingerprint streams whether the loop skips quiescent stretches or
//! grinds through them cycle by cycle (`CLIP_TICK=step`, here forced via
//! `set_step_override` so the suite is hermetic against the environment).
//!
//! Faulted runs are the sharpest probe: fault arm cycles are wheel
//! constraints, so a skip that jumped past an arm cycle — or perturbed
//! the seeded retry RNG — would change which transaction the fault
//! selects and diverge instantly. All eight kinds are covered.

use clip_sim::{
    run_jobs_checked, set_step_override, CheckLevel, FaultKind, FaultSpec, NocChoice, RunOptions,
    Scheme, SimError, SimResult, SweepJob,
};
use clip_trace::Mix;
use clip_types::{DramKind, PrefetcherKind, SimConfig};

fn cfg(pf: PrefetcherKind) -> SimConfig {
    SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(pf)
        .build()
        .expect("valid config")
}

fn mix(name: &str) -> Mix {
    Mix::homogeneous(
        &clip_trace::catalog::by_name(name).expect("known workload"),
        4,
    )
}

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 400,
        sim_instrs: 2_000,
        seed: 11,
        timeline_interval: 1_000,
        // Full checks: the densest possible fingerprint streams, plus
        // audits at every cadence window — a skip landing anywhere it
        // shouldn't desynchronizes the streams immediately.
        check: Some(CheckLevel::Full),
        check_cadence: 256,
        ..RunOptions::default()
    }
}

type Outcomes = Vec<Result<SimResult, SimError>>;

/// Runs the same batch once on the event wheel and once forced to
/// cycle-by-cycle stepping, returning both outcome vectors.
fn wheel_and_step(jobs: &[SweepJob], opts: &RunOptions) -> (Outcomes, Outcomes) {
    set_step_override(Some(false));
    let wheel = run_jobs_checked(jobs, opts, |_, r| r);
    set_step_override(Some(true));
    let step = run_jobs_checked(jobs, opts, |_, r| r);
    set_step_override(None);
    (wheel, step)
}

/// Byte-for-byte equivalence: the serialized result (every counter,
/// report, and timeline point), the fingerprint stream (excluded from
/// the JSON form), and failures (same error, same cycle, same component).
fn assert_outcome_identical(
    wheel: &Result<SimResult, SimError>,
    step: &Result<SimResult, SimError>,
    what: &str,
) {
    match (wheel, step) {
        (Ok(w), Ok(s)) => {
            assert_eq!(
                w.to_json().render(),
                s.to_json().render(),
                "{what}: serialized result"
            );
            assert_eq!(w.fingerprints, s.fingerprints, "{what}: fingerprint stream");
        }
        (Err(w), Err(s)) => assert_eq!(w, s, "{what}: error"),
        (w, s) => panic!(
            "{what}: wheel and step disagree on success: wheel={:?} step={:?}",
            w.as_ref().map(|r| r.cycles),
            s.as_ref().map(|r| r.cycles),
        ),
    }
}

fn assert_batch_identical(jobs: &[SweepJob], opts: &RunOptions, what: &str) {
    let (wheel, step) = wheel_and_step(jobs, opts);
    assert_eq!(wheel.len(), step.len());
    for (i, (w, s)) in wheel.iter().zip(&step).enumerate() {
        assert_outcome_identical(w, s, &format!("{what}, job {i}"));
    }
}

/// One configuration per scheme family: plain, static CLIP, dynamic
/// CLIP, a throttler baseline, a criticality-gate baseline, Hermes, and
/// DSPatch. Each family drives a different uncore arbitration path, so
/// each can diverge independently under a bad skip.
#[test]
fn wheel_matches_step_across_scheme_families() {
    let schemes: Vec<(&str, Scheme)> = vec![
        ("plain", Scheme::plain()),
        ("clip", Scheme::with_clip()),
        ("dynamic-clip", Scheme::with_dynamic_clip()),
        (
            "fdp",
            Scheme::with_throttler(clip_throttle::ThrottlerKind::Fdp),
        ),
        (
            "crit-gate",
            Scheme::with_crit_gate(clip_crit::BaselineKind::Fp),
        ),
        ("hermes", Scheme::with_hermes()),
        ("dspatch", Scheme::with_dspatch()),
    ];
    let m = mix("605.mcf_s-1554B");
    for (name, scheme) in schemes {
        let jobs = [SweepJob {
            cfg: cfg(PrefetcherKind::Berti),
            scheme,
            mix: m.clone(),
        }];
        assert_batch_identical(&jobs, &opts(), name);
    }
}

/// The composite ensemble, plain and CLIP-arbitrated: per-engine level
/// recomputation happens at exploration-window boundaries, so a skip
/// that misplaced a window edge would shift every later arbitration
/// decision and diverge the streams.
#[test]
fn wheel_matches_step_on_the_composite_ensemble() {
    let m = mix("605.mcf_s-1554B");
    for (name, scheme) in [
        ("composite", Scheme::plain()),
        ("composite-clip", Scheme::with_clip()),
    ] {
        let jobs = [SweepJob {
            cfg: cfg(PrefetcherKind::Composite),
            scheme,
            mix: m.clone(),
        }];
        assert_batch_identical(&jobs, &opts(), name);
    }
}

/// A second workload with a different memory profile, on the mesh NoC
/// (the scheme sweep above uses the default choice): lbm streams where
/// mcf pointer-chases, exercising long DRAM-bound quiescent stretches.
#[test]
fn wheel_matches_step_on_a_streaming_workload() {
    let jobs = [SweepJob {
        cfg: cfg(PrefetcherKind::IpStride),
        scheme: Scheme::with_clip(),
        mix: mix("619.lbm_s-4268B"),
    }];
    assert_batch_identical(&jobs, &opts(), "lbm/stride");
}

/// All eight fault kinds: the armed cycle is a wheel constraint and the
/// fault selector draws from a seeded RNG on every retry, so the wheel
/// must simulate — not skip — every cycle the harness might act on.
/// Equivalence here covers the error path too: an audit or watchdog
/// failure must name the same cycle and component under both schedulers.
#[test]
fn wheel_matches_step_under_every_fault_kind() {
    let kinds = [
        FaultKind::DropFlit,
        FaultKind::SwallowDramCompletion,
        FaultKind::LeakLlcMshr,
        FaultKind::LoseDelivery,
        FaultKind::FlipCriticality,
        FaultKind::DuplicateDelivery,
        FaultKind::CorruptPrefetchAddr,
        FaultKind::StaleRetire,
    ];
    let m = mix("605.mcf_s-1554B");
    for kind in kinds {
        let jobs = [SweepJob {
            cfg: cfg(PrefetcherKind::Berti),
            scheme: Scheme::with_clip(),
            mix: m.clone(),
        }];
        let o = RunOptions {
            fault: Some(FaultSpec { kind, at: 1_000 }),
            ..opts()
        };
        assert_batch_identical(&jobs, &o, &format!("fault {kind:?}"));
    }
}

/// The parallel driver resolves the step mode once and pins it onto
/// every worker thread; a batch split across two workers must still be
/// byte-identical between schedulers. The only test that touches
/// `CLIP_THREADS`.
#[test]
fn wheel_matches_step_across_two_worker_threads() {
    std::env::set_var("CLIP_THREADS", "2");
    let m = mix("605.mcf_s-1554B");
    let jobs: Vec<SweepJob> = [Scheme::plain(), Scheme::with_clip(), Scheme::with_dspatch()]
        .into_iter()
        .map(|scheme| SweepJob {
            cfg: cfg(PrefetcherKind::Berti),
            scheme,
            mix: m.clone(),
        })
        .collect();
    assert_batch_identical(&jobs, &opts(), "two threads");
    std::env::remove_var("CLIP_THREADS");
}

/// The two pluggable backends added behind the `NocModel`/`DramModel`
/// traits honour the same invisibility contract: a chiplet fabric run
/// (with a die-to-die crossing in play) and an HBM memory run must each
/// be byte-identical between the wheel and cycle-by-cycle stepping. The
/// chiplet row exercises `next_activity` on the d2d ports; the HBM row
/// exercises per-bank rolling refresh as a skip constraint.
#[test]
fn wheel_matches_step_on_chiplet_and_hbm_backends() {
    let m = mix("605.mcf_s-1554B");

    // Chiplet fabric: 4 cores split 2 + 2 across two dies.
    let chiplet_cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .chiplet_cluster(2)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let jobs = [SweepJob {
        cfg: chiplet_cfg,
        scheme: Scheme::with_clip(),
        mix: m.clone(),
    }];
    let o = RunOptions {
        noc: NocChoice::Chiplet,
        ..opts()
    };
    assert_batch_identical(&jobs, &o, "chiplet fabric");

    // HBM memory backend, refresh enabled so the rolling per-bank
    // refresh schedule constrains the wheel.
    let hbm_cfg = SimConfig::builder()
        .cores(4)
        .dram_backend(DramKind::Hbm)
        .dram_channels(2)
        .dram_refresh(true)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let jobs = [SweepJob {
        cfg: hbm_cfg,
        scheme: Scheme::with_clip(),
        mix: m,
    }];
    assert_batch_identical(&jobs, &opts(), "hbm dram");
}

/// Dense shapes, where most tiles sleep behind a full L1 MSHR file while
/// the uncore stays busy: a 16-core heterogeneous mix on one DDR4 channel
/// (Berti + CLIP, the paper's bandwidth-constrained point, on the
/// analytic fabric like the `dense-16c` benchmark workload) and a short
/// 8-core run on the flit-level mesh. The wheel ticks only the tiles
/// that are due and settles the rest in bulk, every cycle; both must
/// match stepping byte for byte, fingerprint streams included.
#[test]
fn wheel_matches_step_on_dense_shapes_with_sleeping_tiles() {
    let dense = |cores: usize| {
        SimConfig::builder()
            .cores(cores)
            .dram_channels(1)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config")
    };
    let jobs = [SweepJob {
        cfg: dense(16),
        scheme: Scheme::with_clip(),
        mix: clip_trace::heterogeneous_mixes(1, 16, 3).remove(0),
    }];
    let o = RunOptions {
        warmup_instrs: 200,
        sim_instrs: 800,
        noc: NocChoice::Analytic,
        ..opts()
    };
    assert_batch_identical(&jobs, &o, "16 cores, one channel");

    let jobs = [SweepJob {
        cfg: dense(8),
        scheme: Scheme::with_clip(),
        mix: clip_trace::heterogeneous_mixes(1, 8, 4).remove(0),
    }];
    let o = RunOptions {
        warmup_instrs: 100,
        sim_instrs: 500,
        noc: NocChoice::Mesh,
        ..opts()
    };
    assert_batch_identical(&jobs, &o, "8 cores, mesh");
}

/// L2-attached prefetchers (SPP-PPF with CLIP gating at the L2, Bingo)
/// train on the L2 lookup event and queue their candidates from there,
/// so an L2 lookup must wake a sleeping tile; every row above attaches
/// its prefetcher at the L1.
#[test]
fn wheel_matches_step_with_l2_prefetchers() {
    for (name, pf, scheme) in [
        ("spp-ppf+clip", PrefetcherKind::SppPpf, Scheme::with_clip()),
        ("bingo", PrefetcherKind::Bingo, Scheme::plain()),
    ] {
        let jobs = [SweepJob {
            cfg: SimConfig::builder()
                .cores(4)
                .dram_channels(1)
                .l2_prefetcher(pf)
                .build()
                .expect("valid config"),
            scheme,
            mix: mix("603.bwaves_s-1740B"),
        }];
        assert_batch_identical(&jobs, &opts(), name);
    }
}

/// Skipping a quiescent stretch advances the clock without advancing the
/// progress signature — exactly what the watchdog calls a deadlock when
/// work is in flight. The wheel must never let skipped-over idle time
/// accumulate into a false deadlock verdict: a clean bandwidth-starved
/// run (one DRAM channel, pointer-chasing cores, long stalls) with a
/// watchdog window *smaller than the run length* must complete under
/// both schedulers.
#[test]
fn skip_ahead_triggers_no_false_deadlock() {
    let jobs = [SweepJob {
        cfg: cfg(PrefetcherKind::None),
        scheme: Scheme::plain(),
        mix: mix("605.mcf_s-1554B"),
    }];
    let o = RunOptions {
        watchdog_window: 20_000,
        ..opts()
    };
    let (wheel, step) = wheel_and_step(&jobs, &o);
    assert!(
        wheel[0].is_ok(),
        "wheel run must not trip the watchdog: {:?}",
        wheel[0].as_ref().err()
    );
    assert_outcome_identical(&wheel[0], &step[0], "tight watchdog");
}
