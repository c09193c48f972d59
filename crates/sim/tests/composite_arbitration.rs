//! Composite-ensemble arbitration tests: CLIP as an arbiter *between*
//! prefetch engines rather than a gate on one stream.
//!
//! Covers the three contracts the ensemble adds on top of the single-
//! engine path: (1) per-engine accuracy tracked in the utility buffer
//! measurably starves a deliberately inaccurate engine, (2) full-check
//! runs hold per-engine pf-queue conservation and surface per-engine
//! counters in the report/JSON artifact, (3) Composite results are
//! byte-identical serial vs `CLIP_THREADS=2`.

use clip_core::{Clip, ClipConfig};
use clip_prefetch::{AccessInfo, Composite, Prefetcher, COMPOSITE_ENGINES, MAX_ALLOWED_DEGREE};
use clip_sim::{run_jobs_checked, run_mix_checked, CheckLevel, RunOptions, Scheme, SweepJob};
use clip_trace::Mix;
use clip_types::{Addr, Ip, LineAddr, PrefetcherKind, SimConfig};

fn composite_cfg() -> SimConfig {
    SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Composite)
        .build()
        .expect("valid config")
}

fn mix() -> Mix {
    Mix::homogeneous(
        &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
        4,
    )
}

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 400,
        sim_instrs: 2_000,
        seed: 11,
        check: Some(CheckLevel::Full),
        check_cadence: 64,
        ..RunOptions::default()
    }
}

/// The regression the tentpole exists for, end to end across the core
/// and prefetch crates: a 3-engine CLIP watches one engine issue junk
/// (its prefetches never demand-hit) while another stays accurate. The
/// windowed per-engine accuracy must demote the junk engine, and pushing
/// the resulting levels into a real [`Composite`] — exactly what the
/// tile does at each window boundary — must measurably shrink that
/// engine's share of admitted candidates without starving the others.
/// Engine 0 (Berti) plays the junk role because it proposes first and
/// so dominates the shared degree budget — the demotion has to claw
/// real bandwidth back, not trim an engine that was already starved.
#[test]
fn clip_arbitration_starves_the_deliberately_inaccurate_engine() {
    // Accuracy-only CLIP (criticality off isolates the arbitration
    // path): engine 2 is vindicated on every issue, engine 0 never is.
    let cfg = ClipConfig {
        use_criticality_stage: false,
        engines: COMPOSITE_ENGINES,
        ..ClipConfig::default()
    };
    let mut clip = Clip::new(cfg.clone());
    let mut line = 1_000u64;
    for _window in 0..3 {
        for _ in 0..40 {
            line += 1;
            let good = LineAddr::new(line);
            if clip
                .filter_prefetch_tagged(good, Ip::new(0xA00), 2)
                .allows()
            {
                clip.on_demand_access(good);
            }
            line += 1;
            let junk = LineAddr::new(line);
            let _ = clip.filter_prefetch_tagged(junk, Ip::new(0xB00), 0);
        }
        for _ in 0..cfg.exploration_window {
            clip.on_l1_miss();
        }
    }
    let levels = clip.engine_levels();
    assert_eq!(levels[2], 5, "the accurate engine keeps full aggression");
    assert!(levels[0] < 5, "the junk engine must be demoted: {levels:?}");

    // Replay the identical access stream through an unarbitrated and an
    // arbitrated ensemble; only the demoted engine's share may shrink.
    let drive = |pf: &mut Composite| {
        let mut out = Vec::new();
        for i in 0..400u64 {
            out.clear();
            pf.on_access(
                &AccessInfo {
                    ip: Ip::new(0x400),
                    addr: Addr::new(0x20_0000 + i * 64),
                    hit: false,
                    is_store: false,
                    cycle: i * 20,
                },
                &mut out,
            );
            assert!(out.len() <= MAX_ALLOWED_DEGREE);
            for c in &out {
                pf.on_fill(c.line, i * 20 + 80);
            }
        }
    };
    let mut free = Composite::new();
    drive(&mut free);
    let baseline = free.issued_per_engine();

    let mut arbitrated = Composite::new();
    arbitrated.set_engine_levels(&levels[..COMPOSITE_ENGINES]);
    drive(&mut arbitrated);
    let after = arbitrated.issued_per_engine();

    let share =
        |v: [u64; COMPOSITE_ENGINES], e: usize| v[e] as f64 / v.iter().sum::<u64>().max(1) as f64;
    assert!(
        baseline[0] > 0,
        "the junk engine must contribute unarbitrated: {baseline:?}"
    );
    assert!(
        after[0] < baseline[0] && share(after, 0) < share(baseline, 0),
        "arbitration must reduce the demoted engine's issue share: {after:?} vs {baseline:?}"
    );
    assert!(
        after[1] + after[2] >= baseline[1] + baseline[2],
        "the accurate engines must not lose budget: {after:?} vs {baseline:?}"
    );
}

/// Composite + CLIP under full checks: the per-engine pf-queue
/// conservation auditor runs at every cadence window (a violated
/// `queued == dequeued + present` balance for any engine fails the
/// run), the report aggregates per-engine issue counters across tiles,
/// and the JSON artifact carries them under the `"engines"` key —
/// single-engine reports must stay byte-identical (no key at all).
#[test]
fn full_checks_hold_per_engine_conservation_and_report_counters() {
    let r = run_mix_checked(&composite_cfg(), &Scheme::with_clip(), &mix(), &opts())
        .expect("composite run must pass full-check auditing");
    let clip = r.clip.as_ref().expect("clip report present");
    assert_eq!(clip.num_engines, COMPOSITE_ENGINES);
    let issued: u64 = clip.engines.iter().map(|e| e.issued).sum();
    assert!(issued > 0, "per-engine issue counters must accumulate");
    for e in clip.engines.iter().take(COMPOSITE_ENGINES) {
        assert!(
            (1..=5).contains(&e.min_level),
            "levels stay in band: {:?}",
            clip.engines
        );
    }
    let json = r.to_json().render();
    assert!(
        json.contains("\"engines\""),
        "the artifact must carry the per-engine counters"
    );

    // A Berti run through the same path must not grow the key.
    let berti = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let r1 = run_mix_checked(&berti, &Scheme::with_clip(), &mix(), &opts())
        .expect("single-engine run stays clean");
    assert_eq!(r1.clip.as_ref().expect("clip report").num_engines, 0);
    assert!(
        !r1.to_json().render().contains("\"engines\""),
        "single-engine artifacts must stay byte-identical"
    );
}

/// The parallel driver must return exactly what the serial loop returns
/// for the ensemble: per-engine accounting lives inside each job, so
/// thread scheduling may not leak into results or fingerprint streams.
#[test]
fn composite_is_byte_identical_serial_vs_two_threads() {
    let jobs: Vec<SweepJob> = [Scheme::plain(), Scheme::with_clip()]
        .into_iter()
        .map(|scheme| SweepJob {
            cfg: composite_cfg(),
            scheme,
            mix: mix(),
        })
        .collect();
    let serial = run_jobs_checked(&jobs, &opts(), |_, r| r);
    std::env::set_var("CLIP_THREADS", "2");
    let parallel = run_jobs_checked(&jobs, &opts(), |_, r| r);
    std::env::remove_var("CLIP_THREADS");
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (s, p) = (
            s.as_ref().expect("clean run"),
            p.as_ref().expect("clean run"),
        );
        assert_eq!(
            s.to_json().render(),
            p.to_json().render(),
            "job {i}: serialized result"
        );
        assert_eq!(
            s.fingerprints, p.fingerprints,
            "job {i}: fingerprint stream"
        );
    }
}
