//! Disk-cache / fingerprint-baseline interaction, end to end through the
//! executor. Lives in its own integration-test binary (one test, own
//! process) because it mutates `CLIP_CACHE_DIR` / `CLIP_FP_DIR` /
//! `CLIP_FP_BASELINE` for the whole process.
//!
//! The gap being pinned: disk-cache hits carry no fingerprint stream, so
//! before the bypass a cached job silently skipped the record/verify
//! step — `CLIP_FP_BASELINE=record` recorded nothing and `verify` went
//! green while checking nothing. The executor must bypass the disk cache
//! for exactly the jobs a baseline mode is active for.

use clip_bench::experiment::{
    clear_result_cache, execute_experiment, CellSpec, Experiment, Normalization, Render, RowSpec,
};
use clip_sim::{CheckLevel, NocChoice, RunOptions, Scheme};
use clip_trace::Mix;
use clip_types::SimConfig;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("clip-fp-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// A disk-cacheable experiment: plain scheme, no prefetchers — exactly
/// the no-prefetch normalization baselines the cache exists for.
fn cacheable_experiment() -> Experiment {
    let cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .build()
        .expect("valid config");
    let workload = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
    Experiment {
        name: "fp-cache-gate".to_string(),
        title: "# Disk cache vs fingerprint baselines".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows: vec![RowSpec {
            labels: vec!["plain".to_string()],
            extra: Vec::new(),
            mixes: vec![Mix::homogeneous(&workload, 4)],
            cells: vec![CellSpec {
                cfg,
                scheme: Scheme::plain(),
            }],
        }],
        opts: RunOptions {
            warmup_instrs: 500,
            sim_instrs: 3_000,
            seed: 11,
            noc: NocChoice::Analytic,
            check: Some(CheckLevel::Full),
            check_cadence: 16,
            ..RunOptions::default()
        },
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

fn entry_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.count())
}

#[test]
fn baseline_modes_bypass_the_disk_cache() {
    let cache_dir = temp_dir("cache");
    let fp_dir = temp_dir("fp");
    std::env::set_var("CLIP_CACHE_DIR", &cache_dir);
    std::env::set_var("CLIP_FP_DIR", &fp_dir);
    let exp = cacheable_experiment();

    // Populate the disk cache with a baseline-mode-off run.
    std::env::remove_var("CLIP_FP_BASELINE");
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp);
    assert!(
        artifact.get("errors").is_none(),
        "seed run is clean: {text}"
    );
    assert!(
        entry_count(&cache_dir) > 0,
        "a plain no-prefetch job must be disk-cached"
    );
    assert_eq!(entry_count(&fp_dir), 0, "mode off records nothing");

    // `record` must re-simulate despite the warm disk cache: a cache hit
    // carries no fingerprint stream and would record nothing.
    std::env::set_var("CLIP_FP_BASELINE", "record");
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp);
    assert!(
        artifact.get("errors").is_none(),
        "record run is clean: {text}"
    );
    assert!(
        entry_count(&fp_dir) > 0,
        "record must capture baselines even when every job disk-cache-hits"
    );

    // `verify` re-simulates too and verifies clean against the baseline
    // just recorded — instead of serving the unverifiable cache hit.
    std::env::set_var("CLIP_FP_BASELINE", "verify");
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp);
    assert!(
        artifact.get("errors").is_none(),
        "verify passes against the recorded baseline: {text}"
    );

    // `verify` against an empty store fails loudly: every job has a
    // baseline to miss, so every cell is an internal error, not a
    // silently unverified pass.
    let empty = temp_dir("fp-empty");
    std::env::set_var("CLIP_FP_DIR", &empty);
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp);
    std::env::remove_var("CLIP_FP_BASELINE");
    std::env::remove_var("CLIP_FP_DIR");
    std::env::remove_var("CLIP_CACHE_DIR");
    let errors = artifact
        .get("errors")
        .and_then(|v| v.as_array())
        .expect("verify with no baselines must surface errors");
    assert!(!errors.is_empty(), "{text}");
    for e in errors {
        assert_eq!(
            e.get("kind").and_then(|v| v.as_str()),
            Some("internal error")
        );
        assert!(
            e.get("detail")
                .and_then(|v| v.as_str())
                .is_some_and(|d| d.contains("no baseline is recorded")),
            "error names the missing baseline"
        );
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&fp_dir);
    let _ = std::fs::remove_dir_all(&empty);
}
