//! Resuming an interrupted sweep is re-running it with the result cache
//! on, end to end through the executor: a sweep interrupted mid-flight
//! (here simulated with an already-exhausted `CLIP_SWEEP_BUDGET_MS=0`
//! budget and a cache with holes) marks the artifact partial and renders
//! unstarted cells as `PEND`; re-running with the budget lifted serves
//! the cached cells, simulates only the missing ones, and produces
//! output **byte-identical** to an uninterrupted run. A damaged entry is
//! quarantined and re-simulated, never trusted. Every step pins the
//! exact cache traffic, so a cell that silently re-simulated (or never
//! reached the disk) fails here.
//!
//! Env-mutating (`CLIP_CACHE*`, `CLIP_SWEEP_BUDGET_MS`) and reading the
//! process-wide cache counters, so this lives in its own integration
//! binary with a single `#[test]`.

use clip_bench::experiment::{clear_result_cache, execute_experiment, CellSpec, Experiment};
use clip_bench::experiment::{Normalization, Render, RowSpec};
use clip_bench::{cache_stats, CacheStats};
use clip_sim::{NocChoice, RunOptions, Scheme};
use clip_stats::Json;
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};
use std::path::{Path, PathBuf};

fn experiment() -> Experiment {
    let cfg = SimConfig::builder()
        .cores(2)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let rows = ["605.mcf_s-1554B", "619.lbm_s-4268B"]
        .iter()
        .map(|name| {
            let workload = clip_trace::catalog::by_name(name).expect("known workload");
            RowSpec {
                labels: vec![name.to_string()],
                extra: Vec::new(),
                mixes: vec![Mix::homogeneous(&workload, 2)],
                cells: vec![CellSpec {
                    cfg: cfg.clone(),
                    scheme: Scheme::plain(),
                }],
            }
        })
        .collect();
    Experiment {
        name: "cache-resume".to_string(),
        title: "# Cache resume".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows,
        opts: RunOptions {
            warmup_instrs: 100,
            sim_instrs: 500,
            seed: 5,
            noc: NocChoice::Analytic,
            ..RunOptions::default()
        },
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

/// Runs the sweep from a cold in-process memo and returns its output
/// plus the cache traffic it caused.
fn sweep(exp: &Experiment) -> (String, Json, CacheStats) {
    clear_result_cache();
    let before = cache_stats();
    let (text, artifact) = execute_experiment(exp);
    let after = cache_stats();
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        stores: after.stores - before.stores,
        evictions: after.evictions - before.evictions,
    };
    (text, artifact, delta)
}

fn traffic(hits: u64, misses: u64, stores: u64) -> CacheStats {
    CacheStats {
        hits,
        misses,
        stores,
        evictions: 0,
    }
}

#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let dir = std::env::temp_dir().join(format!("clip-cache-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CLIP_CACHE_DIR", &dir);

    let exp = experiment();

    // Reference: an uninterrupted sweep with the cache off, which
    // neither reads nor writes it.
    std::env::set_var("CLIP_CACHE", "0");
    let (ref_text, ref_artifact, delta) = sweep(&exp);
    let ref_artifact = ref_artifact.render();
    assert_eq!(delta, traffic(0, 0, 0), "a disabled cache sees no traffic");
    assert!(
        cache_entries(&dir).is_empty(),
        "with CLIP_CACHE=0 the cache directory stays untouched"
    );

    // Record: identical output, one entry per completed job (two cell
    // jobs + two no-prefetch baselines), each a miss first.
    std::env::remove_var("CLIP_CACHE");
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(text, ref_text, "caching must not perturb the sweep");
    assert_eq!(artifact.render(), ref_artifact);
    assert_eq!(delta, traffic(0, 4, 4), "every completed job is stored");
    let recorded = cache_entries(&dir);
    assert_eq!(recorded.len(), 4);

    // Re-run a complete sweep under an exhausted sweep budget: every
    // cell is a cache hit, nothing simulates, nothing pends.
    std::env::set_var("CLIP_SWEEP_BUDGET_MS", "0");
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(
        text, ref_text,
        "a full cache replays the whole sweep without simulating"
    );
    assert_eq!(artifact.render(), ref_artifact);
    assert_eq!(delta, traffic(4, 0, 0), "served from disk, never stored");

    // Punch holes: delete every other entry, keep the budget exhausted.
    // The surviving cells hit; the holes cannot be dispatched and
    // render PEND in a partial artifact.
    for p in recorded.iter().step_by(2) {
        std::fs::remove_file(p).expect("delete cache entry");
    }
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(delta, traffic(2, 2, 0), "holes miss and never simulate");
    assert!(text.contains("PEND"), "unstarted cells render PEND: {text}");
    let partial = artifact
        .get("partial")
        .expect("interrupted sweep is partial");
    assert_eq!(partial.render(), "true");
    for e in artifact
        .get("errors")
        .and_then(|v| v.as_array())
        .expect("cancelled cells are recorded as errors")
    {
        assert_eq!(e.get("kind").and_then(|v| v.as_str()), Some("cancelled"));
        let detail = e.get("detail").and_then(|v| v.as_str()).unwrap_or("");
        assert!(detail.contains("CLIP_SWEEP_BUDGET_MS"), "{detail}");
    }

    // Lift the budget and re-run: the holes simulate, everything else
    // hits, and the final output is byte-identical to the reference.
    std::env::remove_var("CLIP_SWEEP_BUDGET_MS");
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(text, ref_text, "resumed sweep matches the reference");
    assert_eq!(
        artifact.render(),
        ref_artifact,
        "resumed artifact is byte-identical to an uninterrupted run"
    );
    assert_eq!(delta, traffic(2, 2, 2), "only the holes simulate");
    assert_eq!(cache_entries(&dir).len(), 4, "the re-run refills the holes");

    // Damage an entry: the re-run quarantines it and re-simulates that
    // cell, still converging on the identical output.
    let victim = &cache_entries(&dir)[0];
    let entry = std::fs::read_to_string(victim).expect("entry exists");
    std::fs::write(victim, &entry[..entry.len() / 2]).expect("truncate entry");
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(text, ref_text, "a damaged entry never poisons the sweep");
    assert_eq!(artifact.render(), ref_artifact);
    assert_eq!(delta, traffic(3, 1, 1), "only the damaged cell simulates");
    let quarantined: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "corrupt"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the damaged entry is moved aside");

    std::env::remove_var("CLIP_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
