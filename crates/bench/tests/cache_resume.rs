//! Resuming an interrupted sweep is re-running it with the result cache
//! on, end to end through the executor: each cell is stored as it
//! finishes, so a sweep killed mid-flight leaves every completed cell on
//! disk (simulated here by deleting entries); re-running it serves the
//! cached cells, simulates only the missing ones, and produces output
//! **byte-identical** to an uninterrupted run. A damaged entry is
//! quarantined and re-simulated, never trusted. Every step pins the
//! exact cache traffic, so a cell that silently re-simulated (or never
//! reached the disk) fails here.
//!
//! Env-mutating (`CLIP_CACHE*`, `CLIP_THREADS`) and reading the
//! process-wide cache counters, so this lives in its own integration
//! binary with a single `#[test]`.

use clip_bench::experiment::{clear_result_cache, execute_experiment, CellSpec, Experiment};
use clip_bench::experiment::{ExperimentData, Normalization, Render, RowSpec, TableBody};
use clip_bench::{cache_stats, CacheStats};
use clip_sim::{NocChoice, RunOptions, Scheme};
use clip_stats::Json;
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn opts() -> RunOptions {
    RunOptions {
        warmup_instrs: 100,
        sim_instrs: 500,
        seed: 5,
        noc: NocChoice::Analytic,
        ..RunOptions::default()
    }
}

/// One single-cell row: `cores` copies of workload `name` on a
/// one-channel Berti platform of that size.
fn row(name: &str, cores: usize) -> RowSpec {
    let cfg = SimConfig::builder()
        .cores(cores)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let workload = clip_trace::catalog::by_name(name).expect("known workload");
    RowSpec {
        labels: vec![name.to_string()],
        extra: Vec::new(),
        mixes: vec![Mix::homogeneous(&workload, cores)],
        cells: vec![CellSpec {
            cfg,
            scheme: Scheme::plain(),
        }],
    }
}

fn experiment() -> Experiment {
    Experiment {
        name: "cache-resume".to_string(),
        title: "# Cache resume".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows: vec![row("605.mcf_s-1554B", 2), row("619.lbm_s-4268B", 2)],
        opts: opts(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

/// Raw IPC per row: the table of a spec without normalization baselines.
fn ipc_table(d: &ExperimentData) -> TableBody {
    TableBody {
        rows: (0..d.rows())
            .map(|r| {
                let mut cells = d.spec.rows[r].labels.clone();
                cells.push(clip_bench::fmt(d.result(r, 0, 0).mean_ipc()));
                cells
            })
            .collect(),
        notes: Vec::new(),
    }
}

/// A short cell, then one many times longer, with no baseline runs: on
/// one worker thread the short cell finishes long before the batch does.
fn short_then_long() -> Experiment {
    Experiment {
        name: "cache-store-on-finish".to_string(),
        title: "# Store on finish".to_string(),
        columns: vec!["mix".to_string(), "ipc".to_string()],
        rows: vec![row("602.gcc_s-734B", 1), row("605.mcf_s-1554B", 16)],
        opts: opts(),
        normalization: Normalization::None,
        render: Render::Table(ipc_table),
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
    (text, artifact, traffic_since(before))
}

/// The cache traffic since the `before` snapshot.
fn traffic_since(before: CacheStats) -> CacheStats {
    let after = cache_stats();
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        stores: after.stores - before.stores,
        evictions: after.evictions - before.evictions,
    }
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

    // Replay a complete sweep: every cell is a cache hit and nothing
    // simulates.
    let (text, artifact, delta) = sweep(&exp);
    assert_eq!(
        text, ref_text,
        "a full cache replays the whole sweep without simulating"
    );
    assert_eq!(artifact.render(), ref_artifact);
    assert_eq!(delta, traffic(4, 0, 0), "served from disk, never stored");

    // Punch holes, as a sweep killed mid-flight leaves them, and re-run:
    // the holes simulate, everything else hits, and the final output is
    // byte-identical to the reference.
    for p in recorded.iter().step_by(2) {
        std::fs::remove_file(p).expect("delete cache entry");
    }
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

    // Each cell is stored the moment it finishes, not when its batch
    // returns: on one worker thread the short cell's entry is on disk
    // before half the sweep has elapsed, while the long cell is still
    // simulating. A sweep killed at that point keeps the short cell. The
    // bound is relative to the sweep's own wall time, so it holds in
    // debug and release builds alike.
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CLIP_THREADS", "1");
    let before = cache_stats();
    let exp = short_then_long();
    let started = Instant::now();
    let worker = std::thread::spawn(move || {
        let out = execute_experiment(&exp);
        (out, Instant::now())
    });
    let mut short_stored: Option<Instant> = None;
    while short_stored.is_none() && !worker.is_finished() {
        let stored = cache_entries(&dir).iter().any(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("602.gcc_s-734B-"))
        });
        if stored {
            short_stored = Some(Instant::now());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let ((text, artifact), returned) = worker.join().expect("sweep thread");
    std::env::remove_var("CLIP_THREADS");
    assert!(artifact.get("errors").is_none(), "clean sweep: {text}");
    assert_eq!(traffic_since(before), traffic(0, 2, 2), "both cells stored");
    assert_eq!(cache_entries(&dir).len(), 2);
    let elapsed = returned - started;
    let short_stored = short_stored.unwrap_or_else(|| {
        panic!("the short cell's entry did not appear before the {elapsed:?} sweep returned")
    });
    let landed = short_stored - started;
    assert!(
        landed < elapsed / 2,
        "the short cell's entry landed {landed:?} into a {elapsed:?} sweep, \
         not before half of it had elapsed"
    );

    std::env::remove_var("CLIP_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
