//! Universal on-disk result cache, size-capped with oldest-evicted GC.
//!
//! Every completed simulation cell — any scheme, any prefetcher, not
//! just the no-prefetch normalization baselines — persists as JSON
//! under `target/clip-cache/`, keyed by a hash of the full job identity
//! (config, scheme, mix, run options — their `Debug` forms, which the
//! executor formats once per sweep row or cell and joins per job) plus
//! [`CACHE_VERSION`]. Repeat queries (a re-run figure, a second
//! figure sharing cells with the first) are served from disk without
//! re-simulating; the determinism contract makes a replayed result
//! byte-identical to a fresh one.
//!
//! The cache is also how an interrupted sweep resumes: the executor
//! stores each cell on its worker as soon as the cell finishes, so
//! re-running a killed sweep serves every completed cell from disk and
//! simulates only the missing ones. That holds while one sweep's
//! entries fit under the size cap below — the GC evicts oldest first,
//! so it reaches a sweep's own entries only when that sweep alone
//! outgrows the 256 MiB cap (an entry is about 1 KB at 4 cores).
//! Concurrent workers store safely: each writes its own entry through a
//! temp file and a rename.
//!
//! Each entry wraps the result payload with an FNV-1a checksum of its
//! rendered form: `{"checksum":"<16 hex>","result":{...}}`. An entry
//! that fails to parse, lacks the wrapper, or whose checksum does not
//! match the payload (truncated write, disk corruption, manual edit) is
//! treated as a miss and quarantined — renamed to `<entry>.corrupt`, or
//! deleted if the rename fails — so one bad file can never poison every
//! later figure run. The quarantine itself is capped at
//! [`store_util::QUARANTINE_CAP`] files (oldest evicted first) and
//! announced once per run, so a persistently failing disk cannot
//! silently fill the cache directory with tombstones. The durability
//! machinery (checksum wrapper, quarantine, atomic writes, stale-tmp
//! sweep) is shared with the fingerprint-baseline store — see
//! [`crate::store_util`].
//!
//! A universal cache grows without bound, so stores run a garbage
//! collector: when the directory's `.json` entries exceed the fixed
//! 256 MiB cap ([`CAP_BYTES`]), the oldest entries — by modification
//! time, file name as the tiebreaker — are deleted until the directory
//! fits. Eviction is plain `remove_file` against atomically-renamed
//! entries, so a concurrent reader sees either an intact entry (hit) or
//! none (miss), never a torn one.
//!
//! * `CLIP_CACHE=0` (or `off`/`false`/`no`) disables the cache entirely.
//! * `CLIP_CACHE_DIR` overrides the directory.
//! * Unparseable, corrupt, or stale entries are treated as misses.
//!
//! Hit/miss/store/eviction counts are kept in process-wide counters
//! ([`stats`]) so callers can prove cache hits are being served without
//! re-simulation (perfbench's fig02 passes and the resume test read
//! them).
//!
//! Bump [`CACHE_VERSION`] whenever a change alters simulation results;
//! the job key only captures configuration, not simulator behavior.

use crate::store_util;
use clip_sim::SimResult;
use clip_types::knob;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Invalidates all previously cached results when bumped.
/// Version 2: entries gained the checksum wrapper.
/// (The cache went universal without a bump: the key format and the
/// simulator's results are unchanged, so old baseline entries remain
/// valid — new schemes simply add entries alongside them.)
/// Version 3: every reported counter covers the measured window; older
/// entries count CLIP's counters, the baseline evaluators' IP sets and
/// the busiest channel's transfers from the start of warmup.
pub(crate) const CACHE_VERSION: u32 = 3;

/// Size cap for the cache directory's entries, in bytes.
const CAP_BYTES: u64 = 256 * 1024 * 1024;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cache traffic counters (monotonic since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an intact disk entry.
    pub hits: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries deleted by the size-cap garbage collector.
    pub evictions: u64,
}

/// Reads the current counters, so "cache hits served without
/// re-simulation" is observable.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

fn enabled() -> bool {
    knob::env_flag("CLIP_CACHE").unwrap_or(true)
}

fn cache_dir() -> PathBuf {
    knob::env_dir("CLIP_CACHE_DIR").unwrap_or_else(|| store_util::target_dir().join("clip-cache"))
}

fn entry_path(dir: &Path, key: &str, mix_name: &str) -> PathBuf {
    store_util::entry_path(dir, &format!("{CACHE_VERSION}|{key}"), mix_name)
}

/// Loads a cached result, if present and intact.
pub(crate) fn lookup(key: &str, mix_name: &str) -> Option<SimResult> {
    if !enabled() {
        return None;
    }
    lookup_in(&cache_dir(), key, mix_name)
}

/// Persists a result (best effort; write-then-rename so a concurrent
/// reader never sees a torn file), then garbage-collects the directory
/// back under the size cap.
pub(crate) fn store(key: &str, mix_name: &str, result: &SimResult) {
    if !enabled() {
        return;
    }
    store_in(&cache_dir(), key, mix_name, result);
}

/// [`lookup`] against an explicit directory. A present-but-damaged entry
/// is quarantined and reported as a miss.
pub(crate) fn lookup_in(dir: &Path, key: &str, mix_name: &str) -> Option<SimResult> {
    store_util::open_store(dir);
    let path = entry_path(dir, key, mix_name);
    let Ok(text) = std::fs::read_to_string(&path) else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return None;
    };
    match store_util::unwrap_verified(&text, "result").and_then(|p| SimResult::from_json(&p)) {
        Some(r) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Some(r)
        }
        None => {
            store_util::quarantine(&path);
            MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// [`store`] against an explicit directory, followed by a GC pass.
pub(crate) fn store_in(dir: &Path, key: &str, mix_name: &str, result: &SimResult) {
    store_util::open_store(dir);
    let path = entry_path(dir, key, mix_name);
    let entry = store_util::wrap_checksummed("result", result.to_json());
    store_util::write_entry(dir, &path, &entry);
    STORES.fetch_add(1, Ordering::Relaxed);
    gc_in(dir, CAP_BYTES);
}

/// Deletes the oldest `.json` entries — by modification time, then file
/// name for entries sharing a timestamp — until the directory's entries
/// total at most `cap` bytes. Quarantined `.corrupt` files (pruned
/// separately, see [`store_util::prune_quarantine`]) and in-flight
/// `.tmp.<pid>` files are never counted or touched. Best effort: an
/// unreadable directory skips the pass; a concurrently-vanished entry
/// is simply not re-deleted. Returns how many entries this pass deleted.
pub(crate) fn gc_in(dir: &Path, cap: u64) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
    let mut total: u64 = 0;
    for p in entries.flatten().map(|e| e.path()) {
        let is_entry = p
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".json"));
        if !is_entry {
            continue;
        }
        let Ok(meta) = std::fs::metadata(&p) else {
            continue;
        };
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        total += meta.len();
        files.push((mtime, p, meta.len()));
    }
    if total <= cap {
        return 0;
    }
    files.sort();
    let mut evicted = 0;
    for (_, p, len) in files {
        if total <= cap {
            break;
        }
        if std::fs::remove_file(&p).is_ok() {
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            evicted += 1;
        }
        // Count the entry as gone either way: a failed remove is almost
        // always "another process evicted it first".
        total = total.saturating_sub(len);
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_util::QUARANTINE_CAP;
    use clip_sim::{run_mix, NocChoice, RunOptions, Scheme, SweepJob};
    use clip_trace::Mix;
    use clip_types::{PrefetcherKind, SimConfig};

    fn small_result() -> SimResult {
        let cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .l1_prefetcher(PrefetcherKind::None)
            .build()
            .expect("valid config");
        let mix = Mix::homogeneous(
            &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
            2,
        );
        let opts = RunOptions {
            warmup_instrs: 100,
            sim_instrs: 500,
            seed: 3,
            noc: NocChoice::Analytic,
            ..RunOptions::default()
        };
        run_mix(&cfg, &Scheme::plain(), &mix, &opts)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("clip-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    #[test]
    fn entry_name_of_a_fixed_job_is_pinned() {
        // The name hashes `CACHE_VERSION` and the job key, which holds
        // the `Debug` forms of config, scheme, mix and run options. A
        // change to any of them renames every entry and turns every
        // user's cache cold, so it must fail here and be acknowledged.
        let job = SweepJob {
            cfg: SimConfig::builder()
                .cores(4)
                .dram_channels(1)
                .l1_prefetcher(PrefetcherKind::Berti)
                .build()
                .expect("valid config"),
            scheme: Scheme::plain(),
            mix: Mix::homogeneous(
                &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
                4,
            ),
        };
        let key = crate::experiment::job_key(&job, &RunOptions::default());
        assert_eq!(
            entry_path(Path::new(""), &key, &job.mix.name),
            Path::new("605.mcf_s-1554B-273530d29430c151.json")
        );
    }

    #[test]
    fn roundtrip_survives_the_checksum() {
        let dir = temp_dir("roundtrip");
        let r = small_result();
        store_in(&dir, "key-a", "mixname", &r);
        let back = lookup_in(&dir, "key-a", "mixname").expect("intact entry hits");
        assert_eq!(back.to_json().render(), r.to_json().render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_track_hits_misses_and_stores() {
        let dir = temp_dir("counters");
        let before = stats();
        let r = small_result();
        store_in(&dir, "key-count", "mixname", &r);
        assert!(lookup_in(&dir, "key-count", "mixname").is_some());
        assert!(lookup_in(&dir, "key-absent", "mixname").is_none());
        let after = stats();
        assert!(after.stores > before.stores, "store counted");
        assert!(after.hits > before.hits, "hit counted");
        assert!(after.misses > before.misses, "miss counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_misses_and_is_quarantined() {
        let dir = temp_dir("truncate");
        let r = small_result();
        store_in(&dir, "key-b", "mixname", &r);
        let path = entry_path(&dir, "key-b", "mixname");
        let text = std::fs::read_to_string(&path).expect("entry exists");
        // Hand-truncate the entry mid-payload, as a torn write would.
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

        assert!(
            lookup_in(&dir, "key-b", "mixname").is_none(),
            "a truncated entry must read as a miss"
        );
        assert!(!path.exists(), "the damaged entry must be moved aside");
        let mut aside = path.as_os_str().to_owned();
        aside.push(".corrupt");
        assert!(
            PathBuf::from(aside).exists(),
            "the damaged entry must be quarantined as .corrupt"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_payload_fails_the_checksum() {
        let dir = temp_dir("tamper");
        let r = small_result();
        store_in(&dir, "key-c", "mixname", &r);
        let path = entry_path(&dir, "key-c", "mixname");
        let text = std::fs::read_to_string(&path).expect("entry exists");
        // Prepend a digit to the cycle count; the JSON still parses.
        let tampered = text.replacen("\"cycles\":", "\"cycles\":9", 1);
        assert_ne!(text, tampered, "the tamper must hit something");
        std::fs::write(&path, tampered).expect("tamper");

        assert!(
            lookup_in(&dir, "key-c", "mixname").is_none(),
            "a checksum mismatch must read as a miss"
        );
        assert!(!path.exists(), "the tampered entry must be quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_capped_and_evicts_oldest() {
        let dir = temp_dir("cap");
        // Pre-fill the quarantine well past the cap; creation order gives
        // non-decreasing mtimes, and the name order matches as a
        // tiebreaker, so corrupt-00 is unambiguously the oldest.
        for i in 0..QUARANTINE_CAP + 8 {
            std::fs::write(dir.join(format!("corrupt-{i:02}.json.corrupt")), "junk")
                .expect("seed quarantine");
        }
        let r = small_result();
        store_in(&dir, "key-d", "mixname", &r);
        let path = entry_path(&dir, "key-d", "mixname");
        std::fs::write(&path, "not json").expect("damage entry");

        assert!(lookup_in(&dir, "key-d", "mixname").is_none());
        let corrupt: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "corrupt"))
            .collect();
        assert_eq!(corrupt.len(), QUARANTINE_CAP, "quarantine pruned to cap");
        assert!(
            !dir.join("corrupt-00.json.corrupt").exists(),
            "the oldest tombstone is evicted first"
        );
        let newest = format!("corrupt-{:02}.json.corrupt", QUARANTINE_CAP + 7);
        assert!(dir.join(newest).exists(), "recent tombstones survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_entries_until_under_the_cap() {
        let dir = temp_dir("gc-order");
        // Ten 1000-byte entries created in name order: equal mtimes are
        // broken by name, so entry-00 is unambiguously the oldest.
        for i in 0..10 {
            std::fs::write(dir.join(format!("entry-{i:02}.json")), vec![b'x'; 1000])
                .expect("seed entry");
        }
        // Debris that must never be counted or collected.
        std::fs::write(dir.join("dead.json.corrupt"), vec![b'x'; 5000]).expect("seed corrupt");
        std::fs::write(
            dir.join(format!("mid.json.tmp.{}", std::process::id())),
            vec![b'x'; 5000],
        )
        .expect("seed tmp");

        // The pass's own count: the process-global `stats().evictions`
        // also moves with any other test evicting concurrently.
        assert_eq!(gc_in(&dir, 4_500), 6, "six entries evicted");
        for i in 0..6 {
            assert!(
                !dir.join(format!("entry-{i:02}.json")).exists(),
                "entry-{i:02} is among the oldest and must be evicted"
            );
        }
        for i in 6..10 {
            assert!(
                dir.join(format!("entry-{i:02}.json")).exists(),
                "entry-{i:02} is recent and must survive"
            );
        }
        assert!(
            dir.join("dead.json.corrupt").exists(),
            "quarantine files belong to prune_quarantine, not the GC"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_reader_during_eviction_gets_hit_or_miss_never_torn() {
        let dir = temp_dir("gc-race");
        let r = small_result();
        let expect = r.to_json().render();
        store_in(&dir, "key-race", "mixname", &r);

        // A reader hammers the entry while the main thread fills the
        // directory and runs aggressive GC passes that keep evicting the
        // entry out from under it. Every successful lookup must decode to
        // the exact stored payload; everything else must be a clean miss
        // (never a panic, never a mangled result).
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut hits = 0u32;
                let mut misses = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    match lookup_in(&dir, "key-race", "mixname") {
                        Some(got) => {
                            assert_eq!(got.to_json().render(), expect, "torn read");
                            hits += 1;
                        }
                        None => misses += 1,
                    }
                }
                (hits, misses)
            });
            for round in 0..200 {
                // Filler traffic plus a tiny cap forces eviction of
                // everything, the probed entry included...
                let filler = dir.join(format!("filler-{round:03}.json"));
                std::fs::write(&filler, vec![b'x'; 2048]).expect("filler");
                gc_in(&dir, 1);
                // ...then the entry is re-stored, so the reader keeps
                // racing both the eviction and the atomic re-write.
                store_in(&dir, "key-race", "mixname", &r);
            }
            stop.store(true, Ordering::Relaxed);
            let (hits, misses) = reader.join().expect("reader must not panic");
            assert!(hits > 0, "the reader should observe some hits");
            // Misses are timing-dependent and may legitimately be zero on
            // a fast disk; the assertion above is the contract.
            let _ = misses;
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
