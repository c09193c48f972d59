//! On-disk fingerprint baselines: cross-run behavioural regression
//! localization.
//!
//! The intra-run localizer (`clip_sim::fingerprint::run_jobs_localized`)
//! diffs a faulted run against a clean re-run *in the same process* — it
//! cannot see a regression introduced by a **code change**, which still
//! surfaces only as "the final IPC moved". This store closes that gap
//! with record-and-replay over per-window state-hash streams:
//!
//! * `CLIP_FP_BASELINE=record` — every freshly simulated job that
//!   captured fingerprints (i.e. ran with audits enabled: `CLIP_CHECK`
//!   `cheap` or `full`) persists its stream under `target/clip-fp/`,
//!   keyed by the job identity (config, scheme, mix, run options
//!   including the audit cadence), the **resolved check level** (cheap
//!   and full streams hash different state and must never verify against
//!   each other), plus `FP_VERSION`.
//! * `CLIP_FP_BASELINE=verify` — every freshly simulated job diffs its
//!   live stream against the stored baseline via
//!   `fingerprint::compare_against_baseline`; the first divergent cadence
//!   window and component surface as a `SimErrorKind::Divergence` error
//!   (rendered `DIV` by the experiment executor). A job with no recorded
//!   baseline **fails** (`Internal`) instead of passing unverified: a
//!   broken record step must not turn a gate green while it checks
//!   nothing. A job that recorded a baseline but captured no live
//!   fingerprints fails the same way.
//! * Unset (or `off`/`0`) — completely inert: golden artifacts and disk
//!   cache entries stay byte-identical.
//!
//! The key deliberately **excludes `RunOptions::fault`**: an armed fault
//! stands in for a code change (that is exactly what the CI
//! `fp-baseline-smoke` job injects), so a faulted run must be diffed
//! against the *clean* baseline recorded under the same identity.
//!
//! Entries share the durability machinery of the result cache
//! (`store_util.rs`): FNV-keyed file names, a checksum wrapper
//! (`{"checksum":"<16 hex>","stream":{"version":N,"windows":[...]}}`),
//! quarantine of damaged entries as `.corrupt` (capped, oldest evicted)
//! and stale-tmp sweeping. A damaged baseline reads as "never recorded".
//!
//! * `CLIP_FP_DIR` overrides the directory (default
//!   `target/clip-fp/`, a sibling of `target/clip-cache/`).
//!
//! Bump `FP_VERSION` whenever fingerprint capture changes (component
//! layout, hash function, cadence semantics): old baselines silently
//! stop matching their keys instead of mis-verifying.

use crate::store_util;
use clip_sim::fingerprint::{
    compare_against_baseline, stream_from_json, stream_to_json, WindowFingerprint,
};
use clip_sim::{RunOptions, SimError, SimResult, SweepJob};
use clip_stats::Json;
use std::path::{Path, PathBuf};

/// Invalidates all previously recorded baselines when bumped.
/// Version 1: initial format (full-level streams only).
/// Version 2: fingerprints exist at every audit level; entries are keyed
/// by the resolved [`CheckLevel`] so `cheap` and `full` streams — which
/// hash different state and are never comparable — can never verify
/// against each other.
/// Version 3: the mesh's full fingerprint folds only packets whose flits
/// have partially arrived, not every packet ever sent.
pub(crate) const FP_VERSION: u32 = 3;

/// What `CLIP_FP_BASELINE` asks of this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpMode {
    /// No baseline activity (the default): reads and writes nothing.
    Off,
    /// Persist every freshly simulated job's fingerprint stream.
    Record,
    /// Diff every freshly simulated job against its stored baseline; a
    /// job with no recorded baseline fails.
    Verify,
}

/// Reads the mode from `CLIP_FP_BASELINE`.
pub fn mode() -> FpMode {
    mode_from(std::env::var("CLIP_FP_BASELINE").ok().as_deref())
}

fn mode_from(v: Option<&str>) -> FpMode {
    match clip_types::knob::choice("CLIP_FP_BASELINE", v, &["record", "verify", "off", "0"]) {
        Some("record") => FpMode::Record,
        Some("verify") => FpMode::Verify,
        _ => FpMode::Off,
    }
}

fn fp_dir() -> PathBuf {
    clip_types::knob::env_dir("CLIP_FP_DIR")
        .unwrap_or_else(|| store_util::target_dir().join("clip-fp"))
}

/// The baseline identity of a job: config, scheme, mix, and run options
/// with the armed fault stripped — a faulted or regressed run verifies
/// against the baseline of its clean counterpart — plus the **resolved**
/// check level. `opts.check = None` defers to `CLIP_CHECK` at run time,
/// so two runs with identical options can capture incomparable `cheap`
/// vs `full` streams; folding the resolved level into the key keeps them
/// in separate baseline entries.
pub fn job_fp_key(job: &SweepJob, opts: &RunOptions) -> String {
    let clean = RunOptions {
        fault: None,
        ..opts.clone()
    };
    let level = opts.check.unwrap_or_else(clip_sim::CheckLevel::from_env);
    format!(
        "{}\u{1}level={level:?}",
        crate::experiment::job_key(job, &clean)
    )
}

/// Applies the active [`mode`] to one freshly simulated outcome: records
/// the stream, verifies it against the stored baseline, or (by default)
/// passes it through untouched. Errors always pass through — a failed
/// run is never a known-good baseline and has nothing to verify.
pub fn apply(
    job: &SweepJob,
    opts: &RunOptions,
    outcome: Result<SimResult, SimError>,
) -> Result<SimResult, SimError> {
    let m = mode();
    if m == FpMode::Off {
        return outcome;
    }
    let Ok(result) = outcome else {
        return outcome;
    };
    let key = job_fp_key(job, opts);
    match m {
        FpMode::Record => {
            record_in(&fp_dir(), &key, &job.mix.name, &result);
            Ok(result)
        }
        FpMode::Verify => verify_in(&fp_dir(), &key, &job.mix.name, &result).map(|()| result),
        FpMode::Off => unreachable!("handled above"),
    }
}

fn entry_path(dir: &Path, key: &str, mix_name: &str) -> PathBuf {
    store_util::entry_path(dir, &format!("{FP_VERSION}|{key}"), mix_name)
}

/// Persists a known-good fingerprint stream (best effort, atomic). A run
/// that captured no fingerprints records nothing — recording requires
/// audits enabled, which a once-per-run stderr notice points out.
pub(crate) fn record_in(dir: &Path, key: &str, mix_name: &str, result: &SimResult) {
    store_util::open_store(dir);
    if result.fingerprints.is_empty() {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "clip-fp: CLIP_FP_BASELINE=record but the run captured no fingerprints; \
                 audits are off (CLIP_CHECK=cheap or full records baselines)"
            );
        });
        return;
    }
    let payload = Json::object([
        ("version", Json::from(u64::from(FP_VERSION))),
        ("windows", stream_to_json(&result.fingerprints)),
    ]);
    let entry = store_util::wrap_checksummed("stream", payload);
    store_util::write_entry(dir, &entry_path(dir, key, mix_name), &entry);
}

/// Loads a recorded baseline stream, if present and intact. A
/// present-but-damaged entry is quarantined and reads as "never
/// recorded".
pub(crate) fn lookup_in(dir: &Path, key: &str, mix_name: &str) -> Option<Vec<WindowFingerprint>> {
    store_util::open_store(dir);
    let path = entry_path(dir, key, mix_name);
    let text = std::fs::read_to_string(&path).ok()?;
    let stream = store_util::unwrap_verified(&text, "stream").and_then(|payload| {
        if payload.get("version")?.as_u64()? != u64::from(FP_VERSION) {
            return None;
        }
        stream_from_json(payload.get("windows")?)
    });
    match stream {
        Some(s) => Some(s),
        None => {
            store_util::quarantine(&path);
            None
        }
    }
}

/// Diffs a live result against its stored baseline. Every job must have
/// something to check against, so a missing (or quarantined) entry means
/// the record step never ran for this identity.
///
/// # Errors
///
/// Returns the first `Divergence` between the streams, an `Internal`
/// error naming the mix when no baseline is recorded, or an `Internal`
/// error when a baseline exists but the live run captured no
/// fingerprints.
pub(crate) fn verify_in(
    dir: &Path,
    key: &str,
    mix_name: &str,
    result: &SimResult,
) -> Result<(), SimError> {
    match lookup_in(dir, key, mix_name) {
        None => Err(SimError::new(
            0,
            "fingerprint",
            clip_sim::SimErrorKind::Internal,
            format!(
                "CLIP_FP_BASELINE=verify but no baseline is recorded for {mix_name:?} \
                 under this job identity (run the record step first, and at the same \
                 CLIP_CHECK level)"
            ),
        )),
        Some(baseline) => compare_against_baseline(&baseline, result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_sim::SimErrorKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("clip-fp-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    fn result_with_stream() -> SimResult {
        // Hand-built stream: the store persists whatever the integrity
        // layer captured, so no simulation is needed to test it. Six
        // hashes per window follow the capture layout for two tiles:
        // tile0, tile1, llc, txns, noc, dram.
        let windows = [
            (0u64, 16u64, vec![0xa1, 0xb2, u64::MAX, 0x11, 0x22, 0x33]),
            (1, 32, vec![0xc3, 0xd4, 0xe5, 0x44, 0x55, 0x66]),
        ];
        SimResult {
            fingerprints: windows
                .into_iter()
                .map(|(window, cycle, hashes)| WindowFingerprint {
                    window,
                    cycle,
                    hashes,
                })
                .collect(),
            ..SimResult::default()
        }
    }

    #[test]
    fn record_then_verify_roundtrips() {
        let dir = temp_dir("roundtrip");
        let r = result_with_stream();
        record_in(&dir, "key-a", "mixname", &r);
        let back = lookup_in(&dir, "key-a", "mixname").expect("recorded baseline hits");
        assert_eq!(back, r.fingerprints, "streams round-trip bit-exactly");
        verify_in(&dir, "key-a", "mixname", &r).expect("same revision verifies clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perturbed_stream_fails_verification_naming_window_and_component() {
        let dir = temp_dir("perturb");
        let r = result_with_stream();
        record_in(&dir, "key-b", "mixname", &r);
        let mut regressed = r.clone();
        regressed.fingerprints[1].hashes[0] = 0x5eed; // window 1, tile0.
        let err = verify_in(&dir, "key-b", "mixname", &regressed)
            .expect_err("a behavioural change must diverge");
        assert_eq!(err.kind, SimErrorKind::Divergence);
        assert_eq!(err.component, "tile0");
        assert!(err.detail.contains("first divergent window 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_baseline_and_missing_live_stream_both_fail() {
        let dir = temp_dir("missing");
        let r = result_with_stream();
        let err = verify_in(&dir, "never-recorded", "mixname", &r)
            .expect_err("verify must refuse to pass an unverified job");
        assert_eq!(err.kind, SimErrorKind::Internal);
        assert_eq!(err.component, "fingerprint");
        assert!(err.detail.contains("no baseline is recorded"), "{err}");
        assert!(err.detail.contains("mixname"), "{err}");

        record_in(&dir, "key-c", "mixname", &r);
        let unchecked = SimResult::default();
        let err = verify_in(&dir, "key-c", "mixname", &unchecked)
            .expect_err("a live run without fingerprints must not pass silently");
        assert_eq!(err.kind, SimErrorKind::Internal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_baseline_is_quarantined_and_reads_as_unrecorded() {
        let dir = temp_dir("damage");
        let r = result_with_stream();
        record_in(&dir, "key-d", "mixname", &r);
        let path = entry_path(&dir, "key-d", "mixname");
        let text = std::fs::read_to_string(&path).expect("entry exists");
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");

        assert!(lookup_in(&dir, "key-d", "mixname").is_none());
        assert!(!path.exists(), "the damaged baseline must be moved aside");
        let mut aside = path.as_os_str().to_owned();
        aside.push(".corrupt");
        assert!(PathBuf::from(aside).exists(), "quarantined as .corrupt");
        let err = verify_in(&dir, "key-d", "mixname", &r)
            .expect_err("a quarantined baseline is a missing one");
        assert!(err.detail.contains("no baseline is recorded"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_stream_records_nothing() {
        let dir = temp_dir("empty");
        record_in(&dir, "key-e", "mixname", &SimResult::default());
        assert!(
            lookup_in(&dir, "key-e", "mixname").is_none(),
            "an unfingerprinted run must not become a baseline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mode_parses_the_documented_values() {
        assert_eq!(mode_from(None), FpMode::Off);
        assert_eq!(mode_from(Some("")), FpMode::Off);
        assert_eq!(mode_from(Some("off")), FpMode::Off);
        assert_eq!(mode_from(Some("0")), FpMode::Off);
        assert_eq!(mode_from(Some("record")), FpMode::Record);
        assert_eq!(mode_from(Some("verify")), FpMode::Verify);
        assert_eq!(mode_from(Some("bogus")), FpMode::Off);
    }
}
