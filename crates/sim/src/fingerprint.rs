//! State-fingerprint divergence localization.
//!
//! Whenever audits are enabled the integrity loop folds each component's
//! state into an FNV-1a hash every cadence window. Under `CLIP_CHECK=full`
//! the hash covers per-entry architectural + queue state (cores and ROBs,
//! private MSHR files, prefetch queues, LLC MSHRs, the live-transaction
//! slab); under the default `cheap` level it covers only the O(1)
//! occupancy balances each component already maintains — far less
//! sensitive, but free enough to leave on for long sweeps. The two
//! depths share a layout but are never comparable to each other; the
//! baseline store keys them apart. Two same-seed runs that must be
//! bit-identical
//! — serial vs parallel, or corrupted vs clean — can then be diffed
//! window by window: instead of "the final IPC is wrong", [`compare`]
//! reports *"first divergent window N (cycle C), component X"* as a
//! [`SimErrorKind::Divergence`] error. This is the only detector for
//! corruption that stays conserved (e.g. [`crate::FaultKind::FlipCriticality`]:
//! nothing is lost, arbitration just decides differently from then on).
//!
//! The same machinery also works *across* runs: a stream serialized via
//! [`stream_to_json`] and persisted by a known-good revision (see the
//! `clip-bench` fingerprint-baseline store, gated by `CLIP_FP_BASELINE`)
//! can be handed to [`compare_against_baseline`] by a later revision,
//! localizing a behavioural regression introduced by a code change to its
//! first divergent cadence window and component.
//!
//! Fingerprints ride in [`SimResult::fingerprints`] but are deliberately
//! excluded from its JSON form: artifacts stay byte-identical whether or
//! not a run captured them.

use crate::result::SimResult;
use crate::system::System;
use crate::{run_jobs_checked, RunOptions, SweepJob};
use clip_stats::Json;
use clip_types::{Cycle, Fnv64, SimError, SimErrorKind};

/// One cadence window's per-component state hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFingerprint {
    /// Window index (`cycle / check_cadence`).
    pub window: u64,
    /// Cycle the window was sampled at.
    pub cycle: Cycle,
    /// One hash per component, laid out as
    /// `tile0..tileN-1, llc, txns, noc, dram` (see [`component_name`]).
    pub hashes: Vec<u64>,
}

/// Names the component at `index` in a [`WindowFingerprint::hashes`]
/// layout with `tiles` tiles: `tile{i}`, then `llc`, `txns`, `noc`,
/// `dram`.
pub fn component_name(index: usize, tiles: usize) -> String {
    if index < tiles {
        return format!("tile{index}");
    }
    match index - tiles {
        0 => "llc",
        1 => "txns",
        2 => "noc",
        _ => "dram",
    }
    .to_string()
}

/// Serializes a fingerprint stream as a JSON array of
/// `{"window", "cycle", "hashes"}` objects. Hashes are `u64` and render
/// as exact integers (the JSON tree keeps unsigned integers distinct
/// from floats), so streams round-trip bit-exactly through
/// [`stream_from_json`].
pub fn stream_to_json(stream: &[WindowFingerprint]) -> Json {
    Json::array(stream.iter().map(|w| {
        Json::object([
            ("window", Json::from(w.window)),
            ("cycle", Json::from(w.cycle)),
            (
                "hashes",
                Json::array(w.hashes.iter().map(|&h| Json::from(h))),
            ),
        ])
    }))
}

/// Parses a stream back from the [`stream_to_json`] schema. Returns
/// `None` on any shape mismatch — callers (the on-disk baseline store)
/// treat that as a damaged entry.
pub fn stream_from_json(v: &Json) -> Option<Vec<WindowFingerprint>> {
    let mut out = Vec::new();
    for w in v.as_array()? {
        out.push(WindowFingerprint {
            window: w.get("window")?.as_u64()?,
            cycle: w.get("cycle")?.as_u64()?,
            hashes: w
                .get("hashes")?
                .as_array()?
                .iter()
                .map(|h| h.as_u64())
                .collect::<Option<Vec<u64>>>()?,
        });
    }
    Some(out)
}

impl System {
    /// Captures one window's per-component fingerprint. Read-only.
    ///
    /// `full` selects the hash depth: per-entry state under
    /// `CLIP_CHECK=full`, O(1) occupancy balances under `cheap`. Both
    /// use the same `tile0..tileN-1, llc, txns, noc, dram` layout so
    /// [`compare`] and [`component_name`] work unchanged; the two depths
    /// are never comparable to each other (the baseline store keys them
    /// apart).
    pub(crate) fn capture_fingerprint(&mut self, now: Cycle, full: bool) {
        use clip_dram::DramModel;
        use clip_noc::NocModel;
        let cadence = self.integrity.cadence.max(1);
        let mut hashes = Vec::with_capacity(self.tiles.len() + 4);
        for t in &self.tiles {
            let mut h = Fnv64::new();
            if full {
                t.fingerprint(&mut h);
            } else {
                t.fingerprint_cheap(&mut h);
            }
            hashes.push(h.finish());
        }
        let mut h = Fnv64::new();
        if full {
            self.engine.llc.fingerprint(&mut h);
        } else {
            self.engine.llc.fingerprint_cheap(&mut h);
        }
        hashes.push(h.finish());
        let mut h = Fnv64::new();
        if full {
            self.engine.fingerprint_txns(&mut h);
        } else {
            self.engine.fingerprint_txns_cheap(&mut h);
        }
        hashes.push(h.finish());
        let mut h = Fnv64::new();
        self.engine.noc.model.fingerprint(&mut h, full);
        hashes.push(h.finish());
        let mut h = Fnv64::new();
        self.engine.dram.mem.fingerprint(&mut h, full);
        hashes.push(h.finish());
        self.fingerprints.push(WindowFingerprint {
            window: now / cadence,
            cycle: now,
            hashes,
        });
    }
}

/// Diffs two same-seed runs' fingerprint streams window by window.
///
/// Both runs must have been captured under `CLIP_CHECK=full` with the
/// same `check_cadence`; when either side recorded no fingerprints there
/// is nothing to compare and the result is `Ok`.
///
/// # Errors
///
/// Returns a [`SimErrorKind::Divergence`] error naming the first
/// divergent cadence window and the component that diverged — or, when
/// every shared window agrees but the streams have different lengths,
/// the first unmatched window (the runs took different numbers of
/// cycles, itself a divergence).
pub fn compare(reference: &SimResult, candidate: &SimResult) -> Result<(), SimError> {
    compare_streams(&reference.fingerprints, &candidate.fingerprints)
}

/// [`compare`] over raw streams: the reference side may come from a
/// deserialized on-disk baseline rather than a live run.
pub fn compare_streams(a: &[WindowFingerprint], b: &[WindowFingerprint]) -> Result<(), SimError> {
    if a.is_empty() || b.is_empty() {
        return Ok(());
    }
    for (wa, wb) in a.iter().zip(b.iter()) {
        let tiles = wa.hashes.len().saturating_sub(4);
        if wa.window != wb.window {
            return Err(SimError::new(
                wa.cycle.min(wb.cycle),
                "fingerprint",
                SimErrorKind::Divergence,
                format!(
                    "window streams desynchronized: window {} vs {} (check_cadence differs?)",
                    wa.window, wb.window
                ),
            ));
        }
        // Runs built with different component counts (e.g. different tile
        // counts) must not be silently truncated to the shorter layout:
        // the zip below would otherwise drop the unmatched tail.
        if wa.hashes.len() != wb.hashes.len() {
            return Err(SimError::new(
                wa.cycle,
                "fingerprint",
                SimErrorKind::Divergence,
                format!(
                    "window {} recorded {} vs {} component hashes (tile counts differ?)",
                    wa.window,
                    wa.hashes.len(),
                    wb.hashes.len()
                ),
            ));
        }
        for (i, (ha, hb)) in wa.hashes.iter().zip(wb.hashes.iter()).enumerate() {
            if ha != hb {
                return Err(SimError::new(
                    wa.cycle,
                    component_name(i, tiles),
                    SimErrorKind::Divergence,
                    format!(
                        "first divergent window {} (cycle {}), component {}: \
                         state hash {:#018x} vs {:#018x}",
                        wa.window,
                        wa.cycle,
                        component_name(i, tiles),
                        ha,
                        hb
                    ),
                ));
            }
        }
    }
    if a.len() != b.len() {
        let first_unmatched = a.len().min(b.len());
        let longer = if a.len() > b.len() { a } else { b };
        let w = &longer[first_unmatched];
        return Err(SimError::new(
            w.cycle,
            "fingerprint",
            SimErrorKind::Divergence,
            format!(
                "runs recorded {} vs {} windows; first unmatched window {} (cycle {})",
                a.len(),
                b.len(),
                w.window,
                w.cycle
            ),
        ));
    }
    Ok(())
}

/// Verifies a live run against a persisted known-good stream.
///
/// An empty baseline means "nothing was ever recorded" and passes (there
/// is no claim to check). A *live* run without fingerprints is different:
/// the caller explicitly asked for verification, so silently skipping it
/// would report a regression-free run that was never actually checked —
/// that surfaces as a [`SimErrorKind::Internal`] error instead.
///
/// # Errors
///
/// Returns the first [`SimErrorKind::Divergence`] between the streams
/// (see [`compare`]), or an `Internal` error when the live run captured
/// no fingerprints (it was run with audits off entirely).
pub fn compare_against_baseline(
    baseline: &[WindowFingerprint],
    live: &SimResult,
) -> Result<(), SimError> {
    if baseline.is_empty() {
        return Ok(());
    }
    if live.fingerprints.is_empty() {
        return Err(SimError::new(
            0,
            "fingerprint",
            SimErrorKind::Internal,
            "baseline verification requested but the live run captured no fingerprints \
             (fingerprints require audits: CLIP_CHECK=full or the default cheap level)",
        ));
    }
    compare_streams(baseline, &live.fingerprints)
}

/// Localizes one job's faulted outcome against its clean re-run: diff
/// the fingerprint streams when both completed, surface the clean run's
/// failure as an `Internal` error when the reference is missing (a
/// silently skipped localization would report the faulted result as
/// verified), and pass faulted failures through untouched.
fn localize_outcome(
    faulted: Result<SimResult, SimError>,
    clean: Result<SimResult, SimError>,
) -> Result<SimResult, SimError> {
    match (faulted, clean) {
        (Ok(f), Ok(c)) => compare(&c, &f).map(|()| f),
        (Ok(_), Err(e)) => Err(SimError::new(
            e.cycle,
            "fingerprint",
            SimErrorKind::Internal,
            format!("divergence localization skipped: the clean reference re-run failed: {e}"),
        )),
        (faulted, _) => faulted,
    }
}

/// Runs a batch through [`run_jobs_checked`] and localizes divergence the
/// auditors cannot see: when `opts.fault` is armed, each job that still
/// completes cleanly is re-run with the fault disarmed and its
/// fingerprint stream diffed against the clean run via [`compare`]. A
/// conserved corruption (e.g. `FlipCriticality`) thereby surfaces as a
/// `Divergence` error naming the first divergent window and component
/// instead of silently skewing the result.
///
/// Capturing fingerprints requires audits: under `CLIP_CHECK=full` the
/// streams are maximally sensitive, under the default `cheap` level only
/// occupancy-visible corruption localizes, and with audits off this is
/// exactly `run_jobs_checked`. Without an armed fault there is no reference to
/// diff against and the batch also passes through unchanged. A clean
/// re-run that itself fails surfaces as an [`SimErrorKind::Internal`]
/// error naming the reference failure — never as a silently unverified
/// faulted result.
pub fn run_jobs_localized(
    jobs: &[SweepJob],
    opts: &RunOptions,
) -> Vec<Result<SimResult, SimError>> {
    let outcomes = run_jobs_checked(jobs, opts, |_, r| r);
    if opts.fault.is_none() {
        return outcomes;
    }
    let clean_opts = RunOptions {
        fault: None,
        ..opts.clone()
    };
    let clean = run_jobs_checked(jobs, &clean_opts, |_, r| r);
    outcomes
        .into_iter()
        .zip(clean)
        .map(|(faulted, clean)| localize_outcome(faulted, clean))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(window: u64, cycle: Cycle, hashes: &[u64]) -> WindowFingerprint {
        WindowFingerprint {
            window,
            cycle,
            hashes: hashes.to_vec(),
        }
    }

    fn result_with(stream: Vec<WindowFingerprint>) -> SimResult {
        SimResult {
            fingerprints: stream,
            ..SimResult::default()
        }
    }

    #[test]
    fn component_names_follow_the_layout() {
        // (index, tiles) -> expected name, over the documented layout:
        // tile0..tileN-1, llc, txns, noc, dram.
        let table: &[(usize, usize, &str)] = &[
            (0, 4, "tile0"),
            (3, 4, "tile3"),
            (4, 4, "llc"),
            (5, 4, "txns"),
            (6, 4, "noc"),
            (7, 4, "dram"),
            (0, 1, "tile0"),
            (1, 1, "llc"),
            (2, 1, "txns"),
            (3, 1, "noc"),
            (4, 1, "dram"),
            // Indices past the layout still name the last slot (defensive).
            (9, 4, "dram"),
        ];
        for &(index, tiles, expect) in table {
            assert_eq!(
                component_name(index, tiles),
                expect,
                "component_name({index}, {tiles})"
            );
        }
    }

    #[test]
    fn identical_and_empty_streams_compare_clean() {
        let a = vec![window(0, 16, &[1, 2, 3]), window(1, 32, &[4, 5, 6])];
        compare_streams(&a, &a.clone()).expect("identical streams agree");
        compare_streams(&[], &a).expect("an empty side has nothing to check");
        compare_streams(&a, &[]).expect("an empty side has nothing to check");
    }

    #[test]
    fn first_divergent_component_is_named() {
        let a = vec![
            window(0, 16, &[1, 2, 3, 4, 5, 6]),
            window(1, 32, &[5, 6, 7, 8, 9, 10]),
        ];
        let mut b = a.clone();
        b[1].hashes[2] = 99; // tiles = 6 - 4 = 2, so index 2 is "llc".
        let err = compare_streams(&a, &b).expect_err("must diverge");
        assert_eq!(err.kind, SimErrorKind::Divergence);
        assert_eq!(err.component, "llc");
        assert_eq!(err.cycle, 32);
        assert!(err.detail.contains("first divergent window 1"), "{err}");
    }

    #[test]
    fn component_count_mismatch_is_reported_not_truncated() {
        // The shorter window's hashes are a strict prefix of the longer
        // one's: a plain zip would see no difference and walk on. The
        // length check must fire before the per-component loop does.
        let a = vec![window(0, 16, &[1, 2, 3, 4])];
        let b = vec![window(0, 16, &[1, 2, 3, 4, 5, 6])];
        let err = compare_streams(&a, &b).expect_err("layouts differ");
        assert_eq!(err.kind, SimErrorKind::Divergence);
        assert_eq!(err.component, "fingerprint");
        assert!(err.detail.contains("4 vs 6 component hashes"), "{err}");
    }

    #[test]
    fn desynchronized_windows_are_reported() {
        let a = vec![window(0, 16, &[1, 2, 3])];
        let b = vec![window(2, 48, &[1, 2, 3])];
        let err = compare_streams(&a, &b).expect_err("cadences differ");
        assert_eq!(err.kind, SimErrorKind::Divergence);
        assert!(err.detail.contains("desynchronized"), "{err}");
        assert!(err.detail.contains("window 0 vs 2"), "{err}");
    }

    #[test]
    fn length_mismatch_tail_names_the_first_unmatched_window() {
        let shared = window(0, 16, &[1, 2, 3]);
        let a = vec![shared.clone()];
        let b = vec![shared, window(1, 32, &[4, 5, 6])];
        let err = compare_streams(&a, &b).expect_err("stream lengths differ");
        assert_eq!(err.kind, SimErrorKind::Divergence);
        assert!(err.detail.contains("1 vs 2 windows"), "{err}");
        assert!(err.detail.contains("first unmatched window 1"), "{err}");
        assert_eq!(err.cycle, 32);
    }

    #[test]
    fn streams_roundtrip_through_json_bit_exactly() {
        // u64::MAX would be mangled by any float detour.
        let stream = vec![
            window(0, 16, &[u64::MAX, 0, 0xdead_beef_cafe_f00d]),
            window(1, 32, &[1, 2, 3]),
        ];
        let text = stream_to_json(&stream).render();
        let back = stream_from_json(&Json::parse(&text).expect("parses")).expect("roundtrips");
        assert_eq!(back, stream);
        assert!(stream_from_json(&Json::parse("[{\"window\":0}]").unwrap()).is_none());
    }

    #[test]
    fn baseline_comparison_requires_live_fingerprints() {
        let baseline = vec![window(0, 16, &[1, 2, 3])];
        compare_against_baseline(&[], &result_with(Vec::new()))
            .expect("no baseline means nothing to check");
        let err = compare_against_baseline(&baseline, &result_with(Vec::new()))
            .expect_err("an unverified live run must not pass silently");
        assert_eq!(err.kind, SimErrorKind::Internal);
        assert!(err.detail.contains("CLIP_CHECK=full"), "{err}");
        compare_against_baseline(&baseline, &result_with(baseline.clone()))
            .expect("matching live stream verifies");
    }

    #[test]
    fn failed_clean_rerun_surfaces_instead_of_skipping_localization() {
        // Regression: the (Ok, Err) arm used to fall through to the
        // faulted result, silently skipping localization.
        let clean_err = SimError::new(7, "watchdog", SimErrorKind::Deadlock, "stuck");
        let err = localize_outcome(Ok(SimResult::default()), Err(clean_err))
            .expect_err("a missing reference must be loud");
        assert_eq!(err.kind, SimErrorKind::Internal);
        assert_eq!(err.component, "fingerprint");
        assert_eq!(err.cycle, 7);
        assert!(
            err.detail.contains("clean reference re-run failed"),
            "{err}"
        );
        assert!(err.detail.contains("deadlock"), "{err}");

        // Faulted failures still pass through untouched.
        let faulted_err = SimError::new(3, "noc", SimErrorKind::Conservation, "flit lost");
        let out = localize_outcome(Err(faulted_err.clone()), Ok(SimResult::default()))
            .expect_err("faulted failure passes through");
        assert_eq!(out, faulted_err);
    }
}
