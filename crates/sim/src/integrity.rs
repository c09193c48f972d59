//! The integrity auditor: forward-progress watchdog + conservation
//! audits over every component of the system.
//!
//! The cycle loop calls [`System::integrity_tick`] after every tick; at
//! the configured cadence it runs the component audits (NoC flit
//! conservation, DRAM command legality, LLC lookup-ring and event-ring
//! occupancy, every MSHR file's allocation/release balance, every
//! core's ROB/load-queue balance, and every tile's prefetch-queue
//! conservation + address legality), captures a per-component state
//! fingerprint at every enabled level (see [`crate::fingerprint`]), and
//! samples a global progress signature. If the signature does not change
//! for a whole watchdog window while work is still in flight, the run is
//! declared deadlocked with a report naming the stuck transactions and
//! every queue's occupancy. All checks are read-only: simulation results are
//! bit-identical across [`CheckLevel`]s.

use crate::system::System;
use clip_dram::DramModel;
use clip_types::{CheckLevel, Cycle, SimError, SimErrorKind};

/// Default audit cadence in cycles.
pub(crate) const DEFAULT_CHECK_CADENCE: Cycle = 2048;
/// Default forward-progress window in cycles. Generous: FR-FCFS can
/// legitimately starve a plain prefetch for thousands of cycles under
/// saturation, but *some* global progress always happens within this
/// window unless the system is truly wedged.
pub(crate) const DEFAULT_WATCHDOG_WINDOW: Cycle = 50_000;

/// How many stuck transactions the deadlock report names.
const REPORT_TXNS: usize = 5;

/// Auditor state owned by the [`System`].
pub(crate) struct Integrity {
    pub(crate) level: CheckLevel,
    pub(crate) cadence: Cycle,
    pub(crate) window: Cycle,
    /// Last cycle the progress signature changed.
    last_progress: Cycle,
    /// (retired, noc delivered, dram reads+writes, llc lookups fired).
    signature: (u64, u64, u64, u64),
}

impl Integrity {
    pub(crate) fn new(level: CheckLevel, cadence: Cycle, window: Cycle) -> Self {
        Integrity {
            level,
            cadence,
            window,
            last_progress: 0,
            signature: (0, 0, 0, 0),
        }
    }
}

impl System {
    /// Runs the watchdog + audits if the cadence divides `now`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SimError`].
    pub(crate) fn integrity_tick(&mut self, now: Cycle) -> Result<(), SimError> {
        if !self.integrity.level.audits_enabled() || !now.is_multiple_of(self.integrity.cadence) {
            return Ok(());
        }
        let full = self.integrity.level.full();

        self.engine
            .noc
            .audit(full)
            .map_err(|e| component_error(now, "noc", e))?;
        self.engine
            .dram
            .audit(now, full)
            .map_err(|e| component_error(now, "dram", e))?;
        self.engine
            .llc
            .audit(now, full)
            .map_err(|e| component_error(now, "llc", e))?;
        self.engine
            .audit_events()
            .map_err(|e| component_error(now, "events", e))?;
        if full {
            self.engine
                .audit_txns()
                .map_err(|e| component_error(now, "txns", e))?;
            self.engine
                .audit_outboxes()
                .map_err(|e| component_error(now, "outbox", e))?;
        }
        for (i, t) in self.tiles.iter().enumerate() {
            t.l1_mshr
                .audit(now, full)
                .map_err(|e| component_error(now, format!("tile{i}.l1-mshr"), e))?;
            t.l2_mshr
                .audit(now, full)
                .map_err(|e| component_error(now, format!("tile{i}.l2-mshr"), e))?;
            t.core
                .as_ref()
                .expect("core present")
                .audit(full)
                .map_err(|e| component_error(now, format!("tile{i}.core"), e))?;
            t.audit_pf_queue(full)
                .map_err(|e| component_error(now, format!("tile{i}.pf-queue"), e))?;
        }

        // Fingerprints are captured at every enabled check level: `full`
        // hashes per-entry state, `cheap` only the O(1) balances — cheap
        // streams are affordable for long sweeps and still localize
        // occupancy-visible divergence (the baseline store keys the two
        // levels separately).
        self.capture_fingerprint(now, full);

        // Forward progress: the signature moves whenever any core retires
        // or any uncore channel drains anything.
        let sig = self.progress_signature();
        if sig != self.integrity.signature {
            self.integrity.signature = sig;
            self.integrity.last_progress = now;
        } else if self.work_in_flight()
            && now - self.integrity.last_progress >= self.integrity.window
        {
            return Err(SimError::new(
                now,
                "watchdog",
                SimErrorKind::Deadlock,
                self.deadlock_report(now),
            ));
        }
        Ok(())
    }

    fn progress_signature(&self) -> (u64, u64, u64, u64) {
        let retired: u64 = self
            .tiles
            .iter()
            .map(|t| t.core.as_ref().expect("core present").retired())
            .sum();
        let ds = self.engine.dram.total_stats();
        (
            retired,
            self.engine.noc.delivered_count(),
            ds.reads + ds.writes,
            self.engine.llc.fired(),
        )
    }

    fn work_in_flight(&self) -> bool {
        self.engine.live_txns() > 0
            || self.engine.outbox_backlog() > 0
            || self.engine.pending_events() > 0
    }

    /// A structured report of what is stuck: how long nothing has
    /// progressed, then [`Self::queue_snapshot`] (every queue's occupancy
    /// and the oldest live transactions).
    fn deadlock_report(&self, now: Cycle) -> String {
        format!(
            "no forward progress for {} cycles with {}",
            now - self.integrity.last_progress,
            self.queue_snapshot(now),
        )
    }

    /// The diagnostic core of the deadlock report: live-transaction
    /// count, every queue's occupancy, and the oldest in-flight
    /// transactions (tile, line, level, age). Built from simulated state
    /// only, so it is deterministic at any given cycle.
    fn queue_snapshot(&self, now: Cycle) -> String {
        let mut live: Vec<(Cycle, usize)> = self
            .engine
            .txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.live)
            .map(|(i, t)| (t.issue, i))
            .collect();
        live.sort_unstable();
        let mut stuck = String::new();
        for &(issue, i) in live.iter().take(REPORT_TXNS) {
            let t = &self.engine.txns[i];
            stuck.push_str(&format!(
                " txn{i}{{tile={} line={:#x} level={:?} age={}}}",
                t.tile,
                t.line.raw(),
                t.level,
                now.saturating_sub(issue)
            ));
        }
        let l1m: usize = self.tiles.iter().map(|t| t.l1_mshr.len()).sum();
        let l2m: usize = self.tiles.iter().map(|t| t.l2_mshr.len()).sum();
        let rq: usize = (0..self.cfg.dram.channels)
            .map(|c| self.engine.dram.read_queue_len(c))
            .sum();
        format!(
            "{} live txns \
             (l1_mshr={l1m} l2_mshr={l2m} llc_mshr={} outbox={} pf_queue={} \
             dram_read_q={rq} dram_parked={} pending_events={}); oldest:{stuck}",
            live.len(),
            self.engine.llc.mshr_occupancy(),
            self.engine.outbox_backlog(),
            self.tiles.iter().map(|t| t.pf_queue.len()).sum::<usize>(),
            self.engine.dram_parked(),
            self.engine.pending_events(),
        )
    }

    /// Step-mode contract check for one tile that declared itself asleep
    /// at `now` (`wake` is its [`crate::tile::Tile::next_activity`]
    /// answer): ticks it anyway, as the oracle must, and fails when the
    /// tick moved anything beyond the stall counters the event wheel
    /// settles with `skip_stalled`. Catches a late readiness answer at
    /// the tile that gave it, not as a diverged result much later.
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::IllegalState`] for component `tile{t}`,
    /// naming the cycle, the declared wake cycle, and the first state
    /// that moved.
    pub(crate) fn tick_asleep_tile_audited(
        &mut self,
        t: usize,
        now: Cycle,
        wake: Option<Cycle>,
    ) -> Result<(), SimError> {
        let before = self.tiles[t].wake_probe();
        self.tick_tile(t, now);
        let after = self.tiles[t].wake_probe();
        let Some(((what, was), (_, is))) = before.iter().zip(&after).find(|(b, a)| b.1 != a.1)
        else {
            return Ok(());
        };
        let declared = wake.map_or("none (external events only)".to_string(), |c| {
            format!("cycle {c}")
        });
        Err(SimError::new(
            now,
            format!("tile{t}"),
            SimErrorKind::IllegalState,
            format!(
                "tile ticked at cycle {now} before its declared wake ({declared}) \
                 did work: {what} moved {was} -> {is}"
            ),
        ))
    }
}

/// Wraps a component audit failure, classifying legality-scan failures
/// (stale or future-dated entries, addresses outside the simulated
/// space) as illegal state rather than lost work.
fn component_error(now: Cycle, component: impl Into<String>, detail: String) -> SimError {
    let kind = if detail.contains("future")
        || detail.contains("stale")
        || detail.contains("outside the simulated address space")
    {
        SimErrorKind::IllegalState
    } else {
        SimErrorKind::Conservation
    };
    SimError::new(now, component, kind, detail)
}

#[cfg(test)]
mod tests {
    use crate::tile::FORCE_L1_REFUSAL;
    use crate::{run_mix_checked, set_step_override, RunOptions, Scheme, SimResult};
    use clip_trace::Mix;
    use clip_types::{CheckLevel, PrefetcherKind, SimConfig, SimError, SimErrorKind};

    /// A short bandwidth-starved step-mode run under full checks, with
    /// every tile's readiness answer optionally forced to "port refuses".
    fn stepped_run(force_refusal: bool) -> Result<SimResult, SimError> {
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(1)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        let spec = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
        let opts = RunOptions {
            warmup_instrs: 200,
            sim_instrs: 1_000,
            seed: 5,
            check: Some(CheckLevel::Full),
            ..RunOptions::default()
        };
        set_step_override(Some(true));
        FORCE_L1_REFUSAL.with(|f| f.set(force_refusal));
        let r = run_mix_checked(
            &cfg,
            &Scheme::with_clip(),
            &Mix::homogeneous(&spec, 4),
            &opts,
        );
        FORCE_L1_REFUSAL.with(|f| f.set(false));
        set_step_override(None);
        r
    }

    #[test]
    fn step_mode_contract_check_catches_a_wrong_readiness_answer() {
        stepped_run(false).expect("truthful readiness answers pass the check");
        let e = stepped_run(true).expect_err("a tile that sleeps through an open port");
        assert_eq!(e.kind, SimErrorKind::IllegalState, "{e}");
        assert!(e.component.starts_with("tile"), "{e}");
        assert!(
            e.detail.contains(&format!("ticked at cycle {}", e.cycle))
                && e.detail.contains("before its declared wake"),
            "{e}"
        );
    }
}
