//! The many-core system: wiring and the cycle loop.
//!
//! `System` composes the per-core tiles ([`crate::tile`]) and the
//! [`Engine`] (clock, NoC, DRAM, the clocked LLC — [`crate::llc`] —
//! transactions, event wheel). Demand and prefetch requests flow
//! L1D → L2 → (NoC) → LLC slice → (NoC) → DRAM channel and back, with
//! MSHRs at every level providing merging and back-pressure. All the
//! contention the paper depends on is modeled: finite MSHRs, NoC link/VC
//! arbitration, DRAM queues, banks and the data bus.
//!
//! The subsystem logic lives next to its state: core-side paths in
//! `tile.rs`, uncore message flow in `engine.rs`, delta reporting in
//! `snapshot.rs`. This file only builds the parts and drives them
//! through the [`Tick`] contract each cycle.

use crate::engine::{DramImpl, Engine, EngineParams, Ev, NocChoice, NocImpl};
use crate::fault::{FaultHarness, FaultKind, FaultSpec};
use crate::integrity::{Integrity, JobDeadline, DEFAULT_CHECK_CADENCE, DEFAULT_WATCHDOG_WINDOW};
use crate::result::SimResult;
use crate::scheme::Scheme;
use crate::tile::{Tile, TileTick, PF_QUEUE_CAP};
use clip_cache::{Cache, MshrFile};
use clip_core::DynamicClip;
use clip_cpu::Core;
use clip_crit::{EvalCounts, PredictorEvaluator};
use clip_dram::DramModel;
use clip_noc::NocModel;
use clip_offchip::{DsPatch, Hermes};
use clip_prefetch::PrefetchCandidate;
use clip_throttle::EpochFeedback;
use clip_trace::Mix;
use clip_types::{CheckLevel, Cycle, MemLevel, Port, PrefetcherKind, SimConfig, SimError, Tick};
use std::collections::HashMap;

const THROTTLE_EPOCH: Cycle = 8192;
const DSPATCH_EPOCH: Cycle = 2048;

/// The simulated many-core system.
pub struct System {
    pub(crate) cfg: SimConfig,
    pub(crate) scheme: Scheme,
    pub(crate) tiles: Vec<Tile>,
    /// Shared non-tile state: clock, NoC, DRAM, LLC, transactions, events.
    pub(crate) engine: Engine,
    pub(crate) cand_scratch: Vec<PrefetchCandidate>,
    pub(crate) branch_scratch: Vec<bool>,
    dspatch_prev_channel: Vec<u64>,
    /// Timeline sampling interval in cycles (0 = off).
    pub(crate) timeline_interval: Cycle,
    pub(crate) timeline: Vec<crate::result::TimelinePoint>,
    pub(crate) tl_prev: (u64, u64, u64), // (retired, dram transfers, prefetches)
    pub(crate) tl_start: Cycle,
    /// Watchdog + auditor state (see [`crate::integrity`]).
    pub(crate) integrity: Integrity,
    /// Armed wall-clock budget, if any (see [`crate::integrity`]).
    pub(crate) deadline: Option<JobDeadline>,
    /// Armed fault, if any (see [`crate::fault`]).
    pub(crate) fault: Option<FaultHarness>,
    /// Per-window state fingerprints, captured under `CLIP_CHECK=full`
    /// (see [`crate::fingerprint`]).
    pub(crate) fingerprints: Vec<crate::fingerprint::WindowFingerprint>,
}

impl System {
    /// Builds the system for a mix under a scheme.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid or the mix does not match
    /// `cfg.cores`.
    pub fn new(cfg: &SimConfig, scheme: &Scheme, mix: &Mix, seed: u64, noc: NocChoice) -> Self {
        cfg.validate().expect("valid configuration");
        assert_eq!(mix.cores(), cfg.cores, "mix must match core count");

        let tiles = (0..cfg.cores)
            .map(|i| {
                let spec = &mix.workloads[i];
                let clip_at_l1 = cfg.l1_prefetcher != PrefetcherKind::None;
                Tile {
                    core: Some(Core::new(&cfg.core)),
                    gen: Some(spec.generator(seed ^ (i as u64).wrapping_mul(0x9E37))),
                    addr_base: ((i as u64) + 1) << 42,
                    l1d: Cache::new(&cfg.l1d),
                    l1_mshr: MshrFile::new(cfg.l1d.mshrs),
                    l2: Cache::new(&cfg.l2),
                    l2_mshr: MshrFile::new(cfg.l2.mshrs),
                    l1_pf: (cfg.l1_prefetcher != PrefetcherKind::None)
                        .then(|| clip_prefetch::build(cfg.l1_prefetcher)),
                    l2_pf: (cfg.l2_prefetcher != PrefetcherKind::None)
                        .then(|| clip_prefetch::build(cfg.l2_prefetcher)),
                    clip: scheme.clip.clone().map(|mut c| {
                        // CLIP arbitrates between the member engines of a
                        // composite ensemble at its attachment level.
                        let attached = if clip_at_l1 {
                            cfg.l1_prefetcher
                        } else {
                            cfg.l2_prefetcher
                        };
                        if attached == PrefetcherKind::Composite {
                            c.engines = clip_prefetch::COMPOSITE_ENGINES;
                        }
                        match &scheme.dynamic {
                            Some(d) => DynamicClip::new(clip_core::DynamicClipConfig {
                                clip: c,
                                ..d.clone()
                            }),
                            None => DynamicClip::pinned(c),
                        }
                    }),
                    clip_at_l1,
                    clip_eval: EvalCounts::default(),
                    ip_behavior: HashMap::new(),
                    crit_gate: scheme.crit_gate.map(clip_crit::build),
                    throttler: scheme.throttler.map(clip_throttle::build),
                    hermes: scheme.hermes.then(Hermes::new),
                    dspatch: scheme.dspatch.then(DsPatch::new),
                    evaluators: if scheme.evaluate_baselines {
                        clip_crit::BaselineKind::all()
                            .into_iter()
                            .map(|k| PredictorEvaluator::new(clip_crit::build(k)))
                            .collect()
                    } else {
                        Vec::new()
                    },
                    pf_queue: Port::bounded(PF_QUEUE_CAP),
                    lat: crate::result::LatencyReport::default(),
                    pf_candidates: 0,
                    pf_issued: 0,
                    l1_window_accesses: 0,
                    window_start: 0,
                    epoch_useful: 0,
                    epoch_useless: 0,
                    epoch_late: 0,
                    warmup_retired: 0,
                    finish_cycle: None,
                    pf_queued: 0,
                    pf_dequeued: 0,
                    pf_queued_eng: [0; clip_types::MAX_PF_ENGINES],
                    pf_dequeued_eng: [0; clip_types::MAX_PF_ENGINES],
                    wake: None,
                }
            })
            .collect();

        System {
            cfg: cfg.clone(),
            scheme: scheme.clone(),
            tiles,
            engine: Engine::new(
                NocImpl::build(noc, cfg),
                DramImpl::build(&cfg.dram),
                crate::llc::ClockedLlc::new(cfg),
                EngineParams::from_config(cfg),
            ),
            cand_scratch: Vec::with_capacity(32),
            branch_scratch: Vec::with_capacity(16),
            dspatch_prev_channel: vec![0; cfg.dram.channels],
            timeline_interval: 0,
            timeline: Vec::new(),
            tl_prev: (0, 0, 0),
            tl_start: 0,
            integrity: Integrity::new(
                CheckLevel::from_env(),
                DEFAULT_CHECK_CADENCE,
                DEFAULT_WATCHDOG_WINDOW,
            ),
            fault: None,
            deadline: None,
            fingerprints: Vec::new(),
        }
    }

    /// Overrides the auditor configuration (`0` keeps a default).
    pub(crate) fn set_integrity(&mut self, level: CheckLevel, cadence: Cycle, window: Cycle) {
        self.integrity = Integrity::new(
            level,
            if cadence == 0 {
                DEFAULT_CHECK_CADENCE
            } else {
                cadence
            },
            if window == 0 {
                DEFAULT_WATCHDOG_WINDOW
            } else {
                window
            },
        );
    }

    /// Arms a fault for this run.
    pub(crate) fn set_fault(&mut self, spec: FaultSpec, seed: u64) {
        self.fault = Some(FaultHarness::new(spec, seed));
    }

    /// Arms (or clears) the wall-clock budget for this run; the clock
    /// starts now, not at the first tick.
    pub(crate) fn set_deadline(&mut self, budget: Option<std::time::Duration>) {
        self.deadline = budget.map(|budget| JobDeadline {
            start: std::time::Instant::now(),
            budget,
        });
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.engine.now()
    }

    // ------------------------------------------------------------------
    // The cycle loop.
    // ------------------------------------------------------------------

    /// Advances the whole system one cycle: spilled packets re-inject,
    /// the clocked NoC, DRAM and LLC components tick and their output
    /// channels drain into the uncore handlers, the event wheel fires,
    /// and the tiles tick (prefetch issue + core).
    ///
    /// On the event wheel only the tiles whose [`Tile::next_activity`]
    /// is due tick; every other tile is settled with
    /// [`Core::skip_stalled`]. The answer holds until the tile's own
    /// tick, a tile-facing event or a landed fault clears its cached copy
    /// ([`Tile::wake`]); faults and events come before the tile loop, so
    /// it is final for the cycle. With `step` every tile ticks every cycle
    /// (the oracle); under `CLIP_CHECK=full` each tick of a tile that
    /// declared itself asleep is audited against that promise.
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::IllegalState`] when the step-mode contract
    /// check catches a tile doing work before its declared wake cycle.
    ///
    /// [`SimErrorKind::IllegalState`]: clip_types::SimErrorKind::IllegalState
    pub(crate) fn tick(&mut self, step: bool) -> Result<(), SimError> {
        let now = self.engine.now();

        self.apply_faults(now);
        self.engine.drain_outboxes();

        // Clocked components produce into their output channels...
        self.engine.noc.tick(now);
        self.engine.dram.tick(now);
        self.engine.llc.tick(now);

        // ...which drain into the engine-owned uncore handlers.
        let lose_deliveries = self
            .fault
            .as_ref()
            .is_some_and(|f| f.spec.kind == FaultKind::LoseDelivery && now >= f.spec.at);
        self.engine.drain_uncore(now, lose_deliveries);

        // Local scheduled events: tile-facing ones are handled here,
        // uncore ones forward straight back into the engine.
        for ev in self.engine.take_events() {
            self.handle_event(ev);
        }

        // Tiles: prefetch issue + core tick.
        let audit = step && self.integrity.level.full();
        for t in 0..self.tiles.len() {
            if step && !audit {
                TileTick { sys: self, t }.tick(now);
                continue;
            }
            match self.tiles[t].cached_next_activity(now) {
                Some(wake) if wake <= now => TileTick { sys: self, t }.tick(now),
                wake if step => self.tick_asleep_tile_audited(t, now, wake)?,
                _ => self.tiles[t]
                    .core
                    .as_mut()
                    .expect("core present")
                    .skip_stalled(now, 1),
            }
        }

        // Periodic controllers.
        if now > 0 && now.is_multiple_of(THROTTLE_EPOCH) {
            self.throttle_epoch(now);
        }
        if now > 0 && now.is_multiple_of(DSPATCH_EPOCH) {
            self.dspatch_epoch();
            // Dynamic CLIP samples *overall* utilization (not the myopic
            // per-controller view).
            let bw = self.engine.dram.mem.bandwidth_utilization(now.max(1));
            for tile in self.tiles.iter_mut() {
                if let Some(clip) = tile.clip.as_mut() {
                    clip.on_bandwidth_sample(bw);
                }
            }
        }

        self.engine.clock.advance();
        Ok(())
    }

    /// Dispatches one event-wheel entry. Tile-facing events (responses,
    /// L2 lookups, data returns) need tile state and stay here; the
    /// uncore events forward to the [`Engine`], which owns those paths.
    pub(crate) fn handle_event(&mut self, ev: Ev) {
        let now = self.engine.now();
        let tile = match ev {
            Ev::L1Respond { tile, .. } => Some(tile as usize),
            Ev::L2Lookup { txn } | Ev::TileData { txn } => {
                Some(self.engine.txns[txn as usize].tile as usize)
            }
            Ev::DramEnqueue { .. } | Ev::WbDram { .. } => None,
        };
        if let Some(t) = tile {
            self.tiles[t].wake = None;
        }
        match ev {
            Ev::L1Respond { tile, req, issue } => {
                self.respond_core(tile as usize, req, MemLevel::L1, issue, now);
            }
            Ev::L2Lookup { txn } => self.l2_lookup(txn, now),
            Ev::TileData { txn } => self.tile_data(txn, now),
            Ev::DramEnqueue { txn } => self.engine.dram_enqueue(txn, now),
            Ev::WbDram { line } => self.engine.wb_dram(line, now),
        }
    }

    // ------------------------------------------------------------------
    // The skip-ahead scheduler.
    // ------------------------------------------------------------------

    /// The earliest cycle `>= now` that must actually be simulated: the
    /// minimum over every component's [`Tick::next_activity`] answer and
    /// the engine-level wheel constraints (periodic controllers, audit
    /// cadence, timeline sampling, the armed fault's trigger cycle).
    /// Always finite — the DSPatch epoch recurs every `DSPATCH_EPOCH`
    /// cycles and mutates controller state unconditionally, so no skip
    /// ever exceeds one epoch.
    fn next_interesting(&mut self, in_measure: bool, debug_stall: bool) -> Cycle {
        let now = self.engine.now();
        // Periodic controllers fire on every positive multiple of
        // DSPATCH_EPOCH (THROTTLE_EPOCH is a multiple of it).
        let mut next = if now == 0 {
            DSPATCH_EPOCH
        } else {
            now.next_multiple_of(DSPATCH_EPOCH)
        };
        let fold = |cand: Cycle, next: &mut Cycle| {
            if cand < *next {
                *next = cand;
            }
        };
        // Audits + watchdog + fingerprints run post-advance at cadence
        // multiples: simulating cycle `m - 1` makes `integrity_tick(m)`
        // fire exactly as in a cycle-by-cycle run. An armed deadline
        // shares those boundaries (even at `CLIP_CHECK=off`), so it trips
        // at the same simulated cycle under skip-ahead and stepping.
        if self.integrity.level.audits_enabled() || self.deadline.is_some() {
            fold(
                (now + 1).next_multiple_of(self.integrity.cadence) - 1,
                &mut next,
            );
        }
        // Timeline samples are taken post-advance at interval multiples
        // relative to the measurement start.
        if in_measure && self.timeline_interval > 0 {
            let rel = (now + 1).saturating_sub(self.tl_start);
            fold(
                self.tl_start + rel.next_multiple_of(self.timeline_interval) - 1,
                &mut next,
            );
        }
        // CLIP_DEBUG_STALL dumps post-advance every 100k cycles.
        if debug_stall {
            fold((now + 1).next_multiple_of(100_000) - 1, &mut next);
        }
        // An armed, unfired fault must attempt injection at its trigger
        // cycle and then on *every* later cycle until it lands: the
        // selector draws from the seeded RNG per attempt, so skipping
        // retries would desynchronize it from a cycle-by-cycle run.
        if let Some(f) = self.fault.as_ref() {
            if f.fired.is_none() {
                fold(f.spec.at.max(now), &mut next);
            }
        }
        // Component answers are always `>= now`, so the fold can never go
        // below `now`: bail out the moment any source pins the minimum
        // there — every later scan is pure overhead.
        if let Some(c) = self.engine.next_activity(now) {
            fold(c, &mut next);
            if next == now {
                return now;
            }
        }
        for t in &mut self.tiles {
            if let Some(c) = t.cached_next_activity(now) {
                fold(c, &mut next);
                if next == now {
                    return now;
                }
            }
        }
        next
    }

    /// Advances the clock straight to `target`, settling the per-cycle
    /// bulk accounting the skipped ticks would have done (core stall /
    /// dispatch-block counters, the DRAM bus-busy tail). Only sound when
    /// every cycle in `now..target` is quiescent per
    /// [`System::next_interesting`].
    fn skip_to(&mut self, target: Cycle) {
        let now = self.engine.now();
        debug_assert!(target > now);
        let span = target - now;
        for t in self.tiles.iter_mut() {
            t.core
                .as_mut()
                .expect("core present")
                .skip_stalled(now, span);
        }
        self.engine.dram.mem.skip_idle(now, target);
        self.engine.clock.advance_to(target);
    }

    /// One scheduler step: when the next interesting cycle is in the
    /// future, skip straight to it (capped at `max_cycles`) and report
    /// `true`; otherwise the current cycle must be ticked.
    fn try_skip(&mut self, max_cycles: Cycle, in_measure: bool, debug_stall: bool) -> bool {
        let now = self.engine.now();
        let target = self
            .next_interesting(in_measure, debug_stall)
            .min(max_cycles);
        if target > now {
            self.skip_to(target);
            true
        } else {
            false
        }
    }

    /// Triggers the armed one-shot fault once `now` reaches its cycle,
    /// retrying each cycle until a victim exists. `LoseDelivery` only
    /// records its start here; the delivery-drain loop does the damage.
    fn apply_faults(&mut self, now: Cycle) {
        let Some(f) = self.fault.as_ref() else { return };
        if f.fired.is_some() || now < f.spec.at {
            return;
        }
        let kind = f.spec.kind;
        let sel = self
            .fault
            .as_mut()
            .expect("checked present above")
            .selector();
        let landed = match kind {
            FaultKind::DropFlit => self.engine.noc.model.inject_drop_flit(sel),
            FaultKind::SwallowDramCompletion => self.engine.dram.mem.inject_swallow_completion(sel),
            FaultKind::LeakLlcMshr => self.engine.llc.inject_mshr_leak(sel),
            FaultKind::LoseDelivery => true,
            FaultKind::FlipCriticality => self.engine.flip_prefetch_criticality(sel),
            FaultKind::DuplicateDelivery => self.inject_duplicate_delivery(sel),
            FaultKind::CorruptPrefetchAddr => self.inject_corrupt_prefetch(sel),
            FaultKind::StaleRetire => self.inject_stale_retire(sel),
        };
        if landed {
            self.fault.as_mut().expect("checked present above").fired = Some(now);
            for t in self.tiles.iter_mut() {
                t.wake = None;
            }
        }
    }

    /// Fault injection: duplicated load wakeup on the `sel`-th tile with a
    /// load in flight (see [`Core::inject_duplicate_wakeup`]).
    fn inject_duplicate_delivery(&mut self, sel: u64) -> bool {
        let candidates: Vec<usize> = self
            .tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| t.core.as_ref().is_some_and(|c| c.loads_in_flight() > 0))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let t = candidates[(sel % candidates.len() as u64) as usize];
        self.tiles[t]
            .core
            .as_mut()
            .expect("core present")
            .inject_duplicate_wakeup(sel)
    }

    /// Fault injection: corrupted queued-prefetch address on the `sel`-th
    /// tile with a non-empty prefetch queue.
    fn inject_corrupt_prefetch(&mut self, sel: u64) -> bool {
        let candidates: Vec<usize> = self
            .tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.pf_queue.is_empty())
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let t = candidates[(sel % candidates.len() as u64) as usize];
        self.tiles[t].corrupt_queued_prefetch(sel).is_some()
    }

    /// Fault injection: uncredited ROB-head retire on the `sel`-th tile
    /// with a non-empty ROB.
    fn inject_stale_retire(&mut self, sel: u64) -> bool {
        let candidates: Vec<usize> = self
            .tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| t.core.as_ref().is_some_and(|c| c.rob_occupancy() > 0))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let t = candidates[(sel % candidates.len() as u64) as usize];
        self.tiles[t]
            .core
            .as_mut()
            .expect("core present")
            .inject_stale_retire()
    }

    fn throttle_epoch(&mut self, now: Cycle) {
        let bw = self
            .engine
            .dram
            .mem
            .bandwidth_utilization(THROTTLE_EPOCH.max(now));
        let total_transfers: u64 = {
            let s = self.engine.dram.mem.total_stats();
            s.reads + s.writes
        };
        let cores = self.cfg.cores as f64;
        for t in 0..self.tiles.len() {
            if self.tiles[t].throttler.is_none() {
                continue;
            }
            let (useful, useless, late) = {
                let tile = &self.tiles[t];
                (tile.useful(), tile.useless(), tile.late())
            };
            let tile = &mut self.tiles[t];
            let du = useful - tile.epoch_useful;
            let dl = useless - tile.epoch_useless;
            let dlate = late - tile.epoch_late;
            tile.epoch_useful = useful;
            tile.epoch_useless = useless;
            tile.epoch_late = late;
            let resolved = du + dl;
            let accuracy = if resolved == 0 {
                1.0
            } else {
                du as f64 / resolved as f64
            };
            let lateness = if du + dlate == 0 {
                0.0
            } else {
                dlate as f64 / (du + dlate) as f64
            };
            let fb = EpochFeedback {
                accuracy,
                lateness,
                pollution: if resolved == 0 {
                    0.0
                } else {
                    (dl as f64 / resolved as f64).min(1.0)
                },
                bandwidth_util: bw,
                traffic_share: if total_transfers == 0 {
                    0.0
                } else {
                    // Approximation: assume this core's share is its
                    // prefetch issue intensity relative to the system.
                    1.0 / cores
                },
                utility: accuracy * (du as f64 / (resolved.max(1)) as f64),
            };
            let level = tile
                .throttler
                .as_mut()
                .expect("checked above")
                .on_epoch(&fb);
            if let Some(pf) = tile.l1_pf.as_mut() {
                pf.set_level(level);
            }
            if let Some(pf) = tile.l2_pf.as_mut() {
                pf.set_level(level);
            }
        }
    }

    fn dspatch_epoch(&mut self) {
        // Per-controller utilization over the last epoch — the myopic
        // signal DSPatch uses.
        let mut max_util = 0.0f64;
        for ch in 0..self.cfg.dram.channels {
            let s = self.engine.dram.mem.stats(ch);
            let transfers = s.reads + s.writes;
            let delta = transfers - self.dspatch_prev_channel[ch];
            self.dspatch_prev_channel[ch] = transfers;
            let peak = DSPATCH_EPOCH as f64 / self.cfg.dram.burst_cycles as f64;
            max_util = max_util.max(delta as f64 / peak);
        }
        for tile in self.tiles.iter_mut() {
            if let Some(ds) = tile.dspatch.as_mut() {
                ds.set_bandwidth(max_util.min(1.0));
            }
        }
    }

    // ------------------------------------------------------------------
    // Run driver.
    // ------------------------------------------------------------------

    /// Runs warmup + measurement and assembles the result, panicking on
    /// an integrity failure. Prefer [`System::run_checked`] where the
    /// caller can surface errors.
    ///
    /// # Panics
    ///
    /// Panics when the watchdog or an auditor reports a [`SimError`].
    pub fn run(&mut self, warmup: u64, measure: u64, max_cycles: Cycle) -> SimResult {
        self.run_checked(warmup, measure, max_cycles)
            .unwrap_or_else(|e| panic!("simulation integrity failure: {e}"))
    }

    /// Runs warmup + measurement and assembles the result.
    ///
    /// Cores that reach `measure` retired instructions keep executing (the
    /// paper's replay rule) until every core is done. `max_cycles` bounds
    /// pathological runs; unfinished cores report their partial IPC.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the forward-progress watchdog or a
    /// conservation auditor fires (see [`crate::integrity`]). Audits are
    /// read-only: a run that completes returns bit-identical results at
    /// every [`CheckLevel`].
    pub fn run_checked(
        &mut self,
        warmup: u64,
        measure: u64,
        max_cycles: Cycle,
    ) -> Result<SimResult, SimError> {
        // Warmup phase.
        let debug_stall = std::env::var("CLIP_DEBUG_STALL").is_ok();
        let step = crate::step_mode();
        while self.cycle() < max_cycles {
            if self
                .tiles
                .iter()
                .all(|t| t.core.as_ref().expect("core present").retired() >= warmup)
            {
                break;
            }
            if !step && self.try_skip(max_cycles, false, debug_stall) {
                continue;
            }
            self.tick(step)?;
            self.integrity_tick(self.cycle())?;
            self.deadline_tick(self.cycle())?;
            if debug_stall && self.cycle().is_multiple_of(100_000) {
                self.dump_state();
            }
        }
        for t in self.tiles.iter_mut() {
            t.warmup_retired = t.core.as_ref().expect("core present").retired();
            t.finish_cycle = None;
        }
        let snap = self.snapshot();
        self.tl_start = self.cycle();
        self.tl_prev = self.timeline_totals();

        // Measurement phase.
        while self.cycle() < max_cycles {
            let mut all_done = true;
            for t in self.tiles.iter_mut() {
                if t.finish_cycle.is_none() {
                    let retired = t.core.as_ref().expect("core present").retired();
                    if retired >= t.warmup_retired + measure {
                        t.finish_cycle = Some(0); // filled below with cycle
                    } else {
                        all_done = false;
                    }
                }
            }
            // Record the actual finish cycle for cores that just finished.
            let now = self.cycle();
            for t in self.tiles.iter_mut() {
                if t.finish_cycle == Some(0) {
                    t.finish_cycle = Some(now.max(snap.cycle + 1));
                }
            }
            if all_done {
                break;
            }
            if !step && self.try_skip(max_cycles, true, false) {
                continue;
            }
            self.tick(step)?;
            self.integrity_tick(self.cycle())?;
            self.deadline_tick(self.cycle())?;
            if self.timeline_interval > 0
                && (self.cycle() - self.tl_start).is_multiple_of(self.timeline_interval)
            {
                self.sample_timeline(self.cycle());
            }
        }

        Ok(self.assemble(snap, measure))
    }
}
