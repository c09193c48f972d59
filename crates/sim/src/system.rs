//! The many-core system: wiring and the cycle loop.
//!
//! `System` composes the per-core tiles (`tile.rs`) and the `Engine`
//! (clock, NoC, DRAM, the clocked LLC of `llc.rs`, transactions, event
//! wheel). Demand and prefetch requests flow
//! L1D → L2 → (NoC) → LLC slice → (NoC) → DRAM channel and back, with
//! MSHRs at every level providing merging and back-pressure. All the
//! contention the paper depends on is modeled: finite MSHRs, NoC link/VC
//! arbitration, DRAM queues, banks and the data bus.
//!
//! The subsystem logic lives next to its state: core-side paths in
//! `tile.rs`, uncore message flow in `engine.rs`, the counter gather and
//! windowed reporting in `counters.rs`. This file only builds the parts
//! and drives them each cycle.

use crate::engine::{Engine, Ev, NocChoice};
use crate::fault::{FaultHarness, FaultKind, FaultSpec};
use crate::integrity::{Integrity, DEFAULT_CHECK_CADENCE, DEFAULT_WATCHDOG_WINDOW};
use crate::result::SimResult;
use crate::scheme::Scheme;
use crate::tile::Tile;
use clip_cache::{Cache, MshrFile};
use clip_core::{Clip, Governor};
use clip_cpu::Core;
use clip_crit::{EvalCounts, PredictorEvaluator};
use clip_dram::DramModel;
use clip_offchip::{DsPatch, Hermes};
use clip_prefetch::PrefetchCandidate;
use clip_throttle::EpochFeedback;
use clip_trace::Mix;
use clip_types::{CheckLevel, Cycle, MemLevel, PrefetcherKind, SimConfig, SimError};
use std::collections::{HashMap, VecDeque};

const THROTTLE_EPOCH: Cycle = 8192;
const DSPATCH_EPOCH: Cycle = 2048;

/// The simulated many-core system.
pub struct System {
    pub(crate) cfg: SimConfig,
    pub(crate) scheme: Scheme,
    pub(crate) tiles: Vec<Tile>,
    /// Shared non-tile state: clock, NoC, DRAM, LLC, transactions, events.
    pub(crate) engine: Engine,
    /// The §5.3 Dynamic CLIP bandwidth governor (DynCLIP schemes only):
    /// one for the whole system, gating every tile's CLIP.
    pub(crate) governor: Option<Governor>,
    pub(crate) cand_scratch: Vec<PrefetchCandidate>,
    pub(crate) branch_scratch: Vec<bool>,
    dspatch_prev_channel: Vec<u64>,
    /// Watchdog + auditor state (see [`crate::integrity`]).
    pub(crate) integrity: Integrity,
    /// Armed fault, if any (see [`crate::fault`]).
    pub(crate) fault: Option<FaultHarness>,
    /// Per-window state fingerprints, captured whenever audits run (see
    /// [`crate::fingerprint`]).
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
                    core: Some(Box::new(Core::new(&cfg.core))),
                    gen: Some(Box::new(
                        spec.generator(seed ^ (i as u64).wrapping_mul(0x9E37)),
                    )),
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
                        Clip::new(c)
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
                    pf_queue: VecDeque::new(),
                    lat: crate::result::LatencyReport::default(),
                    pf_candidates: 0,
                    pf_issued: 0,
                    clip_bypassed: 0,
                    l1_window_accesses: 0,
                    window_start: 0,
                    epoch_useful: 0,
                    epoch_useless: 0,
                    epoch_late: 0,
                    measured_cycles: None,
                    pf_queued: 0,
                    pf_dequeued: 0,
                    pf_queued_eng: [0; clip_types::MAX_PF_ENGINES],
                    pf_dequeued_eng: [0; clip_types::MAX_PF_ENGINES],
                    wake: None,
                    settled: 0,
                }
            })
            .collect();

        System {
            cfg: cfg.clone(),
            scheme: scheme.clone(),
            tiles,
            engine: Engine::new(cfg, noc),
            governor: (scheme.dynamic && scheme.clip.is_some()).then(Governor::default),
            cand_scratch: Vec::with_capacity(32),
            branch_scratch: Vec::with_capacity(16),
            dspatch_prev_channel: vec![0; cfg.dram.channels],
            integrity: Integrity::new(
                CheckLevel::from_env(),
                DEFAULT_CHECK_CADENCE,
                DEFAULT_WATCHDOG_WINDOW,
            ),
            fault: None,
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

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.engine.now
    }

    // ------------------------------------------------------------------
    // The cycle loop.
    // ------------------------------------------------------------------

    /// Advances the whole system one cycle: spilled packets re-inject,
    /// the NoC, DRAM and LLC tick and their outputs go to the uncore
    /// handlers, parked DRAM reads retry, the event wheel fires, and the
    /// tiles tick (prefetch issue + core).
    ///
    /// On the event wheel only the tiles whose [`Tile::next_activity`]
    /// is due tick; every other tile sleeps untouched, its stall counters
    /// settled lazily ([`Tile::settle`]). The answer holds until the
    /// tile's own tick, a tile-facing event or a landed fault clears its
    /// cached copy ([`Tile::wake`]); faults and events come before the
    /// tile loop, so it is final for the cycle. With `step` every tile
    /// ticks every cycle (the oracle); under `CLIP_CHECK=full` each tick
    /// of a tile that declared itself asleep is audited against that
    /// promise.
    ///
    /// # Errors
    ///
    /// Returns [`SimErrorKind::IllegalState`] when the step-mode contract
    /// check catches a tile doing work before its declared wake cycle.
    ///
    /// [`SimErrorKind::IllegalState`]: clip_types::SimErrorKind::IllegalState
    pub(crate) fn tick(&mut self, step: bool) -> Result<(), SimError> {
        let now = self.engine.now;

        self.apply_faults(now);
        self.engine.drain_outboxes();

        let lose_deliveries = self
            .fault
            .as_ref()
            .is_some_and(|f| f.spec.kind == FaultKind::LoseDelivery && now >= f.spec.at);
        self.engine.tick_uncore(lose_deliveries);

        // Parked DRAM reads retrying this cycle go before the events: a
        // retry precedes every first attempt of its cycle (see
        // `Engine::admit_dram_waiters`).
        self.engine.admit_dram_waiters(now);

        // Local scheduled events: tile-facing ones are handled here,
        // uncore ones forward straight back into the engine.
        let mut evs = self.engine.take_events();
        for ev in evs.drain(..) {
            self.handle_event(ev);
        }
        self.engine.restore_events(evs);

        // Tiles: prefetch issue + core tick.
        let audit = step && self.integrity.level.full();
        for t in 0..self.tiles.len() {
            if step && !audit {
                self.tick_tile(t, now);
                continue;
            }
            match self.tiles[t].cached_next_activity(now) {
                Some(wake) if wake <= now => self.tick_tile(t, now),
                wake if step => self.tick_asleep_tile_audited(t, now, wake)?,
                _ => {}
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
            if let Some(gov) = self.governor.as_mut() {
                gov.on_bandwidth_sample(self.engine.dram.bandwidth_utilization(now.max(1)));
            }
        }

        self.engine.now += 1;
        Ok(())
    }

    /// Dispatches one event-wheel entry. Tile-facing events (responses,
    /// L2 lookups, data returns) need tile state and stay here; the
    /// uncore events forward to the [`Engine`], which owns those paths.
    pub(crate) fn handle_event(&mut self, ev: Ev) {
        let now = self.engine.now;
        let tile = match ev {
            Ev::L1Respond { tile, .. } => Some(tile as usize),
            Ev::L2Lookup { txn } | Ev::TileData { txn } => {
                Some(self.engine.txns[txn as usize].tile as usize)
            }
            Ev::DramEnqueue { .. } | Ev::WbDram { .. } => None,
        };
        if let Some(t) = tile {
            self.tiles[t].settle(now);
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
    /// minimum over every component's `next_activity` answer and
    /// the engine-level wheel constraints (periodic controllers, audit
    /// cadence, the armed fault's trigger cycle).
    /// Always finite — the DSPatch epoch recurs every `DSPATCH_EPOCH`
    /// cycles and mutates controller state unconditionally, so no skip
    /// ever exceeds one epoch.
    fn next_interesting(&mut self) -> Cycle {
        let now = self.engine.now;
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
        // fire exactly as in a cycle-by-cycle run.
        if self.integrity.level.audits_enabled() {
            fold(
                (now + 1).next_multiple_of(self.integrity.cadence) - 1,
                &mut next,
            );
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

    /// Advances the clock straight to `target`, settling the DRAM
    /// bus-busy tail the skipped ticks would have counted; the sleeping
    /// tiles settle their own stall counters lazily ([`Tile::settle`]).
    /// Only sound when every cycle in `now..target` is quiescent per
    /// [`System::next_interesting`].
    fn skip_to(&mut self, target: Cycle) {
        let now = self.engine.now;
        debug_assert!(target > now);
        self.engine.dram.skip_idle(now, target);
        self.engine.now = target;
    }

    /// Settles every tile's sleep span up to the current cycle, so the
    /// core stall counters are complete.
    fn settle_tiles(&mut self) {
        let now = self.engine.now;
        for t in self.tiles.iter_mut() {
            t.settle(now);
        }
    }

    /// One scheduler step: when the next interesting cycle is in the
    /// future, skip straight to it (capped at `max_cycles`) and report
    /// `true`; otherwise the current cycle must be ticked.
    fn try_skip(&mut self, max_cycles: Cycle) -> bool {
        let now = self.engine.now;
        let target = self.next_interesting().min(max_cycles);
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
        // A landing fault may touch a sleeping core.
        self.settle_tiles();
        let sel = self
            .fault
            .as_mut()
            .expect("checked present above")
            .selector();
        let landed = match kind {
            FaultKind::DropFlit => self.engine.noc.inject_drop_flit(sel),
            FaultKind::SwallowDramCompletion => self.engine.dram.inject_swallow_completion(sel),
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
            .bandwidth_utilization(THROTTLE_EPOCH.max(now));
        let total_transfers: u64 = {
            let s = self.engine.dram.total_stats();
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
            let s = self.engine.dram.stats(ch);
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
    /// conservation auditor fires (see `integrity.rs`). Audits are
    /// read-only: a run that completes returns bit-identical results at
    /// every [`CheckLevel`].
    pub fn run_checked(
        &mut self,
        warmup: u64,
        measure: u64,
        max_cycles: Cycle,
    ) -> Result<SimResult, SimError> {
        // Warmup phase.
        let step = crate::step_mode();
        while self.cycle() < max_cycles {
            if self
                .tiles
                .iter()
                .all(|t| t.core.as_ref().expect("core present").retired() >= warmup)
            {
                break;
            }
            if !step && self.try_skip(max_cycles) {
                continue;
            }
            self.tick(step)?;
            self.integrity_tick(self.cycle())?;
        }
        self.settle_tiles();
        // The per-IP behaviour records cannot be windowed by subtraction,
        // and nothing the simulation reads depends on them: they restart
        // here. Every other counter keeps running.
        for t in self.tiles.iter_mut() {
            t.ip_behavior.clear();
            for ev in t.evaluators.iter_mut() {
                ev.clear_scores();
            }
        }
        let start = self.gather();

        // Measurement phase.
        while self.cycle() < max_cycles {
            let now = self.cycle();
            let mut all_done = true;
            for (i, t) in self.tiles.iter_mut().enumerate() {
                if t.measured_cycles.is_none() {
                    let retired = t.core.as_ref().expect("core present").retired();
                    if retired >= start.retired(i) + measure {
                        t.measured_cycles = Some(now.max(start.cycle + 1) - start.cycle);
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
            if !step && self.try_skip(max_cycles) {
                continue;
            }
            self.tick(step)?;
            self.integrity_tick(self.cycle())?;
        }

        self.settle_tiles();
        let window = self.gather().since(&start);
        Ok(self.assemble(&window, measure))
    }
}

#[cfg(test)]
mod tests {
    use super::System;
    use crate::{
        run_mix_checked, set_step_override, FaultKind, FaultSpec, NocChoice, RunOptions, Scheme,
    };
    use clip_core::{ClipMode, Governor};
    use clip_cpu::CoreStats;
    use clip_trace::{catalog, Mix};
    use clip_types::{CheckLevel, Cycle, DramKind, Fnv64, PrefetcherKind, SimConfig};

    const SEED: u64 = 11;

    /// A configuration whose DRAM read queues overflow, so transactions
    /// park behind them.
    struct AdmissionRow {
        label: &'static str,
        cfg: SimConfig,
        scheme: Scheme,
        mix: Mix,
        noc: NocChoice,
        fault: Option<FaultSpec>,
    }

    impl AdmissionRow {
        fn opts(&self) -> RunOptions {
            RunOptions {
                warmup_instrs: 200,
                sim_instrs: 800,
                seed: SEED,
                noc: self.noc,
                check: Some(CheckLevel::Cheap),
                check_cadence: 256,
                fault: self.fault,
                ..RunOptions::default()
            }
        }
    }

    fn admission_rows() -> Vec<AdmissionRow> {
        let one_channel = |cores: usize, pf: PrefetcherKind| {
            SimConfig::builder()
                .cores(cores)
                .dram_channels(1)
                .l1_prefetcher(pf)
                .build()
                .expect("valid config")
        };
        let homogeneous = |name: &str, cores: usize| {
            Mix::homogeneous(&catalog::by_name(name).expect("known"), cores)
        };
        let mut short_queue = SimConfig::builder()
            .cores(4)
            .dram_channels(2)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        short_queue.dram.read_queue = 4;
        vec![
            AdmissionRow {
                label: "16c/1ch berti+clip analytic",
                cfg: one_channel(16, PrefetcherKind::Berti),
                scheme: Scheme::with_clip(),
                mix: clip_trace::heterogeneous_mixes(1, 16, 3).remove(0),
                noc: NocChoice::Analytic,
                fault: None,
            },
            AdmissionRow {
                label: "8c/1ch berti+hermes",
                cfg: one_channel(8, PrefetcherKind::Berti),
                scheme: Scheme::with_hermes(),
                mix: homogeneous("605.mcf_s-472B", 8),
                noc: NocChoice::Analytic,
                fault: None,
            },
            AdmissionRow {
                label: "8c/1ch hbm+refresh berti",
                cfg: SimConfig::builder()
                    .cores(8)
                    .dram_backend(DramKind::Hbm)
                    .dram_refresh(true)
                    .dram_channels(1)
                    .l1_prefetcher(PrefetcherKind::Berti)
                    .build()
                    .expect("valid config"),
                scheme: Scheme::plain(),
                mix: homogeneous("619.lbm_s-4268B", 8),
                noc: NocChoice::Analytic,
                fault: None,
            },
            AdmissionRow {
                label: "8c/1ch composite+clip flip-criticality",
                cfg: one_channel(8, PrefetcherKind::Composite),
                scheme: Scheme::with_clip(),
                mix: homogeneous("603.bwaves_s-891B", 8),
                noc: NocChoice::Analytic,
                fault: Some(FaultSpec {
                    kind: FaultKind::FlipCriticality,
                    at: 3_000,
                }),
            },
            AdmissionRow {
                label: "4c/2ch mesh read_queue=4",
                cfg: short_queue,
                scheme: Scheme::with_clip(),
                mix: clip_trace::heterogeneous_mixes(1, 4, 5).remove(0),
                noc: NocChoice::Mesh,
                fault: None,
            },
        ]
    }

    /// Runs `row` and folds its rendered report and its cheap fingerprint
    /// stream into one [`Fnv64`]. The stream's transaction balance counts
    /// parked transactions, so it must match polled retries window by
    /// window.
    fn pinned_hash(row: &AdmissionRow, step: bool) -> u64 {
        set_step_override(Some(step));
        let r = run_mix_checked(&row.cfg, &row.scheme, &row.mix, &row.opts());
        set_step_override(None);
        let r = r.expect("run completes");
        assert!(!r.fingerprints.is_empty(), "{}: no fingerprints", row.label);
        let mut h = r.to_json().render().bytes().fold(Fnv64::new(), |mut h, b| {
            h.write_u64(u64::from(b));
            h
        });
        for w in &r.fingerprints {
            h.write_u64(w.cycle);
            for &x in &w.hashes {
                h.write_u64(x);
            }
        }
        h.finish()
    }

    /// Pins DRAM admission against the polled retries it replaced: each
    /// row, on the wheel and stepped, hashes to its pinned value. The
    /// fingerprint streams folded in are those recorded from the engine
    /// that re-scheduled a refused read every `RETRY_DELAY` cycles; the
    /// rendered reports were re-pinned when every reported counter became
    /// windowed, which moved only CLIP's counters and
    /// `dram_max_channel_util`, and when the report lost its always-empty
    /// `timeline` key. Each row also shows it reaches the parked path:
    /// stepping `System::tick` directly, some transaction parks.
    #[test]
    fn dram_admission_is_pinned() {
        const REACH_CYCLES: Cycle = 20_000;
        #[rustfmt::skip]
        const EXPECTED: &[(&str, u64)] = &[
            ("16c/1ch berti+clip analytic", 0xf0f7_bd1a_56b5_1e25),
            ("8c/1ch berti+hermes", 0xe156_6452_4d54_039e),
            ("8c/1ch hbm+refresh berti", 0xadea_4c66_4d52_a360),
            ("8c/1ch composite+clip flip-criticality", 0x0952_d7fc_8705_dfc1),
            ("4c/2ch mesh read_queue=4", 0x45d0_a86a_4f20_ce1d),
        ];
        let rows = admission_rows();
        assert_eq!(rows.len(), EXPECTED.len());
        for (row, &(label, want)) in rows.iter().zip(EXPECTED) {
            assert_eq!(row.label, label);
            for step in [false, true] {
                let got = pinned_hash(row, step);
                assert_eq!(got, want, "{label} (step={step}): got {got:#018x}");
            }
            let mut sys = System::new(&row.cfg, &row.scheme, &row.mix, SEED, row.noc);
            if let Some(f) = row.fault {
                sys.set_fault(f, SEED);
            }
            let parked = (0..REACH_CYCLES).any(|_| {
                sys.tick(true).expect("unaudited tick");
                sys.engine.dram_parked() > 0
            });
            assert!(parked, "{label}: nothing parked in {REACH_CYCLES} cycles");
        }
    }

    /// Every tile's core counters at the end of a run on the wheel or
    /// stepped.
    fn core_stats(cfg: &SimConfig, mix: &Mix, noc: NocChoice, step: bool) -> Vec<CoreStats> {
        set_step_override(Some(step));
        let mut sys = System::new(cfg, &Scheme::with_clip(), mix, SEED, noc);
        let r = sys.run_checked(200, 600, 2_000_000);
        set_step_override(None);
        r.expect("run completes");
        sys.tiles
            .iter()
            .map(|t| *t.core.as_ref().expect("core present").stats())
            .collect()
    }

    /// The stall counters a sleeping tile settles lazily are not in the
    /// report, so a dropped sleep span would only show here: wheel and
    /// step must agree on every tile's `CoreStats` at run end.
    #[test]
    fn core_stats_match_between_wheel_and_step() {
        for (cores, channels, noc) in [(16, 1, NocChoice::Analytic), (8, 2, NocChoice::Mesh)] {
            let cfg = SimConfig::builder()
                .cores(cores)
                .dram_channels(channels)
                .l1_prefetcher(PrefetcherKind::Berti)
                .build()
                .expect("valid config");
            let mix = clip_trace::heterogeneous_mixes(1, cores, 3).remove(0);
            let label = format!("{cores}c/{channels}ch {noc:?}");
            let wheel = core_stats(&cfg, &mix, noc, false);
            assert_eq!(wheel, core_stats(&cfg, &mix, noc, true), "{label}");
            assert!(
                wheel
                    .iter()
                    .any(|s| s.head_stall_cycles_beyond_l1 > 0 && s.dispatch_blocked_mem > 0),
                "{label}: no tile stalled on memory"
            );
        }
    }

    /// While the governor bypasses CLIP, the gate never consults it, yet
    /// every tile's CLIP keeps training on the loads that complete: its
    /// criticality predictions come true, so the filter and predictor are
    /// warm the moment filtering resumes.
    #[test]
    fn clip_trains_while_the_governor_bypasses() {
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(16)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        let mix = Mix::homogeneous(&catalog::by_name("605.mcf_s-1554B").expect("known"), 4);
        let mut sys = System::new(
            &cfg,
            &Scheme::with_dynamic_clip(),
            &mix,
            SEED,
            NocChoice::Analytic,
        );
        let gov = sys.governor.as_mut().expect("DynCLIP has a governor");
        for _ in 0..4 {
            gov.on_bandwidth_sample(0.0);
        }
        for _ in 0..20_000 {
            sys.tick(true).expect("unaudited tick");
        }
        let mode = sys.governor.as_ref().map(Governor::mode);
        assert_eq!(mode, Some(ClipMode::Bypassed), "ample bandwidth");
        for (i, t) in sys.tiles.iter().enumerate() {
            let clip = t.clip.as_ref().expect("CLIP on every tile");
            assert_eq!(clip.stats().candidates, 0, "tile{i}: gate consulted CLIP");
        }
        assert!(sys.tiles.iter().any(|t| t.pf_issued > 0), "nothing issued");
        let hits: u64 = sys.tiles.iter().map(|t| t.clip_eval.true_positive).sum();
        assert!(hits > 0, "no CLIP prediction came true: untrained");
    }
}
