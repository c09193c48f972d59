//! One core's tile: core + private L1D/L2 + prefetchers + optional
//! CLIP / throttler / gates, plus every simulator path that starts or
//! ends at a tile (demand issue, prefetch gating and issue, L2 lookup,
//! data return, core completion fan-out).
//!
//! Tile-side methods live as `impl System` blocks so they can borrow one
//! tile and the shared [`crate::engine::Engine`] through disjoint
//! `System` fields. [`System::tick_tile`] drives the core, with
//! [`TilePort`] implementing the CPU's [`MemIssuePort`] against the
//! memory hierarchy.

use crate::engine::{Ev, ProbeState, Txn, TxnKind, PROBE_BIT, RETRY_DELAY};
use crate::ports::TxnId;
use crate::result::LatencyReport;
use crate::system::System;
use clip_cache::{Cache, LookupOutcome, MshrFile};
use clip_core::{Clip, ClipMode, Decision, Governor};
use clip_cpu::{Core, MemIssuePort};
use clip_crit::{CriticalityPredictor, EvalCounts, PredictorEvaluator};
use clip_dram::DramModel;
use clip_offchip::{DsPatch, Hermes};
use clip_prefetch::{AccessInfo, PrefetchCandidate, Prefetcher};
use clip_throttle::Throttler;
use clip_trace::{InstrKind, TraceGenerator};
use clip_types::{Addr, Cycle, Ip, LineAddr, MemLevel, Priority, ReqId};
use std::collections::{HashMap, VecDeque};

use crate::ports::NocPayload;

pub(crate) const PF_QUEUE_CAP: usize = 32;
const PF_ISSUE_PER_CYCLE: usize = 2;
/// L2 MSHR entries kept free for demand misses; prefetches beyond this
/// occupancy are dropped.
const L2_MSHR_PF_RESERVE: usize = 8;

#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPrefetch {
    pub line: LineAddr,
    pub trigger_ip: Ip,
    pub fill_l1: bool,
    /// True when the candidate came from the L1-trained prefetcher.
    pub from_l1: bool,
    /// Originating engine inside a composite ensemble (0 for every
    /// single-engine prefetcher); audited per engine, carried through the
    /// transaction so CLIP's per-engine accounting follows the prefetch.
    pub engine: u8,
}

/// Everything private to one core's tile.
pub(crate) struct Tile {
    /// The core and its instruction stream, boxed: [`System::tick_core`]
    /// takes both out of the tile on every tick, and moving a pointer is
    /// cheaper than moving the state.
    pub core: Option<Box<Core>>,
    pub gen: Option<Box<TraceGenerator>>,
    pub addr_base: u64,
    pub l1d: Cache,
    pub l1_mshr: MshrFile,
    pub l2: Cache,
    pub l2_mshr: MshrFile,
    pub l1_pf: Option<Box<dyn Prefetcher>>,
    pub l2_pf: Option<Box<dyn Prefetcher>>,
    pub clip: Option<Clip>,
    /// True when CLIP is attached at the L1 (Berti/IPCP); false for the
    /// L2 attachment (Bingo/SPP-PPF).
    pub clip_at_l1: bool,
    pub clip_eval: EvalCounts,
    /// Observed criticality per IP: (head-stall count, non-critical
    /// completions, predicted-critical at least once). Drives Figure 15's
    /// static/dynamic split and the Figure 13/14 IP-set metrics.
    pub ip_behavior: HashMap<u64, (u32, u32, bool)>,
    pub crit_gate: Option<Box<dyn CriticalityPredictor>>,
    pub throttler: Option<Box<dyn Throttler>>,
    pub hermes: Option<Hermes>,
    pub dspatch: Option<DsPatch>,
    pub evaluators: Vec<PredictorEvaluator>,
    /// Prefetch candidates waiting to issue, oldest first; at most
    /// [`PF_QUEUE_CAP`], the oldest dropped to make room (see
    /// [`Tile::queue_prefetch`]).
    pub pf_queue: VecDeque<QueuedPrefetch>,
    pub lat: LatencyReport,
    pub pf_candidates: u64,
    pub pf_issued: u64,
    /// Candidates the governor's bypass passed without consulting CLIP.
    pub clip_bypassed: u64,
    pub l1_window_accesses: u64,
    /// Cycle the current CLIP exploration window started (APC sampling).
    pub window_start: Cycle,
    // Throttler epoch snapshots.
    pub epoch_useful: u64,
    pub epoch_useless: u64,
    pub epoch_late: u64,
    /// Cycles from the start of measurement until the core retired its
    /// measured instructions; `None` until then.
    pub measured_cycles: Option<Cycle>,
    /// Candidates ever pushed into `pf_queue` (audit counter).
    pub pf_queued: u64,
    /// Entries ever popped from `pf_queue` — issued, dedup-dropped, or
    /// evicted as oldest (audit counter: `pf_queued - pf_dequeued`
    /// must equal the queue occupancy).
    pub pf_dequeued: u64,
    /// Per-engine split of `pf_queued` (composite ensembles; slot 0 for
    /// single-engine prefetchers). Audited per engine.
    pub pf_queued_eng: [u64; clip_types::MAX_PF_ENGINES],
    /// Per-engine split of `pf_dequeued`.
    pub pf_dequeued_eng: [u64; clip_types::MAX_PF_ENGINES],
    /// The event wheel's cached [`Tile::next_activity`] answer, `None`
    /// until asked. Only the tile's own tick, a tile-facing event
    /// ([`System::handle_event`]) or a landed fault can change the
    /// answer, and each of those clears the cache.
    pub wake: Option<Option<Cycle>>,
    /// The first cycle whose per-cycle core accounting is not yet done:
    /// a sleeping tile is settled lazily (see [`Tile::settle`]).
    pub settled: Cycle,
}

impl Tile {
    pub(crate) fn useful(&self) -> u64 {
        self.l1d.stats().useful_prefetches + self.l2.stats().useful_prefetches
    }

    pub(crate) fn useless(&self) -> u64 {
        self.l1d.stats().useless_prefetches + self.l2.stats().useless_prefetches
    }

    pub(crate) fn late(&self) -> u64 {
        self.l1_mshr.late_prefetch_merges() + self.l2_mshr.late_prefetch_merges()
    }

    /// Bounds an engine tag into the audited counter range.
    fn engine_slot(engine: u8) -> usize {
        (engine as usize).min(clip_types::MAX_PF_ENGINES - 1)
    }

    /// Pops the queue head, keeping the aggregate and per-engine balance
    /// counters in lockstep.
    pub(crate) fn dequeue_prefetch(&mut self) -> Option<QueuedPrefetch> {
        let q = self.pf_queue.pop_front()?;
        self.pf_dequeued += 1;
        self.pf_dequeued_eng[Self::engine_slot(q.engine)] += 1;
        Some(q)
    }

    /// Queues a gated prefetch candidate, dropping the oldest when full
    /// (newest candidates reflect the current phase best).
    fn queue_prefetch(&mut self, q: QueuedPrefetch) {
        if self.pf_queue.len() >= PF_QUEUE_CAP {
            self.dequeue_prefetch();
        }
        self.pf_queue.push_back(q);
        self.pf_queued += 1;
        self.pf_queued_eng[Self::engine_slot(q.engine)] += 1;
    }

    /// Audits the tile-private prefetch queue: entry conservation across
    /// queue/issue/drop, occupancy vs capacity, and (with `full`) a
    /// legality scan proving every queued line targets the simulated
    /// address space.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a human-readable string.
    pub(crate) fn audit_pf_queue(&self, full: bool) -> Result<(), String> {
        let len = self.pf_queue.len() as u64;
        if self.pf_queued - self.pf_dequeued != len {
            return Err(format!(
                "pf queue balance broken: queued={} dequeued={} but {} \
                 entries present (leaked {})",
                self.pf_queued,
                self.pf_dequeued,
                len,
                (self.pf_queued - self.pf_dequeued) as i64 - len as i64
            ));
        }
        if self.pf_queue.len() > PF_QUEUE_CAP {
            return Err(format!(
                "pf queue over capacity: {} entries in a {PF_QUEUE_CAP}-entry queue",
                self.pf_queue.len()
            ));
        }
        // Per-engine conservation: the aggregate balance must decompose
        // exactly into the engine-tagged balances (composite ensembles;
        // single-engine tiles trivially audit slot 0 only).
        for e in 0..clip_types::MAX_PF_ENGINES {
            let present = self
                .pf_queue
                .iter()
                .filter(|q| Self::engine_slot(q.engine) == e)
                .count() as u64;
            if self.pf_queued_eng[e] - self.pf_dequeued_eng[e] != present {
                return Err(format!(
                    "pf queue balance broken for engine {e}: queued={} \
                     dequeued={} but {present} entries present",
                    self.pf_queued_eng[e], self.pf_dequeued_eng[e],
                ));
            }
        }
        if self.pf_queued_eng.iter().sum::<u64>() != self.pf_queued
            || self.pf_dequeued_eng.iter().sum::<u64>() != self.pf_dequeued
        {
            return Err(format!(
                "pf queue engine split out of sync with aggregate: \
                 queued {} vs {:?}, dequeued {} vs {:?}",
                self.pf_queued, self.pf_queued_eng, self.pf_dequeued, self.pf_dequeued_eng,
            ));
        }
        if full {
            for q in self.pf_queue.iter() {
                if !line_in_address_space(q.line) {
                    return Err(format!(
                        "queued prefetch for line {:#x} points outside the \
                         simulated address space",
                        q.line.raw()
                    ));
                }
            }
        }
        Ok(())
    }

    /// The L1D port's refusal test, side-effect free: an access to `line`
    /// is refused when it misses the L1D while every L1 MSHR is taken by
    /// other lines. The issue paths run this before touching any state,
    /// so a refused access changes nothing, and only a data return on
    /// this tile (completing an MSHR or filling the line) can flip it.
    pub(crate) fn l1_accepts(&self, line: LineAddr) -> bool {
        !self.l1_mshr.is_full() || self.l1_mshr.contains(line) || self.l1d.contains(line)
    }

    /// The earliest cycle `>= now` at which ticking this tile does real
    /// work: a queued prefetch wants issuing, or the core's dispatch /
    /// retire side has something to do behind this tile's L1 port (see
    /// [`Core::next_activity_with_port`]). `None` means the tile only
    /// wakes on a data return or load completion.
    pub(crate) fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if !self.pf_queue.is_empty() {
            return Some(now);
        }
        self.core
            .as_ref()
            .expect("core present")
            .next_activity_with_port(now, |addr| {
                self.l1_accepts(addr.line()) && !refusal_forced()
            })
    }

    /// [`Tile::next_activity`] through the [`Tile::wake`] cache.
    pub(crate) fn cached_next_activity(&mut self, now: Cycle) -> Option<Cycle> {
        if let Some(wake) = self.wake {
            return wake;
        }
        let wake = self.next_activity(now);
        self.wake = Some(wake);
        wake
    }

    /// Settles the cycles `[settled, now)` this tile slept through in one
    /// [`Core::skip_stalled`] call. The core's state was constant over
    /// the span: only the tile's own tick, a tile-facing event or a
    /// landed fault changes it, and each settles first. So does anything
    /// that reads the stall counters (each gather of the report's
    /// counters).
    pub(crate) fn settle(&mut self, now: Cycle) {
        if now > self.settled {
            self.core
                .as_mut()
                .expect("core present")
                .skip_stalled(self.settled, now - self.settled);
            self.settled = now;
        }
    }

    /// The tile state a tick may only change when the tile was due:
    /// everything but the stall counters [`Core::skip_stalled`] settles.
    /// The step-mode contract check compares it across the tick of a
    /// tile that declared itself asleep.
    pub(crate) fn wake_probe(&self) -> [(&'static str, u64); 10] {
        let core = self.core.as_ref().expect("core present");
        [
            ("retired", core.retired()),
            ("dispatched", core.dispatched()),
            ("rob occupancy", core.rob_occupancy() as u64),
            ("load-queue occupancy", core.loads_in_flight() as u64),
            ("pf_queued", self.pf_queued),
            ("pf_dequeued", self.pf_dequeued),
            ("pf_issued", self.pf_issued),
            ("pf_candidates", self.pf_candidates),
            ("l1 mshr occupancy", self.l1_mshr.len() as u64),
            ("l2 mshr occupancy", self.l2_mshr.len() as u64),
        ]
    }

    /// Folds the tile's architectural + queue state (core, both private
    /// MSHR files, prefetch queue) into a state fingerprint.
    pub(crate) fn fingerprint(&self, h: &mut clip_types::Fnv64) {
        if let Some(core) = self.core.as_ref() {
            core.fingerprint(h);
        }
        self.l1_mshr.fingerprint(h);
        self.l2_mshr.fingerprint(h);
        h.write_usize(self.pf_queue.len());
        for q in self.pf_queue.iter() {
            h.write_u64(q.line.raw())
                .write_u64(q.trigger_ip.raw())
                .write_bool(q.fill_l1)
                .write_bool(q.from_l1)
                .write_u64(u64::from(q.engine));
        }
        h.write_u64(self.pf_candidates).write_u64(self.pf_issued);
    }

    /// O(1)-balance variant of [`Tile::fingerprint`] for `cheap` check
    /// runs: occupancy counters only, no per-entry state.
    pub(crate) fn fingerprint_cheap(&self, h: &mut clip_types::Fnv64) {
        let core = self.core.as_ref().expect("core present");
        h.write_u64(core.retired())
            .write_usize(core.rob_occupancy())
            .write_usize(core.loads_in_flight())
            .write_usize(self.l1_mshr.len())
            .write_usize(self.l2_mshr.len())
            .write_usize(self.pf_queue.len())
            .write_u64(self.pf_candidates)
            .write_u64(self.pf_issued);
    }

    /// Fault injection: corrupts the line address of the `sel % len`-th
    /// queued prefetch in place so it points outside the simulated
    /// address space (the balance counters stay untouched, so only the
    /// legality scan can catch this). Returns the corrupted line, or
    /// `None` when the queue is empty.
    pub(crate) fn corrupt_queued_prefetch(&mut self, sel: u64) -> Option<LineAddr> {
        let len = self.pf_queue.len();
        if len == 0 {
            return None;
        }
        let victim = &mut self.pf_queue[(sel % len as u64) as usize];
        // Flip a line bit beyond any address a tile can generate (line bit
        // 50 = byte bit 56, past the 2^54-byte legality bound).
        victim.line = LineAddr::new(victim.line.raw() ^ (1 << 50));
        Some(victim.line)
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: while set, every tile's readiness answer claims its L1
    /// port refuses — a wrong answer the step-mode contract check must
    /// catch. The issue paths themselves are unaffected.
    pub(crate) static FORCE_L1_REFUSAL: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn refusal_forced() -> bool {
    FORCE_L1_REFUSAL.with(|f| f.get())
}

#[cfg(not(test))]
fn refusal_forced() -> bool {
    false
}

/// CLIP's verdict on a queued prefetch at its issue point. While the
/// system's governor has CLIP bypassed, every candidate passes as
/// exploration traffic without consulting CLIP, counted in `bypassed`:
/// no per-IP or per-engine issue accounting happens, so the arbitration
/// levels stay wherever filtering left them. Training never goes through
/// here, so CLIP stays warm across mode switches.
fn clip_gate(
    clip: &mut Clip,
    governor: Option<&Governor>,
    q: &QueuedPrefetch,
    bypassed: &mut u64,
) -> Decision {
    if governor.is_some_and(|g| g.mode() == ClipMode::Bypassed) {
        *bypassed += 1;
        return Decision::AllowExplore;
    }
    clip.filter_prefetch_tagged(q.line, q.trigger_ip, q.engine)
}

/// True when a line's byte address lies inside the simulated address
/// space: tile heaps sit at `(tile+1) << 42`, so every legitimate byte
/// address is far below 2^54 even at the maximum core count.
pub(crate) fn line_in_address_space(line: LineAddr) -> bool {
    line.byte_addr().raw() >> 54 == 0
}

/// The memory hierarchy as seen by one core: loads and stores enter the
/// L1D here.
struct TilePort<'a> {
    sys: &'a mut System,
    tile: usize,
}

impl MemIssuePort for TilePort<'_> {
    fn issue_load(&mut self, ip: Ip, addr: Addr, now: Cycle) -> Option<ReqId> {
        self.sys.tile_issue_load(self.tile, ip, addr, now)
    }

    fn issue_store(&mut self, ip: Ip, addr: Addr, now: Cycle) -> bool {
        self.sys.tile_issue_store(self.tile, ip, addr, now)
    }
}

// ----------------------------------------------------------------------
// Core-side issue paths (called through `TilePort`).
// ----------------------------------------------------------------------

impl System {
    fn tile_issue_load(&mut self, t: usize, ip: Ip, addr: Addr, now: Cycle) -> Option<ReqId> {
        let line = addr.line();
        // Back-pressure check first so retried issues do not perturb
        // statistics or prefetcher training.
        if !self.tiles[t].l1_accepts(line) {
            return None;
        }
        {
            let tile = &mut self.tiles[t];
            tile.l1_window_accesses += 1;
            if tile.clip_at_l1 {
                if let Some(clip) = tile.clip.as_mut() {
                    clip.on_demand_access(line);
                }
            }
        }
        let outcome = self.tiles[t].l1d.lookup(line, false, now);
        match outcome {
            LookupOutcome::Hit { first_prefetch_use } => {
                if first_prefetch_use {
                    if let Some(pf) = self.tiles[t].l1_pf.as_mut() {
                        pf.on_prefetch_result(line, true);
                    }
                }
                let req = self.engine.fresh_req();
                self.engine.schedule(
                    now + self.cfg.l1d.latency,
                    Ev::L1Respond {
                        tile: t as u16,
                        req,
                        issue: now,
                    },
                );
                self.train_l1_prefetcher(t, ip, addr, true, false, now);
                Some(req)
            }
            LookupOutcome::Miss => {
                let req = self.engine.fresh_req();
                // A miss passed `l1_accepts`: a free MSHR or one to merge
                // into (merging is allowed even when full).
                let alloc = self.tiles[t]
                    .l1_mshr
                    .alloc(line, req, false, now)
                    .expect("room checked above");
                self.on_l1_miss_bookkeeping(t, now);
                if matches!(alloc, clip_cache::AllocOutcome::New) {
                    let txn = self.engine.alloc_txn(Txn {
                        tile: t as u16,
                        ip,
                        line,
                        kind: TxnKind::Demand,
                        issue: now,
                        level: MemLevel::L1,
                        probe: ProbeState::None,
                        probe_id: None,
                        live: true,
                    });
                    self.maybe_hermes_probe(t, txn, ip, line, now);
                    self.engine
                        .schedule(now + self.cfg.l1d.latency, Ev::L2Lookup { txn });
                }
                self.train_l1_prefetcher(t, ip, addr, false, false, now);
                Some(req)
            }
        }
    }

    fn tile_issue_store(&mut self, t: usize, ip: Ip, addr: Addr, now: Cycle) -> bool {
        let line = addr.line();
        if !self.tiles[t].l1_accepts(line) {
            return false;
        }
        self.tiles[t].l1_window_accesses += 1;
        let outcome = self.tiles[t].l1d.lookup(line, true, now);
        match outcome {
            LookupOutcome::Hit { first_prefetch_use } => {
                if first_prefetch_use {
                    if let Some(pf) = self.tiles[t].l1_pf.as_mut() {
                        pf.on_prefetch_result(line, true);
                    }
                }
                self.train_l1_prefetcher(t, ip, addr, true, true, now);
                true
            }
            LookupOutcome::Miss => {
                let req = self.engine.fresh_req();
                let alloc = self.tiles[t]
                    .l1_mshr
                    .alloc(line, req, false, now)
                    .expect("room checked above");
                self.on_l1_miss_bookkeeping(t, now);
                if matches!(alloc, clip_cache::AllocOutcome::New) {
                    let txn = self.engine.alloc_txn(Txn {
                        tile: t as u16,
                        ip,
                        line,
                        kind: TxnKind::Store,
                        issue: now,
                        level: MemLevel::L1,
                        probe: ProbeState::None,
                        probe_id: None,
                        live: true,
                    });
                    self.engine
                        .schedule(now + self.cfg.l1d.latency, Ev::L2Lookup { txn });
                }
                self.train_l1_prefetcher(t, ip, addr, false, true, now);
                true
            }
        }
    }

    fn on_l1_miss_bookkeeping(&mut self, t: usize, now: Cycle) {
        let tile = &mut self.tiles[t];
        if tile.clip_at_l1 {
            Self::clip_window_advance(tile, now);
        }
    }

    /// Advances CLIP's exploration window on one training-level miss; at a
    /// window boundary, feeds the APC sample of the elapsed window (the
    /// paper averages APC over the last 16 exploration windows) and, for
    /// composite ensembles, pushes the freshly recomputed per-engine
    /// arbitration levels into the attachment-level prefetcher so an
    /// inaccurate engine is starved at the source, not just at the gate.
    fn clip_window_advance(tile: &mut Tile, now: Cycle) {
        let Some(clip) = tile.clip.as_mut() else {
            return;
        };
        if clip.on_l1_miss() {
            let accesses = tile.l1_window_accesses;
            tile.l1_window_accesses = 0;
            let cycles = now.saturating_sub(tile.window_start).max(1);
            tile.window_start = now;
            clip.on_apc_sample(accesses, cycles);
            let engines = clip.num_engines();
            if engines > 0 {
                let levels = clip.engine_levels();
                let pf = if tile.clip_at_l1 {
                    tile.l1_pf.as_mut()
                } else {
                    tile.l2_pf.as_mut()
                };
                if let Some(pf) = pf {
                    pf.set_engine_levels(&levels[..engines]);
                }
            }
        }
    }

    fn maybe_hermes_probe(&mut self, t: usize, txn: TxnId, ip: Ip, line: LineAddr, now: Cycle) {
        let predicted = match self.tiles[t].hermes.as_mut() {
            Some(h) => h.predict_offchip(ip, line),
            None => return,
        };
        if !predicted {
            return;
        }
        let channel = self.engine.dram.channel_for(line);
        self.engine.next_probe += 1;
        let pid = self.engine.next_probe;
        let id = ReqId(pid | PROBE_BIT);
        if self
            .engine
            .dram
            .enqueue_read(channel, id, line, Priority::Demand, now)
            .is_ok()
        {
            self.engine.txns[txn as usize].probe = ProbeState::Pending;
            self.engine.txns[txn as usize].probe_id = Some(pid);
            self.engine.probe_map.insert(pid, txn);
        }
    }

    /// Trains the L1 prefetcher and runs its candidates through the gates.
    fn train_l1_prefetcher(
        &mut self,
        t: usize,
        ip: Ip,
        addr: Addr,
        hit: bool,
        is_store: bool,
        now: Cycle,
    ) {
        if self.tiles[t].l1_pf.is_none() {
            return;
        }
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        {
            let tile = &mut self.tiles[t];
            let pf = tile.l1_pf.as_mut().expect("checked above");
            pf.on_access(
                &AccessInfo {
                    ip,
                    addr,
                    hit,
                    is_store,
                    cycle: now,
                },
                &mut cands,
            );
        }
        self.gate_and_queue(t, true, &mut cands);
        self.cand_scratch = cands;
    }

    pub(crate) fn train_l2_prefetcher(
        &mut self,
        t: usize,
        ip: Ip,
        line: LineAddr,
        hit: bool,
        now: Cycle,
    ) {
        if self.tiles[t].l2_pf.is_none() {
            return;
        }
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        {
            let tile = &mut self.tiles[t];
            let pf = tile.l2_pf.as_mut().expect("checked above");
            pf.on_access(
                &AccessInfo {
                    ip,
                    addr: line.byte_addr(),
                    hit,
                    is_store: false,
                    cycle: now,
                },
                &mut cands,
            );
        }
        self.gate_and_queue(t, false, &mut cands);
        self.cand_scratch = cands;
    }

    /// Applies DSPatch, a baseline criticality gate, and CLIP to a
    /// candidate list, then queues the survivors.
    fn gate_and_queue(&mut self, t: usize, at_l1: bool, cands: &mut Vec<PrefetchCandidate>) {
        if cands.is_empty() {
            return;
        }
        self.tiles[t].pf_candidates += cands.len() as u64;
        // Dedup against caches / MSHRs / queue before gating so CLIP's
        // issue accounting reflects prefetches that can actually go out.
        {
            let tile = &mut self.tiles[t];
            let (l1d, l2, l1m, l2m, q) = (
                &tile.l1d,
                &tile.l2,
                &tile.l1_mshr,
                &tile.l2_mshr,
                &tile.pf_queue,
            );
            cands.retain(|c| {
                !l1d.contains(c.line)
                    && !l2.contains(c.line)
                    && !l1m.contains(c.line)
                    && !l2m.contains(c.line)
                    && !q.iter().any(|p| p.line == c.line)
            });
        }
        if let Some(ds) = self.tiles[t].dspatch.as_mut() {
            ds.modulate(cands);
        }
        if let Some(gate) = self.tiles[t].crit_gate.as_ref() {
            cands.retain(|c| gate.predict(c.trigger_ip, c.line.byte_addr()));
        }
        for c in cands.drain(..) {
            self.tiles[t].queue_prefetch(QueuedPrefetch {
                line: c.line,
                trigger_ip: c.trigger_ip,
                fill_l1: c.fill_l1,
                from_l1: at_l1,
                engine: c.engine,
            });
        }
    }

    /// Issues queued prefetches into the hierarchy.
    fn issue_prefetches(&mut self, t: usize, now: Cycle) {
        for _ in 0..PF_ISSUE_PER_CYCLE {
            let Some(&q) = self.tiles[t].pf_queue.front() else {
                return;
            };
            // Re-check dedup (state may have changed since queueing).
            {
                let tile = &self.tiles[t];
                if tile.l1d.contains(q.line)
                    || tile.l1_mshr.contains(q.line)
                    || tile.l2_mshr.contains(q.line)
                    || (!q.fill_l1 && tile.l2.contains(q.line))
                {
                    self.tiles[t].dequeue_prefetch();
                    continue;
                }
            }
            self.tiles[t].dequeue_prefetch();
            // CLIP gates at the issue point so its per-IP issue accounting
            // matches prefetches that actually enter the hierarchy.
            let tile = &mut self.tiles[t];
            let clip_here = tile.clip_at_l1 == q.from_l1;
            let mut fill_l1 = q.fill_l1;
            let mut critical = false;
            if let Some(clip) = tile.clip.as_mut() {
                if clip_here {
                    match clip_gate(clip, self.governor.as_ref(), &q, &mut tile.clip_bypassed) {
                        Decision::AllowCritical => {
                            critical = true;
                            // CLIP fetches its survivors all the way to L1
                            // (§4.2) when attached there.
                            fill_l1 = fill_l1 || q.from_l1;
                        }
                        Decision::AllowExplore => {}
                        _ => continue,
                    }
                }
            }
            // Prefetches do not hold L1 MSHRs: the L1 fill happens
            // directly on arrival, and a concurrent demand for the same
            // line merges at the L2 MSHR (where lateness is detected).
            // Their in-flight parallelism is bounded at the L2 (with a
            // reserve for demands) — the ChampSim PQ arrangement.
            self.tiles[t].pf_issued += 1;
            let txn = self.engine.alloc_txn(Txn {
                tile: t as u16,
                ip: q.trigger_ip,
                line: q.line,
                kind: TxnKind::Prefetch {
                    fill_l1,
                    critical,
                    trigger_ip: q.trigger_ip,
                    engine: q.engine,
                },
                issue: now,
                level: MemLevel::L1,
                probe: ProbeState::None,
                probe_id: None,
                live: true,
            });
            self.engine.schedule(now + 1, Ev::L2Lookup { txn });
        }
    }

    // ------------------------------------------------------------------
    // L2 lookup and data return.
    // ------------------------------------------------------------------

    pub(crate) fn l2_lookup(&mut self, txn: TxnId, now: Cycle) {
        let tx = self.engine.txns[txn as usize];
        let t = tx.tile as usize;
        let is_pf = matches!(tx.kind, TxnKind::Prefetch { .. });

        // Back-pressure before touching the cache so retries do not skew
        // statistics.
        if (!is_pf || !self.tiles[t].l2.contains(tx.line))
            && self.tiles[t].l2_mshr.is_full()
            && !self.tiles[t].l2_mshr.contains(tx.line)
        {
            // Only a miss would need the MSHR; a hit does not. Peek
            // cheaply first.
            if !self.tiles[t].l2.contains(tx.line) {
                self.engine
                    .schedule(now + RETRY_DELAY, Ev::L2Lookup { txn });
                return;
            }
        }

        let outcome = if is_pf {
            self.tiles[t].l2.lookup_prefetch(tx.line, now)
        } else {
            self.tiles[t].l2.lookup(tx.line, false, now)
        };
        // L2-trained prefetchers observe the demand stream at the L2.
        if !is_pf {
            self.train_l2_prefetcher(t, tx.ip, tx.line, outcome.is_hit(), now);
        }
        match outcome {
            LookupOutcome::Hit { first_prefetch_use } => {
                if first_prefetch_use {
                    if let Some(pf) = self.tiles[t].l2_pf.as_mut() {
                        pf.on_prefetch_result(tx.line, true);
                    }
                }
                self.engine.txns[txn as usize].level = MemLevel::L2;
                self.engine
                    .schedule(now + self.cfg.l2.latency, Ev::TileData { txn });
            }
            LookupOutcome::Miss => {
                // CLIP attached at the L2 counts L2 misses as its window.
                if !self.tiles[t].clip_at_l1 {
                    if !is_pf {
                        if let Some(clip) = self.tiles[t].clip.as_mut() {
                            clip.on_demand_access(tx.line);
                        }
                    }
                    Self::clip_window_advance(&mut self.tiles[t], now);
                }
                // Prefetch admission control: keep a demand reserve at the
                // L2 MSHRs; prefetches beyond it are dropped, not stalled.
                if is_pf
                    && !self.tiles[t].l2_mshr.contains(tx.line)
                    && self.tiles[t].l2_mshr.len() + L2_MSHR_PF_RESERVE
                        >= self.tiles[t].l2_mshr.capacity()
                {
                    if let TxnKind::Prefetch {
                        trigger_ip, engine, ..
                    } = tx.kind
                    {
                        if let Some(clip) = self.tiles[t].clip.as_mut() {
                            clip.cancel_prefetch_tagged(tx.line, trigger_ip, engine);
                        }
                    }
                    self.engine.free_txn(txn);
                    return;
                }
                let alloc = self.tiles[t]
                    .l2_mshr
                    .alloc(tx.line, ReqId(txn as u64), is_pf, now);
                match alloc {
                    Ok(clip_cache::AllocOutcome::New) => {
                        let home = self.engine.home_of(tx.line);
                        let prio = self.engine.txn_priority(txn);
                        self.engine.send_msg(
                            t,
                            home,
                            self.cfg.noc.addr_packet_flits,
                            prio,
                            NocPayload::ReqLlc(txn),
                        );
                    }
                    Ok(clip_cache::AllocOutcome::Merged { .. }) => {}
                    Err(_) => {
                        self.engine
                            .schedule(now + RETRY_DELAY, Ev::L2Lookup { txn });
                    }
                }
            }
        }
    }

    /// Data arrived at the tile: fill L2/L1, complete MSHRs, respond.
    pub(crate) fn tile_data(&mut self, txn: TxnId, now: Cycle) {
        let tx = self.engine.txns[txn as usize];
        let t = tx.tile as usize;
        let is_pf = matches!(tx.kind, TxnKind::Prefetch { .. });

        let fills_l1_dest = match tx.kind {
            TxnKind::Demand | TxnKind::Store => true,
            TxnKind::Prefetch { fill_l1, .. } => fill_l1,
        };
        // Fill the L2 when data came from beyond it. A prefetch is marked
        // as such only at its destination level, so one prefetch cannot be
        // counted useful twice (once per level).
        if matches!(tx.level, MemLevel::Llc | MemLevel::Dram) {
            let mark_l2 = is_pf && !fills_l1_dest;
            let ev = self.tiles[t].l2.fill(tx.line, false, mark_l2, now);
            if let Some(e) = ev {
                if e.dirty {
                    let home = self.engine.home_of(e.line);
                    self.engine.send_msg(
                        t,
                        home,
                        self.cfg.noc.data_packet_flits,
                        Priority::Writeback,
                        NocPayload::WbLlc(e.line),
                    );
                }
                if e.was_useless_prefetch {
                    if let Some(pf) = self.tiles[t].l2_pf.as_mut() {
                        pf.on_prefetch_result(e.line, false);
                    }
                }
            }
            // Wake L2-level waiters (same-tile txns merged at the L2 MSHR).
            if let Some(entry) = self.tiles[t].l2_mshr.complete(tx.line) {
                for &w in entry.waiters.iter().chain([&entry.primary]) {
                    let wt = w.0 as TxnId;
                    if wt != txn && self.engine.txns[wt as usize].live {
                        self.engine.txns[wt as usize].level = tx.level;
                        self.engine.schedule(now + 1, Ev::TileData { txn: wt });
                    }
                }
            }
        }

        let fills_l1 = fills_l1_dest;
        if fills_l1 {
            let dirty = matches!(tx.kind, TxnKind::Store);
            let ev = self.tiles[t].l1d.fill(tx.line, dirty, is_pf, now);
            if let Some(e) = ev {
                if e.was_useless_prefetch {
                    if let Some(pf) = self.tiles[t].l1_pf.as_mut() {
                        pf.on_prefetch_result(e.line, false);
                    }
                }
                if e.dirty {
                    // Victim goes to the L2 (non-inclusive hierarchy).
                    let ev2 = self.tiles[t].l2.fill(e.line, true, false, now);
                    if let Some(e2) = ev2 {
                        if e2.dirty {
                            let home = self.engine.home_of(e2.line);
                            self.engine.send_msg(
                                t,
                                home,
                                self.cfg.noc.data_packet_flits,
                                Priority::Writeback,
                                NocPayload::WbLlc(e2.line),
                            );
                        }
                    }
                }
            }
            if let Some(pf) = self.tiles[t].l1_pf.as_mut() {
                pf.on_fill(tx.line, now);
            }
            if let Some(entry) = self.tiles[t].l1_mshr.complete(tx.line) {
                for &r in entry.waiters.iter().chain([&entry.primary]) {
                    self.respond_core(t, r, tx.level, tx.issue, now);
                }
            }
        }
        self.engine.free_txn(txn);
    }

    /// Delivers a load response to the core and fans the resulting
    /// [`clip_cpu::LoadOutcome`] out to every training consumer.
    pub(crate) fn respond_core(
        &mut self,
        t: usize,
        req: ReqId,
        level: MemLevel,
        issue: Cycle,
        now: Cycle,
    ) {
        let outcome = {
            let core = self.tiles[t].core.as_mut().expect("core present");
            core.complete_load(req, level, now)
        };
        let Some(mut o) = outcome else {
            return; // store / prefetch pseudo-request
        };
        o.latency = now.saturating_sub(issue);
        let tile = &mut self.tiles[t];
        if level.is_beyond_l1() {
            tile.lat.l1_miss.record(o.latency);
            match level {
                MemLevel::L2 => tile.lat.by_l2.record(o.latency),
                MemLevel::Llc => tile.lat.by_llc.record(o.latency),
                MemLevel::Dram => tile.lat.by_dram.record(o.latency),
                MemLevel::L1 => {}
            }
        }

        // CLIP: evaluate its criticality prediction, then train it.
        if let Some(clip) = tile.clip.as_mut() {
            // For the L2 attachment, criticality is defined on loads
            // serviced beyond the L2; remap the outcome's level so the
            // shared mechanism sees the right "miss level".
            let adapted = if tile.clip_at_l1 {
                o
            } else {
                let mut a = o;
                a.level = match o.level {
                    MemLevel::L1 | MemLevel::L2 => MemLevel::L1,
                    deeper => deeper,
                };
                a
            };
            if adapted.level.is_beyond_l1() {
                let predicted = clip.predict_critical(adapted.ip, adapted.addr.line());
                let actual = adapted.stalled_head;
                match (predicted, actual) {
                    (true, true) => tile.clip_eval.true_positive += 1,
                    (true, false) => tile.clip_eval.false_positive += 1,
                    (false, true) => tile.clip_eval.false_negative += 1,
                    (false, false) => tile.clip_eval.true_negative += 1,
                }
                let rec = tile
                    .ip_behavior
                    .entry(adapted.ip.raw())
                    .or_insert((0, 0, false));
                if actual {
                    rec.0 += 1;
                } else {
                    rec.1 += 1;
                }
                if predicted {
                    rec.2 = true;
                }
            }
            clip.on_load_complete(&adapted);
        }
        for ev in tile.evaluators.iter_mut() {
            ev.observe(&o);
        }
        if let Some(gate) = tile.crit_gate.as_mut() {
            gate.on_load_complete(&o);
        }
        if let Some(h) = tile.hermes.as_mut() {
            h.train(o.ip, o.addr.line(), level == MemLevel::Dram);
        }
    }

    /// Ticks tile `t`: settles its sleep span, issues its queued
    /// prefetches and advances its core one cycle.
    pub(crate) fn tick_tile(&mut self, t: usize, now: Cycle) {
        self.tiles[t].settle(now);
        self.issue_prefetches(t, now);
        self.tick_core(t, now);
        let tile = &mut self.tiles[t];
        tile.wake = None;
        tile.settled = now + 1;
    }

    fn tick_core(&mut self, t: usize, now: Cycle) {
        let mut core = self.tiles[t].core.take().expect("core present");
        let mut gen = self.tiles[t].gen.take().expect("generator present");
        let base = self.tiles[t].addr_base;
        let mut branches = std::mem::take(&mut self.branch_scratch);
        branches.clear();
        {
            let mut port = TilePort { sys: self, tile: t };
            let mut fetch = || {
                let mut i = gen.next_instr();
                match &mut i.kind {
                    InstrKind::Load { addr, .. } => *addr = Addr::new(addr.raw() | base),
                    InstrKind::Store { addr } => *addr = Addr::new(addr.raw() | base),
                    InstrKind::Branch { taken } => branches.push(*taken),
                    InstrKind::Alu { .. } => {}
                }
                i
            };
            core.tick(now, &mut fetch, &mut port);
        }
        if let Some(clip) = self.tiles[t].clip.as_mut() {
            for &b in &branches {
                clip.on_branch(b);
            }
        }
        self.branch_scratch = branches;
        self.tiles[t].core = Some(core);
        self.tiles[t].gen = Some(gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocChoice, Scheme};
    use clip_core::{ClipConfig, DynamicClipConfig};
    use clip_types::SimConfig;

    /// The one tile of a plain single-core system.
    fn tile() -> Tile {
        let cfg = SimConfig::builder()
            .cores(1)
            .dram_channels(1)
            .build()
            .expect("valid config");
        let spec = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
        let mix = clip_trace::Mix::homogeneous(&spec, 1);
        System::new(&cfg, &Scheme::plain(), &mix, 1, NocChoice::Analytic)
            .tiles
            .remove(0)
    }

    fn queued(line: u64) -> QueuedPrefetch {
        QueuedPrefetch {
            line: LineAddr::new(line),
            trigger_ip: Ip::new(0x400),
            fill_l1: true,
            from_l1: true,
            engine: 0,
        }
    }

    /// The prefetch queue is a FIFO of at most `PF_QUEUE_CAP` entries:
    /// queueing into a full one drops the oldest, and every drop is
    /// counted as a dequeue so the balance audit holds.
    #[test]
    fn pf_queue_drops_the_oldest_when_full() {
        let mut t = tile();
        let cap = PF_QUEUE_CAP as u64;
        for line in 0..cap + 2 {
            t.queue_prefetch(queued(line));
        }
        let lines: Vec<u64> = t.pf_queue.iter().map(|q| q.line.raw()).collect();
        assert_eq!(
            lines,
            (2..cap + 2).collect::<Vec<_>>(),
            "FIFO, oldest dropped"
        );
        assert_eq!((t.pf_queued, t.pf_dequeued), (cap + 2, 2));
        assert_eq!(t.audit_pf_queue(true), Ok(()));
        assert_eq!(t.dequeue_prefetch().map(|q| q.line.raw()), Some(2));
        assert_eq!(t.audit_pf_queue(true), Ok(()));

        // The corrupting fault flips one entry in place: same order and
        // count, and only the legality scan notices.
        let bad = t.corrupt_queued_prefetch(1).expect("queue not empty");
        assert_eq!(t.pf_queue[1].line, bad);
        assert_eq!(t.pf_queue.len(), PF_QUEUE_CAP - 1);
        assert_eq!(t.pf_queue[2].line.raw(), 5);
        assert_eq!(t.audit_pf_queue(false), Ok(()));
        let err = t.audit_pf_queue(true).unwrap_err();
        assert!(err.contains("outside the simulated address space"), "{err}");
    }

    /// Runs one candidate through a fresh, untrained CLIP's gate and
    /// reports the verdict, how many candidates CLIP examined and how
    /// many the bypass passed.
    fn gate_untrained(governor: Option<&Governor>) -> (Decision, u64, u64) {
        let mut clip = Clip::new(ClipConfig::default());
        let mut bypassed = 0;
        let d = clip_gate(&mut clip, governor, &queued(1), &mut bypassed);
        (d, clip.stats().candidates, bypassed)
    }

    /// Without a governor, or while it filters, the gate is CLIP's: an
    /// untrained CLIP drops the candidate. Once the governor bypasses,
    /// the candidate passes as exploration traffic, CLIP is never
    /// consulted and the bypass counts it.
    #[test]
    fn the_clip_gate_follows_the_governor() {
        let (d, seen, _) = gate_untrained(None);
        assert!(!d.allows() && seen == 1, "plain CLIP: {d:?}, {seen} seen");
        let mut gov = Governor::new(DynamicClipConfig::default());
        let (d, seen, bypassed) = gate_untrained(Some(&gov));
        assert!(
            !d.allows() && seen == 1 && bypassed == 0,
            "filtering: {d:?}, {seen} seen, {bypassed} bypassed"
        );
        for _ in 0..4 {
            gov.on_bandwidth_sample(0.1);
        }
        assert_eq!(gov.mode(), ClipMode::Bypassed);
        assert_eq!(gate_untrained(Some(&gov)), (Decision::AllowExplore, 0, 1));
    }
}
