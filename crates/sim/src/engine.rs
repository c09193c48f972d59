//! The engine: transaction slab, event wheel, clock, the NoC, DRAM and
//! LLC, plus the memory-controller message handlers.
//!
//! [`Engine`] owns everything that is *shared* between tiles — the NoC,
//! the DRAM channels, the LLC, the in-flight transaction slab, the event
//! ring and the current cycle — so tile-side code can borrow one tile and
//! the engine simultaneously (disjoint `System` fields). The NoC is a
//! trait object built by [`build_noc`], the DRAM a [`DramSystem`] of the
//! configured kind; [`Engine::tick_uncore`] ticks them and the
//! [`ClockedLlc`] and hands what they return to the uncore handlers. The
//! event ring and the LLC's lookup ring are both a [`Wheel`].

use crate::llc::ClockedLlc;
use crate::ports::{NocPayload, OutMsg, TxnId};
use clip_dram::{DramModel, DramSystem};
use clip_noc::{AnalyticNoc, ChipletNoc, MeshNoc, NocModel};
use clip_types::{Cycle, Ip, LineAddr, MemLevel, Priority, ReqId, SimConfig};
use std::collections::{HashMap, VecDeque};

/// Cycles between retries of a request a full queue refused.
pub(crate) const RETRY_DELAY: Cycle = 4;

/// DRAM ReqId bit marking a Hermes probe.
pub(crate) const PROBE_BIT: u64 = 1 << 62;

/// Which NoC implementation a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NocChoice {
    /// Flit-level wormhole mesh (default; the full substrate).
    #[default]
    Mesh,
    /// Link-schedule analytic model (fast, for wide sweeps).
    Analytic,
    /// Chiplet fabric: clusters of tiles with narrow die-to-die ports.
    Chiplet,
}

/// Topology factory: builds the fabric `choice` selects over the
/// configured node space.
fn build_noc(choice: NocChoice, cfg: &SimConfig) -> Box<dyn NocModel> {
    match choice {
        NocChoice::Mesh => Box::new(MeshNoc::new(&cfg.noc)),
        NocChoice::Analytic => Box::new(AnalyticNoc::new(&cfg.noc)),
        NocChoice::Chiplet => Box::new(ChipletNoc::new(&cfg.noc)),
    }
}

/// The retry phase of `cycle`: which parked-transaction FIFO it admits.
#[inline]
fn phase(cycle: Cycle) -> usize {
    (cycle % RETRY_DELAY) as usize
}

/// Slots of a wheel that holds work at most `horizon` cycles ahead: the
/// next power of two above it, so the slot of `now` is never the target
/// of a schedule made at `now`.
fn ring_slots(horizon: Cycle) -> usize {
    (horizon as usize + 1).next_power_of_two()
}

/// A timing wheel: slot `c % slots` holds the items due at cycle `c`.
/// Sized by [`ring_slots`] over the farthest an item is scheduled ahead,
/// so every pending item lies within one revolution of the current
/// cycle; each slot keeps its buffer across revolutions.
pub(crate) struct Wheel<T> {
    slots: Vec<Vec<T>>,
    /// Items ever placed on the wheel (conservation audit).
    scheduled: u64,
    /// Items ever taken off the wheel (conservation audit).
    fired: u64,
    /// What the wheel holds, for the audit message ("event", "lookup").
    item: &'static str,
    /// The panic message of a schedule past the horizon.
    overflow: &'static str,
}

impl<T> Wheel<T> {
    /// A wheel for items at most `horizon` cycles ahead.
    pub(crate) fn new(horizon: Cycle, item: &'static str, overflow: &'static str) -> Self {
        Wheel {
            slots: (0..ring_slots(horizon)).map(|_| Vec::new()).collect(),
            scheduled: 0,
            fired: 0,
            item,
            overflow,
        }
    }

    #[inline]
    fn slot(&self, at: Cycle) -> usize {
        (at as usize) & (self.slots.len() - 1)
    }

    /// Places `item` at cycle `at`, at least one cycle after `now`.
    ///
    /// # Panics
    ///
    /// Panics when `at` lies a full revolution or more ahead: the item
    /// would fire early.
    #[inline]
    pub(crate) fn schedule(&mut self, now: Cycle, at: Cycle, item: T) {
        let at = at.max(now + 1);
        assert!(at - now < self.slots.len() as u64, "{}", self.overflow);
        let slot = self.slot(at);
        self.slots[slot].push(item);
        self.scheduled += 1;
    }

    /// Takes the items due at `now` off the wheel. Hand the buffer back
    /// with [`Wheel::restore`].
    pub(crate) fn take(&mut self, now: Cycle) -> Vec<T> {
        let slot = self.slot(now);
        let due = std::mem::take(&mut self.slots[slot]);
        self.fired += due.len() as u64;
        due
    }

    /// Puts the buffer [`Wheel::take`] handed out at `now` back in its
    /// slot, emptied, so the slot keeps its capacity. Nothing scheduled
    /// at `now` lands in that slot.
    pub(crate) fn restore(&mut self, now: Cycle, mut buf: Vec<T>) {
        buf.clear();
        let slot = self.slot(now);
        debug_assert!(self.slots[slot].is_empty());
        self.slots[slot] = buf;
    }

    /// Items on the wheel.
    pub(crate) fn pending(&self) -> usize {
        (self.scheduled - self.fired) as usize
    }

    /// Items ever taken off the wheel.
    pub(crate) fn fired(&self) -> u64 {
        self.fired
    }

    /// Items ever placed on the wheel.
    pub(crate) fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// The earliest cycle `>= now` with an item due, or `None` when the
    /// wheel is empty. Every pending item lies within one revolution of
    /// `now` (enforced at schedule time, and no item is left behind the
    /// cycle that takes it), so the first occupied slot scanning forward
    /// from `now` is the earliest.
    pub(crate) fn next_due(&self, now: Cycle) -> Option<Cycle> {
        if self.scheduled == self.fired {
            return None;
        }
        (now..now + self.slots.len() as u64).find(|&c| !self.slots[self.slot(c)].is_empty())
    }

    /// Conservation audit: every scheduled item has fired or is still on
    /// the wheel.
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let on_ring: u64 = self.slots.iter().map(|s| s.len() as u64).sum();
        if self.scheduled != self.fired + on_ring {
            return Err(format!(
                "{}-ring occupancy broken: {} scheduled but {} fired + {} on ring (lost {})",
                self.item,
                self.scheduled,
                self.fired,
                on_ring,
                self.scheduled as i64 - (self.fired + on_ring) as i64
            ));
        }
        Ok(())
    }
}

/// Minimum over two optional wake-up cycles (`None` = no wake-up).
fn merge_activity(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    Demand,
    Store,
    Prefetch {
        fill_l1: bool,
        critical: bool,
        trigger_ip: Ip,
        /// Originating engine inside a composite ensemble (0 otherwise);
        /// carried so a cancel can release the right engine's credit.
        engine: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeState {
    None,
    Pending,
    Done,
    /// The transaction reached the memory controller while the probe was
    /// still in flight; respond as soon as the probe lands.
    TxnWaiting,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Txn {
    pub tile: u16,
    pub ip: Ip,
    pub line: LineAddr,
    pub kind: TxnKind,
    pub issue: Cycle,
    pub level: MemLevel,
    pub probe: ProbeState,
    /// Unique id of this transaction's Hermes probe, if one is in flight.
    pub probe_id: Option<u64>,
    pub live: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// L1 hit: respond to the core.
    L1Respond {
        tile: u16,
        req: ReqId,
        issue: Cycle,
    },
    L2Lookup {
        txn: TxnId,
    },
    /// A request reached its memory controller: its first read-queue
    /// attempt (a refused one parks, see [`Engine::admit_dram_waiters`]).
    DramEnqueue {
        txn: TxnId,
    },
    TileData {
        txn: TxnId,
    },
    /// Retry a DRAM writeback that found the write queue full.
    WbDram {
        line: LineAddr,
    },
}

/// The configuration slice the uncore needs: topology and packet sizes,
/// derived once from the [`SimConfig`] so the engine is self-contained.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineParams {
    pub cores: usize,
    pub nodes: usize,
    pub channels: usize,
    pub data_packet_flits: usize,
    pub addr_packet_flits: usize,
    pub llc_latency: Cycle,
}

impl EngineParams {
    fn from_config(cfg: &SimConfig) -> Self {
        EngineParams {
            cores: cfg.cores,
            nodes: cfg.noc.mesh_cols * cfg.noc.mesh_rows,
            channels: cfg.dram.channels,
            data_packet_flits: cfg.noc.data_packet_flits,
            addr_packet_flits: cfg.noc.addr_packet_flits,
            llc_latency: cfg.llc_slice.latency,
        }
    }
}

/// Shared (non-tile) simulator state: clock, interconnect, memory,
/// transactions, and the event wheel. The engine owns the whole uncore
/// state machine — message handlers included — so it can answer "when is
/// the next interesting uncore cycle?" for the skip-ahead scheduler.
pub(crate) struct Engine {
    pub(crate) params: EngineParams,
    /// The current cycle. Only `System` advances it, by one per tick or
    /// straight to a skip target.
    pub(crate) now: Cycle,
    pub(crate) noc: Box<dyn NocModel>,
    pub(crate) dram: DramSystem,
    pub(crate) llc: ClockedLlc,
    pub(crate) txns: Vec<Txn>,
    free_txns: Vec<TxnId>,
    /// Event wheel, sized over the farthest an event is scheduled ahead
    /// (the L1D and L2 latencies and a write-queue retry).
    events: Wheel<Ev>,
    /// The recipients of one DRAM data return at its LLC home, collected
    /// by `llc_fill_and_forward`; the buffer is kept across returns.
    pub(crate) forward: Vec<TxnId>,
    /// Transactions a full DRAM read queue refused, parked per channel
    /// in one FIFO per retry phase (refusal cycle mod `RETRY_DELAY`); see
    /// [`Engine::admit_dram_waiters`].
    dram_wait: Vec<[VecDeque<TxnId>; RETRY_DELAY as usize]>,
    /// Transactions across all `dram_wait` FIFOs.
    dram_parked: usize,
    /// Per-node injection outboxes (FIFO behind a refused packet).
    outbox: Vec<VecDeque<OutMsg>>,
    /// Messages across all `outbox` FIFOs.
    spilled: usize,
    next_req: u64,
    /// In-flight Hermes probes: unique probe id → owning transaction.
    /// Probe ids must be generation-unique (not slot-derived): transaction
    /// slots are recycled, and a stale completion keyed by slot would be
    /// credited to the wrong transaction, eventually stranding one in
    /// `ProbeState::TxnWaiting` forever.
    pub(crate) probe_map: HashMap<u64, TxnId>,
    pub(crate) next_probe: u64,
}

impl Engine {
    /// Builds the uncore of `cfg` on the fabric `noc` selects.
    pub(crate) fn new(cfg: &SimConfig, noc: NocChoice) -> Self {
        let params = EngineParams::from_config(cfg);
        let horizon = cfg.l1d.latency.max(cfg.l2.latency).max(2 * RETRY_DELAY);
        Engine {
            params,
            now: 0,
            noc: build_noc(noc, cfg),
            dram: DramSystem::new(&cfg.dram),
            llc: ClockedLlc::new(cfg),
            txns: Vec::with_capacity(4096),
            free_txns: Vec::new(),
            events: Wheel::new(horizon, "event", "event beyond ring horizon"),
            forward: Vec::new(),
            dram_wait: (0..params.channels)
                .map(|_| std::array::from_fn(|_| VecDeque::new()))
                .collect(),
            dram_parked: 0,
            outbox: (0..params.nodes).map(|_| VecDeque::new()).collect(),
            spilled: 0,
            next_req: 1,
            probe_map: HashMap::new(),
            next_probe: 0,
        }
    }

    #[inline]
    pub(crate) fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    pub(crate) fn alloc_txn(&mut self, txn: Txn) -> TxnId {
        if let Some(i) = self.free_txns.pop() {
            self.txns[i as usize] = txn;
            i
        } else {
            self.txns.push(txn);
            (self.txns.len() - 1) as TxnId
        }
    }

    pub(crate) fn free_txn(&mut self, i: TxnId) {
        if let Some(pid) = self.txns[i as usize].probe_id.take() {
            // Orphan any in-flight probe so its completion is discarded
            // instead of being credited to a future occupant of this slot.
            self.probe_map.remove(&pid);
        }
        self.txns[i as usize].live = false;
        self.free_txns.push(i);
    }

    pub(crate) fn live_txns(&self) -> usize {
        self.txns.iter().filter(|t| t.live).count()
    }

    /// Schedules `ev` for cycle `at`, at least one cycle out.
    ///
    /// # Panics
    ///
    /// Panics when `at` lies a full ring revolution or more ahead: the
    /// event would fire early.
    #[inline]
    pub(crate) fn schedule(&mut self, at: Cycle, ev: Ev) {
        self.events.schedule(self.now, at, ev);
    }

    /// Takes this cycle's scheduled events off the wheel. Hand the
    /// emptied buffer back with [`Engine::restore_events`].
    pub(crate) fn take_events(&mut self) -> Vec<Ev> {
        self.events.take(self.now)
    }

    /// Puts the buffer [`Engine::take_events`] handed out back in its
    /// slot.
    pub(crate) fn restore_events(&mut self, evs: Vec<Ev>) {
        self.events.restore(self.now, evs);
    }

    pub(crate) fn pending_events(&self) -> usize {
        self.events.pending()
    }

    /// Event-wheel conservation audit (see [`Wheel::audit`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub(crate) fn audit_events(&self) -> Result<(), String> {
        self.events.audit()
    }

    /// Transactions parked behind full DRAM read queues.
    pub(crate) fn dram_parked(&self) -> usize {
        self.dram_parked
    }

    /// The earliest cycle `>= now` at which a parked transaction gets
    /// into its read queue: for each channel with room, the next cycle
    /// of a non-empty phase. A full channel adds nothing, since only a
    /// DRAM tick frees a slot and the DRAM's own answer wakes that cycle.
    fn next_admission(&self, now: Cycle) -> Option<Cycle> {
        if self.dram_parked == 0 {
            return None;
        }
        let mut next = None;
        for (ch, fifos) in self.dram_wait.iter().enumerate() {
            if !self.dram.read_queue_has_room(ch) {
                continue;
            }
            let due = (now..now + RETRY_DELAY).find(|&c| !fifos[phase(c)].is_empty());
            next = merge_activity(next, due);
        }
        next
    }

    /// The earliest cycle `>= now` at which the uncore — NoC, DRAM, LLC,
    /// spilled outbox packets, a ring event, or a parked transaction the
    /// DRAM can now take — does real work, or `None` when the whole
    /// uncore is idle until a tile stimulates it.
    pub(crate) fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Cheapest sources first, bailing the moment one says "busy now":
        // this runs on every scheduler decision, and the LLC ring scan is
        // by far the priciest answer.
        let mut next = self.events.next_due(now);
        if next == Some(now) {
            return next;
        }
        if self.outbox_backlog() > 0 {
            return Some(now);
        }
        next = merge_activity(next, self.next_admission(now));
        if next == Some(now) {
            return next;
        }
        next = merge_activity(next, self.dram.next_activity(now));
        if next == Some(now) {
            return next;
        }
        next = merge_activity(next, self.noc.next_activity(now));
        if next == Some(now) {
            return next;
        }
        merge_activity(next, self.llc.next_activity(now))
    }

    /// Messages waiting in the injection outboxes.
    pub(crate) fn outbox_backlog(&self) -> usize {
        self.spilled
    }

    /// Checks the spilled-message count against the outbox lengths.
    ///
    /// # Errors
    ///
    /// Returns a description of the drift.
    pub(crate) fn audit_outboxes(&self) -> Result<(), String> {
        let actual: usize = self.outbox.iter().map(|o| o.len()).sum();
        if actual != self.spilled {
            return Err(format!(
                "spilled-message count drifted: cached {} but the outboxes hold {actual}",
                self.spilled
            ));
        }
        Ok(())
    }

    pub(crate) fn txn_priority(&self, t: TxnId) -> Priority {
        match self.txns[t as usize].kind {
            TxnKind::Demand | TxnKind::Store => Priority::Demand,
            TxnKind::Prefetch { critical, .. } => {
                if critical {
                    Priority::Demand
                } else {
                    Priority::Prefetch
                }
            }
        }
    }

    /// Fault injection: flips the criticality flag of the `sel % len`-th
    /// live prefetch transaction (slot order). Nothing becomes
    /// unaccounted for — the transaction just arbitrates at the wrong
    /// priority from here on — so no conservation audit can catch this;
    /// only the state-fingerprint comparison against a clean same-seed
    /// run localizes the divergence. Returns false when no prefetch is
    /// live.
    pub(crate) fn flip_prefetch_criticality(&mut self, sel: u64) -> bool {
        let candidates: Vec<usize> = self
            .txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.live && matches!(t.kind, TxnKind::Prefetch { .. }))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let victim = candidates[(sel % candidates.len() as u64) as usize];
        if let TxnKind::Prefetch { critical, .. } = &mut self.txns[victim].kind {
            *critical = !*critical;
        }
        true
    }

    /// Legality scan over the live-transaction slab: every line must lie
    /// inside the simulated address space. Backstop for a corrupted
    /// prefetch address that left its tile queue between audit windows.
    ///
    /// # Errors
    ///
    /// Returns a description of the first illegal transaction.
    pub(crate) fn audit_txns(&self) -> Result<(), String> {
        for (i, t) in self.txns.iter().enumerate() {
            if t.live && !crate::tile::line_in_address_space(t.line) {
                return Err(format!(
                    "txn{i} (tile {}) targets line {:#x}, outside the \
                     simulated address space",
                    t.tile,
                    t.line.raw()
                ));
            }
        }
        Ok(())
    }

    /// Folds the live-transaction slab into a state fingerprint, in slot
    /// order (slot allocation is deterministic for a deterministic run).
    /// Includes the prefetch criticality/fill bits, so a flipped flag
    /// diverges here even before arbitration acts on it.
    pub(crate) fn fingerprint_txns(&self, h: &mut clip_types::Fnv64) {
        h.write_usize(self.live_txns());
        for (i, t) in self.txns.iter().enumerate() {
            if !t.live {
                continue;
            }
            let (tag, fill, crit, tip, eng) = match t.kind {
                TxnKind::Demand => (1u64, false, false, 0, 0),
                TxnKind::Store => (2, false, false, 0, 0),
                TxnKind::Prefetch {
                    fill_l1,
                    critical,
                    trigger_ip,
                    engine,
                } => (3, fill_l1, critical, trigger_ip.raw(), engine),
            };
            h.write_usize(i)
                .write_u64(u64::from(t.tile))
                .write_u64(t.ip.raw())
                .write_u64(t.line.raw())
                .write_u64(tag)
                .write_bool(fill)
                .write_bool(crit)
                .write_u64(tip)
                .write_u64(u64::from(eng))
                .write_u64(t.issue)
                .write_u64(t.level as u64);
        }
    }

    /// O(1)-balance variant of [`Engine::fingerprint_txns`] for `cheap`
    /// check runs: live-transaction count and wheel/outbox occupancy.
    /// A parked transaction counts as one pending event, the retry it
    /// stands for, so the balance matches a wheel that polls refused
    /// reads and baselines recorded from one still verify.
    pub(crate) fn fingerprint_txns_cheap(&self, h: &mut clip_types::Fnv64) {
        h.write_usize(self.live_txns())
            .write_usize(self.events.pending() + self.dram_parked)
            .write_usize(self.outbox_backlog());
    }

    /// Injects a message, spilling to the node's outbox on back-pressure
    /// (or when earlier spilled messages must keep FIFO order).
    pub(crate) fn send_msg(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        prio: Priority,
        pl: NocPayload,
    ) {
        let now = self.now;
        if self.outbox[src].is_empty()
            && self
                .noc
                .send(src, dst, flits, prio, pl.encode(), now)
                .is_ok()
        {
            return;
        }
        self.outbox[src].push_back(OutMsg {
            dst,
            flits,
            priority: prio,
            payload: pl,
        });
        self.spilled += 1;
    }

    pub(crate) fn drain_outboxes(&mut self) {
        if self.spilled == 0 {
            return;
        }
        let now = self.now;
        // Rotate the starting node each cycle: a fixed order would let
        // low-index tiles win saturated links every cycle and starve the
        // memory controllers' response packets (livelock under flood).
        let n = self.outbox.len();
        for k in 0..n {
            let node = (k + (now as usize % n.max(1))) % n;
            while let Some(m) = self.outbox[node].front() {
                let ok = self
                    .noc
                    .send(node, m.dst, m.flits, m.priority, m.payload.encode(), now)
                    .is_ok();
                if ok {
                    self.outbox[node].pop_front();
                    self.spilled -= 1;
                } else {
                    break;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Uncore message flow: LLC slices and memory controllers. Engine-owned:
// these paths never touch a tile, so the uncore state machine is closed
// under `Engine` and `System` only forwards tile-facing events.
// ----------------------------------------------------------------------

impl Engine {
    #[inline]
    pub(crate) fn home_of(&self, line: LineAddr) -> usize {
        (clip_types::hash64(line.raw() ^ 0x110C) as usize) % self.params.cores
    }

    #[inline]
    pub(crate) fn mc_node(&self, channel: usize) -> usize {
        let nodes = self.params.nodes;
        (channel * nodes / self.params.channels) % nodes
    }

    /// Ticks the NoC, the DRAM and the LLC, then hands what they return
    /// to the uncore handlers: NoC deliveries, DRAM completions, due LLC
    /// lookups. All three tick before any handler runs. The
    /// `lose_deliveries` flag is the `LoseDelivery` fault: packets arrive
    /// and vanish.
    pub(crate) fn tick_uncore(&mut self, lose_deliveries: bool) {
        let now = self.now;
        let delivered = self.noc.tick(now);
        let completed = self.dram.tick(now);
        let due = self.llc.tick(now);
        if !lose_deliveries {
            for d in delivered {
                self.handle_delivery(d.node, d.payload, now);
            }
        }
        for c in completed {
            self.handle_dram_completion(c.id);
        }
        for &txn in &due {
            self.llc_lookup(txn, now);
        }
        self.llc.restore_due(due, now);
    }

    /// A transaction's first attempt at its memory controller: a Hermes
    /// probe that already fetched the line answers it, one still in
    /// flight makes it wait for the probe, and otherwise it offers itself
    /// to the read queue, parking in this cycle's phase FIFO if refused.
    pub(crate) fn dram_enqueue(&mut self, txn: TxnId, now: Cycle) {
        match self.txns[txn as usize].probe {
            ProbeState::Done => {
                // Hermes probe already fetched the data at the controller.
                self.txns[txn as usize].level = MemLevel::Dram;
                self.data_from_mc(txn);
                return;
            }
            ProbeState::Pending => {
                self.txns[txn as usize].probe = ProbeState::TxnWaiting;
                return;
            }
            _ => {}
        }
        let channel = self.dram.channel_for(self.txns[txn as usize].line);
        if !self.try_enqueue_read(channel, txn, now) {
            self.dram_wait[channel][phase(now)].push_back(txn);
            self.dram_parked += 1;
        }
    }

    /// Offers `txn` to its channel's read queue at the priority it has
    /// now; false when the queue is full.
    fn try_enqueue_read(&mut self, channel: usize, txn: TxnId, now: Cycle) -> bool {
        let prio = self.txn_priority(txn);
        let line = self.txns[txn as usize].line;
        self.dram
            .enqueue_read(channel, ReqId(txn as u64), line, prio, now)
            .is_ok()
    }

    /// Admits parked transactions whose retry falls on `now`: each
    /// channel's FIFO for this phase, from the head, while the read
    /// queue has room. A full channel is passed over without an attempt,
    /// which would have no side effects.
    ///
    /// This replays polling every `RETRY_DELAY` cycles exactly. A
    /// transaction refused at cycle `c` would retry at `c + 4`, `c + 8`,
    /// ..., and a fresh arrival is scheduled one cycle ahead, so in a
    /// cycle's events every retry precedes every first attempt, in the
    /// order the FIFO keeps; admitting before the event loop preserves
    /// it. Only DRAM-enqueue events and the tile loop's Hermes probes
    /// (which run after the event loop) take read-queue slots, and only
    /// the DRAM tick (which runs before) frees one, so a refusal holds
    /// until the next tick. A parked transaction's probe state is `None`
    /// or `TxnWaiting` and stays so (a probe starts only when its
    /// transaction is allocated, and a transaction is freed only after
    /// its data returns), so admission skips a first attempt's probe
    /// handling.
    pub(crate) fn admit_dram_waiters(&mut self, now: Cycle) {
        if self.dram_parked == 0 {
            return;
        }
        let p = phase(now);
        for ch in 0..self.dram_wait.len() {
            if !self.dram.read_queue_has_room(ch) {
                continue;
            }
            while let Some(&txn) = self.dram_wait[ch][p].front() {
                if !self.try_enqueue_read(ch, txn, now) {
                    break;
                }
                self.dram_wait[ch][p].pop_front();
                self.dram_parked -= 1;
            }
        }
    }

    /// Enqueues a dirty-line write at its controller, retrying through
    /// the event wheel when the write queue is full.
    pub(crate) fn wb_dram(&mut self, line: LineAddr, now: Cycle) {
        if self.dram.enqueue_write(line, now).is_err() {
            self.schedule(now + RETRY_DELAY * 2, Ev::WbDram { line });
        }
    }

    /// Sends the DRAM response packet toward the LLC home slice.
    fn data_from_mc(&mut self, txn: TxnId) {
        let tx = self.txns[txn as usize];
        let channel = self.dram.channel_for(tx.line);
        let mc = self.mc_node(channel);
        let home = self.home_of(tx.line);
        let prio = self.txn_priority(txn);
        self.send_msg(
            mc,
            home,
            self.params.data_packet_flits,
            prio,
            NocPayload::DataLlc(txn),
        );
    }

    pub(crate) fn handle_dram_completion(&mut self, id: ReqId) {
        if id.0 & PROBE_BIT != 0 {
            let pid = id.0 & !PROBE_BIT;
            // Orphaned probes (owner already serviced on-chip) miss here.
            let Some(txn) = self.probe_map.remove(&pid) else {
                return;
            };
            self.txns[txn as usize].probe_id = None;
            match self.txns[txn as usize].probe {
                ProbeState::TxnWaiting => {
                    self.txns[txn as usize].level = MemLevel::Dram;
                    self.data_from_mc(txn);
                }
                ProbeState::Pending => self.txns[txn as usize].probe = ProbeState::Done,
                ProbeState::None | ProbeState::Done => {}
            }
            return;
        }
        let txn = id.0 as TxnId;
        if !self.txns[txn as usize].live {
            return;
        }
        self.txns[txn as usize].level = MemLevel::Dram;
        self.data_from_mc(txn);
    }

    pub(crate) fn handle_delivery(&mut self, node: usize, pl: u64, now: Cycle) {
        match NocPayload::decode(pl) {
            NocPayload::ReqLlc(txn) => {
                let delay = self.params.llc_latency;
                self.llc.schedule_lookup(txn, now, delay);
            }
            NocPayload::ReqMc(txn) => {
                self.schedule(now + 1, Ev::DramEnqueue { txn });
            }
            NocPayload::DataLlc(txn) => {
                self.llc_fill_and_forward(txn, now);
            }
            NocPayload::DataTile(txn) => {
                self.schedule(now + 1, Ev::TileData { txn });
            }
            NocPayload::WbLlc(line) => self.llc_writeback(node, line, now),
            NocPayload::WbMc(line) => self.wb_dram(line, now),
        }
    }

    pub(crate) fn writeback_to_dram(&mut self, from_node: usize, line: LineAddr) {
        let channel = self.dram.channel_for(line);
        let mc = self.mc_node(channel);
        self.send_msg(
            from_node,
            mc,
            self.params.data_packet_flits,
            Priority::Writeback,
            NocPayload::WbMc(line),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Through a long schedule/take loop, the wheel's forward scan
    /// answers the earliest pending fire cycle, each cycle takes exactly
    /// its own events, and the conservation audit holds; a lost event
    /// breaks the audit.
    #[test]
    fn next_due_is_the_earliest_pending_event() {
        let cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .build()
            .expect("valid config");
        let mut e = Engine::new(&cfg, NocChoice::Analytic);
        let mut due: Vec<Cycle> = Vec::new();
        for c in 0..5_000u64 {
            for k in 0..c % 3 {
                let at = c + 1 + (c + k) % 9;
                e.schedule(
                    at,
                    Ev::WbDram {
                        line: LineAddr::new(c * 4 + k),
                    },
                );
                due.push(at);
            }
            assert_eq!(e.events.next_due(c), due.iter().min().copied(), "cycle {c}");
            let evs = e.take_events();
            assert_eq!(
                evs.len(),
                due.iter().filter(|&&a| a == c).count(),
                "cycle {c}"
            );
            due.retain(|&a| a != c);
            e.restore_events(evs);
            assert_eq!(e.pending_events(), due.len(), "cycle {c}");
            assert_eq!(e.audit_events(), Ok(()), "cycle {c}");
            e.now += 1;
        }
        assert!(e.pending_events() > 0, "events stay pending past the loop");
        e.events.fired += 1;
        let err = e.audit_events().unwrap_err();
        assert!(err.contains("event-ring occupancy broken"), "{err}");
    }

    /// The wheel holds events as far out as the slowest cache level
    /// schedules them, and fires them on time.
    #[test]
    fn the_event_ring_covers_the_configured_latencies() {
        let mut cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .build()
            .expect("valid config");
        cfg.l2.latency = 300;
        let mut e = Engine::new(&cfg, NocChoice::Analytic);
        let line = LineAddr::new(9);
        e.schedule(300, Ev::WbDram { line });
        for now in 0..300 {
            e.now = now;
            let evs = e.take_events();
            assert!(evs.is_empty(), "event fired early, at cycle {now}");
            e.restore_events(evs);
        }
        e.now = 300;
        assert_eq!(e.take_events().len(), 1);
    }

    /// A spilled message the count missed is named by the outbox audit.
    #[test]
    fn outbox_audit_catches_a_drifted_spilled_count() {
        let cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .build()
            .expect("valid config");
        let mut e = Engine::new(&cfg, NocChoice::Mesh);
        // Flood one node until its injection queue refuses and messages
        // spill.
        for _ in 0..200 {
            e.send_msg(
                0,
                1,
                8,
                Priority::Demand,
                NocPayload::WbMc(LineAddr::new(9)),
            );
        }
        assert!(e.outbox_backlog() > 0, "the flood must spill");
        assert_eq!(e.audit_outboxes(), Ok(()));
        e.drain_outboxes();
        assert_eq!(e.audit_outboxes(), Ok(()));
        e.spilled -= 1;
        let err = e.audit_outboxes().unwrap_err();
        assert!(err.contains("spilled-message count drifted"), "{err}");
    }
}
