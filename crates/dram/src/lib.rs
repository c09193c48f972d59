//! DRAM models behind the [`DramModel`] trait: channels, banks, row
//! buffers, timing constraints, and a prefetch-aware FR-FCFS controller
//! (PADC, Lee et al., MICRO '08).
//!
//! This is the contended resource at the heart of the paper: with 64 cores
//! and eight DDR4-3200 channels, queueing here inflates every on-chip
//! latency. The models capture the effects the paper depends on:
//!
//! * per-channel data-bus bandwidth (64 B per [`clip_types::DramConfig::burst_cycles`]),
//! * bank-level parallelism and row-buffer locality (tRP/tRCD/CAS),
//! * finite read/write queues with back-pressure,
//! * demand-first scheduling where plain prefetches lose to demands and to
//!   CLIP's critical prefetches, and
//! * write draining with the 7/8 watermark of Table 3.
//!
//! One model, [`DramSystem`], implements the trait for both backend
//! kinds ([`clip_types::DramKind`] / `CLIP_DRAM`): the kind's preset
//! sets channels and timing, and the kind picks the refresh scheme —
//! DDR4's all-bank lockstep refresh or HBM's rolling per-bank schedule.
//!
//! # Examples
//!
//! ```
//! use clip_dram::{DramModel, DramSystem};
//! use clip_types::{DramConfig, LineAddr, Priority, ReqId};
//!
//! let mut dram = DramSystem::new(&DramConfig::default());
//! let ch = dram.channel_for(LineAddr::new(0x42));
//! dram.enqueue_read(ch, ReqId(1), LineAddr::new(0x42), Priority::Demand, 0)
//!     .expect("queue has room");
//! let mut done = Vec::new();
//! for now in 0..400 {
//!     done.extend(dram.tick(now));
//! }
//! assert_eq!(done.len(), 1);
//! ```

use clip_types::{Cycle, DramConfig, DramKind, Fnv64, LineAddr, Priority, ReqId};
use std::fmt;

/// A completed read returned by [`DramModel::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// The request that completed.
    pub id: ReqId,
    /// The line read.
    pub line: LineAddr,
    /// Channel that serviced it.
    pub channel: usize,
    /// Cycle at which data is available.
    pub done_cycle: Cycle,
}

/// Error returned when a channel queue cannot accept another request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError;

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("dram queue is full")
    }
}

impl std::error::Error for QueueFullError {}

/// The surface every memory backend exposes to the simulator, mirroring
/// `NocModel` on the fabric side: request admission with back-pressure,
/// per-cycle progress, the quiescence hook the event wheel relies on,
/// bulk idle-span accounting, statistics, the conservation audit, and
/// fault injection.
///
/// # Contracts
///
/// * **Conservation** — every read accepted by
///   [`DramModel::enqueue_read`] is eventually returned exactly once by
///   [`DramModel::tick`]; [`DramModel::audit`] must detect any loss or
///   duplication (this is what makes
///   [`DramModel::inject_swallow_completion`] catchable).
/// * **Quiescence** — [`DramModel::next_activity`] returns the earliest
///   cycle `>= now` at which `tick` would do externally visible work, or
///   `None` when fully idle. It may be conservative (early) but never
///   late: skipping to the reported cycle and ticking must be
///   bit-identical to ticking every cycle of the span, with
///   [`DramModel::skip_idle`] settling whatever bulk accounting the
///   skipped ticks would have done.
/// * **Determinism** — no interior randomness; identical call sequences
///   produce identical state, completions, and statistics.
pub trait DramModel {
    /// Number of independent channels.
    fn channels(&self) -> usize;

    /// Maps a line to its servicing channel (stable for a given line).
    fn channel_for(&self, line: LineAddr) -> usize;

    /// True when the channel's read queue can accept another request.
    fn read_queue_has_room(&self, channel: usize) -> bool;

    /// Current read-queue occupancy of a channel.
    fn read_queue_len(&self, channel: usize) -> usize;

    /// Enqueues a read (demand, prefetch, or critical prefetch).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the read queue is full; the caller
    /// must retry (this is the back-pressure path).
    fn enqueue_read(
        &mut self,
        channel: usize,
        id: ReqId,
        line: LineAddr,
        priority: Priority,
        now: Cycle,
    ) -> Result<(), QueueFullError>;

    /// Enqueues a writeback.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the write queue is full.
    fn enqueue_write(&mut self, line: LineAddr, now: Cycle) -> Result<(), QueueFullError>;

    /// Advances all channels by one cycle, returning reads whose data is
    /// now available.
    fn tick(&mut self, now: Cycle) -> Vec<DramCompletion>;

    /// Quiescence hook (see the trait-level contract).
    fn next_activity(&self, now: Cycle) -> Option<Cycle>;

    /// Bulk accounting for a skipped idle span `[from, to)` during which
    /// [`DramModel::next_activity`] reported no work.
    fn skip_idle(&mut self, from: Cycle, to: Cycle);

    /// Per-channel statistics.
    fn stats(&self, channel: usize) -> &ChannelStats;

    /// Aggregate statistics across channels.
    fn total_stats(&self) -> ChannelStats;

    /// Conservation + command-legality audit (see the trait-level
    /// contract). With `full`, also scans per-entry timestamps.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant, naming the
    /// channel.
    fn audit(&self, now: Cycle, full: bool) -> Result<(), String>;

    /// Fault injection: silently discards one in-flight completion so the
    /// conservation audit can prove it notices. Returns false when
    /// nothing is in flight.
    fn inject_swallow_completion(&mut self, selector: u64) -> bool;

    /// Fraction of peak bandwidth used so far, given the elapsed cycles.
    fn bandwidth_utilization(&self, elapsed: Cycle) -> f64;

    /// Folds the subsystem's in-flight state into a
    /// divergence-localization fingerprint (see the `clip-sim`
    /// fingerprint layer). With `full`, per-entry queue/bank state is
    /// hashed; otherwise only the O(channels) occupancy balances.
    /// Deterministic runs must produce identical folds.
    fn fingerprint(&self, h: &mut Fnv64, full: bool);
}

/// A queued read, mapped to its bank and global row once, at enqueue.
#[derive(Debug, Clone, Copy)]
struct PendingRead {
    id: ReqId,
    line: LineAddr,
    priority: Priority,
    arrive: Cycle,
    bank: usize,
    row: u64,
}

/// A queued writeback, mapped like [`PendingRead`].
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    line: LineAddr,
    bank: usize,
    row: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
    /// Entries of the channel's read queue that map to this bank.
    queued_reads: u32,
    /// Entries of the channel's write queue that map to this bank.
    queued_writes: u32,
}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Row-buffer hits among serviced commands.
    pub row_hits: u64,
    /// Cycles the data bus was transferring.
    pub busy_cycles: u64,
    /// Sum of read queueing delays (arrival → issue), for averages.
    pub total_read_queue_delay: u64,
    /// Reads that arrived with prefetch priority.
    pub prefetch_reads: u64,
    /// Refreshes performed: all-bank refreshes under DDR4, per-bank
    /// refreshes under HBM.
    pub refreshes: u64,
}

impl ChannelStats {
    /// The counts added since `earlier`, a copy of these stats taken
    /// before: every field is a running total.
    pub fn since(&self, earlier: &ChannelStats) -> ChannelStats {
        ChannelStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            row_hits: self.row_hits - earlier.row_hits,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
            total_read_queue_delay: self.total_read_queue_delay - earlier.total_read_queue_delay,
            prefetch_reads: self.prefetch_reads - earlier.prefetch_reads,
            refreshes: self.refreshes - earlier.refreshes,
        }
    }
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    read_q: Vec<PendingRead>,
    write_q: Vec<PendingWrite>,
    bus_free_at: Cycle,
    draining: bool,
    inflight: Vec<DramCompletion>,
    /// Earliest `done_cycle` in `inflight` (`Cycle::MAX` when empty):
    /// lowered on issue, recomputed by the pass that delivers.
    next_done: Cycle,
    /// The earliest `busy_until` over banks with queued reads
    /// (`Cycle::MAX` when none): lowered on enqueue, recomputed on issue
    /// and refresh (see [`Channel::next_issue`]).
    next_read_issue: Cycle,
    /// The same bound over banks with queued writes.
    next_write_issue: Cycle,
    /// Cycle of the next scheduled all-bank refresh (DDR4 refresh
    /// modeling). Stays 0 under HBM; the full fingerprint hashes it
    /// either way.
    next_refresh: Cycle,
    /// Cycle of each bank's next scheduled refresh under HBM (all 0
    /// while refresh is off, hashed by the full fingerprint after every
    /// channel); empty under DDR4.
    bank_refresh: Vec<Cycle>,
    /// Reads accepted into the queue (conservation audit).
    reads_enqueued: u64,
    /// Read completions handed back from `tick` (conservation audit).
    reads_delivered: u64,
    stats: ChannelStats,
}

impl Channel {
    /// The earliest cycle a bank holding queued work of one class frees:
    /// writes when `writes`, reads otherwise; `None` when that queue is
    /// empty. Arbitration can only pick an entry whose bank is free, so
    /// before this cycle a scheduling pass over that queue finds nothing.
    /// Read from the kept bounds.
    fn next_issue(&self, writes: bool) -> Option<Cycle> {
        let c = if writes {
            self.next_write_issue
        } else {
            self.next_read_issue
        };
        (c != Cycle::MAX).then_some(c)
    }

    /// The issue bounds recomputed from the banks: (reads, writes).
    fn scan_issue_bounds(&self) -> (Cycle, Cycle) {
        let (mut reads, mut writes) = (Cycle::MAX, Cycle::MAX);
        for b in &self.banks {
            if b.queued_reads > 0 {
                reads = reads.min(b.busy_until);
            }
            if b.queued_writes > 0 {
                writes = writes.min(b.busy_until);
            }
        }
        (reads, writes)
    }

    /// Recomputes the kept issue bounds after a bank's `busy_until` rose
    /// or its queue emptied.
    fn rescan_issue_bounds(&mut self) {
        (self.next_read_issue, self.next_write_issue) = self.scan_issue_bounds();
    }

    /// The write-drain hysteresis a tick sets from the current write
    /// queue: enter at the watermark, leave once empty, else hold.
    fn drain_state(&self, cfg: &DramConfig) -> bool {
        let (wn, wd) = cfg.write_watermark;
        if self.write_q.len() * wd >= cfg.write_queue * wn {
            true
        } else if self.write_q.is_empty() {
            false
        } else {
            self.draining
        }
    }
}

/// How the channels refresh, picked from the backend kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refresh {
    /// Refresh is not modelled (`t_refi == 0`).
    Off,
    /// DDR4: every tREFI, all banks of a channel at once are blocked for
    /// tRFC and their rows close.
    AllBank,
    /// HBM: each bank refreshes on its own schedule, staggered across
    /// the channel, blocking only itself for tRFCpb and closing only its
    /// row; `t_refi`/`t_rfc` are read per bank (tREFIpb/tRFCpb).
    PerBank,
}

/// The DRAM subsystem: all channels of the socket.
///
/// Under HBM ([`DramKind::Hbm`], typically configured with more, narrower
/// channels — see `DramConfig::preset(DramKind::Hbm)`) refresh rolls
/// across the banks: only a small fraction of a channel's banks is ever
/// in refresh at once, so under bandwidth pressure the channel keeps
/// serving row hits in other banks where a DDR4 channel would stall
/// wholesale — the fidelity axis the Ramulator 2.0 re-evaluation shows
/// can move conclusions.
#[derive(Debug, Clone)]
pub struct DramSystem {
    cfg: DramConfig,
    refresh: Refresh,
    channels: Vec<Channel>,
    lines_per_row: u64,
}

/// The HBM backend's former name, kept only because perfbench's DRAM
/// driver (`perfbench/src/profile.rs`) still names it; [`DramSystem`]
/// serves both kinds.
pub type HbmDram = DramSystem;

impl DramSystem {
    /// Builds the DRAM system from its configuration; `cfg.kind` picks
    /// the refresh scheme (none when `t_refi == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or not a power of two.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(
            cfg.channels > 0 && cfg.channels.is_power_of_two(),
            "channel count must be a power of two"
        );
        let refresh = match cfg.kind {
            _ if cfg.t_refi == 0 => Refresh::Off,
            DramKind::Ddr4 => Refresh::AllBank,
            DramKind::Hbm => Refresh::PerBank,
        };
        let banks = cfg.banks_per_channel as u64;
        let channel = Channel {
            banks: vec![Bank::default(); cfg.banks_per_channel],
            read_q: Vec::with_capacity(cfg.read_queue),
            write_q: Vec::with_capacity(cfg.write_queue),
            bus_free_at: 0,
            draining: false,
            inflight: Vec::new(),
            next_done: Cycle::MAX,
            next_read_issue: Cycle::MAX,
            next_write_issue: Cycle::MAX,
            next_refresh: if cfg.kind == DramKind::Ddr4 {
                cfg.t_refi
            } else {
                0
            },
            // Stagger bank b's first refresh across (0, tREFI] so the
            // channel never loses more than one bank at a time.
            bank_refresh: if cfg.kind == DramKind::Hbm {
                (0..banks).map(|b| (b + 1) * cfg.t_refi / banks).collect()
            } else {
                Vec::new()
            },
            reads_enqueued: 0,
            reads_delivered: 0,
            stats: ChannelStats::default(),
        };
        DramSystem {
            cfg: *cfg,
            refresh,
            channels: vec![channel; cfg.channels],
            lines_per_row: (cfg.row_bytes / clip_types::LINE_BYTES) as u64,
        }
    }

    /// The bank (within its channel) and global row a line maps to.
    #[inline]
    fn bank_row(&self, line: LineAddr) -> (usize, u64) {
        let row = line.raw() / self.lines_per_row;
        (
            (clip_types::hash64(row) as usize) % self.cfg.banks_per_channel,
            row,
        )
    }

    fn tick_channel(&mut self, ci: usize, now: Cycle, done: &mut Vec<DramCompletion>) {
        let cfg = self.cfg;
        let ch = &mut self.channels[ci];
        // Deliver finished reads, recomputing the earliest one left.
        if ch.next_done <= now {
            let mut next_done = Cycle::MAX;
            let mut i = 0;
            while i < ch.inflight.len() {
                if ch.inflight[i].done_cycle <= now {
                    done.push(ch.inflight.swap_remove(i));
                    ch.reads_delivered += 1;
                } else {
                    next_done = next_done.min(ch.inflight[i].done_cycle);
                    i += 1;
                }
            }
            ch.next_done = next_done;
        }

        match self.refresh {
            // All-bank refresh: when tREFI elapses, every bank is blocked
            // for tRFC and all rows close (the post-refresh state).
            Refresh::AllBank if now >= ch.next_refresh => {
                ch.next_refresh = now + cfg.t_refi;
                ch.stats.refreshes += 1;
                for b in ch.banks.iter_mut() {
                    b.busy_until = b.busy_until.max(now + cfg.t_rfc);
                    b.open_row = None;
                }
                ch.rescan_issue_bounds();
            }
            // Per-bank refresh: each due bank is blocked for tRFCpb, its
            // row closes, and it is rescheduled one tREFI out.
            Refresh::PerBank => {
                let mut refreshed = false;
                for (bank, next) in ch.banks.iter_mut().zip(ch.bank_refresh.iter_mut()) {
                    if now >= *next {
                        *next = now + cfg.t_refi;
                        ch.stats.refreshes += 1;
                        bank.busy_until = bank.busy_until.max(now + cfg.t_rfc);
                        bank.open_row = None;
                        refreshed = true;
                    }
                }
                if refreshed {
                    ch.rescan_issue_bounds();
                }
            }
            _ => {}
        }

        // Update write-drain hysteresis (enter at watermark, leave empty).
        ch.draining = ch.drain_state(&cfg);

        if ch.bus_free_at > now {
            ch.stats.busy_cycles += 1;
            return;
        }

        // Reads are prioritized over writes unless draining (Table 3).
        // Until a bank holding queued work of the served class frees, the
        // pass below would pick nothing.
        let serve_write = ch.draining || ch.read_q.is_empty();
        if ch.next_issue(serve_write).is_none_or(|c| c > now) {
            return;
        }
        if serve_write {
            // FCFS over writes with a ready bank.
            let Some(qi) = ch
                .write_q
                .iter()
                .position(|w| ch.banks[w.bank].busy_until <= now)
            else {
                return;
            };
            let w = ch.write_q.remove(qi);
            let bank = &mut ch.banks[w.bank];
            bank.queued_writes -= 1;
            let lat = Self::access_latency(&cfg, bank, w.row);
            bank.open_row = Some(w.row);
            bank.busy_until = now + lat + cfg.burst_cycles;
            ch.bus_free_at = now + cfg.burst_cycles;
            ch.stats.writes += 1;
            ch.rescan_issue_bounds();
            return;
        }

        // FR-FCFS with priority classes: (priority, row-hit, age).
        let mut best: Option<(usize, (u8, bool, Cycle))> = None;
        for (qi, r) in ch.read_q.iter().enumerate() {
            let bank = &ch.banks[r.bank];
            if bank.busy_until > now {
                continue;
            }
            let row_hit = bank.open_row == Some(r.row);
            let prio_class = if cfg.prefetch_aware {
                match r.priority {
                    Priority::Demand => 2u8,
                    Priority::Writeback => 1,
                    Priority::Prefetch => 0,
                }
            } else {
                1
            };
            // Demand-first FR-FCFS (PADC): priority class first — demands
            // and CLIP-critical prefetches beat plain prefetches — then
            // row hits, then age. This sacrifices some row locality when
            // prefetches are accurate, which is part of the paper's
            // constrained-bandwidth story.
            let key = (prio_class, row_hit, Cycle::MAX - r.arrive);
            if best.is_none_or(|(_, bk)| key > bk) {
                best = Some((qi, key));
            }
        }
        let Some((qi, _)) = best else {
            return;
        };
        let r = ch.read_q.remove(qi);
        let bank = &mut ch.banks[r.bank];
        bank.queued_reads -= 1;
        let row_hit = bank.open_row == Some(r.row);
        let lat = Self::access_latency(&cfg, bank, r.row);
        bank.open_row = Some(r.row);
        bank.busy_until = now + lat + cfg.burst_cycles;
        ch.bus_free_at = now + cfg.burst_cycles;
        ch.rescan_issue_bounds();
        ch.stats.reads += 1;
        if row_hit {
            ch.stats.row_hits += 1;
        }
        ch.stats.total_read_queue_delay += now - r.arrive;
        let done_cycle = now + lat + cfg.burst_cycles;
        ch.next_done = ch.next_done.min(done_cycle);
        ch.inflight.push(DramCompletion {
            id: r.id,
            line: r.line,
            channel: ci,
            done_cycle,
        });
    }

    fn access_latency(cfg: &DramConfig, bank: &Bank, row: u64) -> Cycle {
        match bank.open_row {
            Some(open) if open == row => cfg.t_cas,
            Some(_) => cfg.t_rp + cfg.t_rcd + cfg.t_cas,
            None => cfg.t_rcd + cfg.t_cas,
        }
    }

    /// The full audit's cache check for one channel (see
    /// [`DramModel::audit`]).
    fn audit_bank_index(&self, ci: usize, ch: &Channel) -> Result<(), String> {
        let mut counts = vec![(0u32, 0u32); ch.banks.len()];
        let entries = ch.read_q.iter().map(|r| (r.line, r.bank, r.row, true));
        let entries = entries.chain(ch.write_q.iter().map(|w| (w.line, w.bank, w.row, false)));
        for (line, bank, row, is_read) in entries {
            let (want_bank, want_row) = self.bank_row(line);
            if (bank, row) != (want_bank, want_row) {
                return Err(format!(
                    "channel {ci} queued entry for line {:#x} indexed to bank {bank} row \
                     {row:#x}, but the line maps to bank {want_bank} row {want_row:#x}",
                    line.raw()
                ));
            }
            if is_read {
                counts[bank].0 += 1;
            } else {
                counts[bank].1 += 1;
            }
        }
        for (bi, (b, &(reads, writes))) in ch.banks.iter().zip(&counts).enumerate() {
            if (b.queued_reads, b.queued_writes) != (reads, writes) {
                return Err(format!(
                    "channel {ci} bank {bi} queue index drifted: counts {} reads + {} \
                     writes but {reads} + {writes} queued",
                    b.queued_reads, b.queued_writes
                ));
            }
        }
        let earliest = ch.inflight.iter().map(|c| c.done_cycle).min();
        if ch.next_done != earliest.unwrap_or(Cycle::MAX) {
            return Err(format!(
                "channel {ci} earliest-completion cache drifted: cached {} but the \
                 earliest in-flight read completes at {earliest:?}",
                ch.next_done
            ));
        }
        let (reads, writes) = ch.scan_issue_bounds();
        if (ch.next_read_issue, ch.next_write_issue) != (reads, writes) {
            return Err(format!(
                "channel {ci} issue bound drifted: kept {} for reads and {} for writes \
                 but the banks give {reads} and {writes}",
                ch.next_read_issue, ch.next_write_issue
            ));
        }
        Ok(())
    }
}

impl DramModel for DramSystem {
    fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Hash-interleaved.
    #[inline]
    fn channel_for(&self, line: LineAddr) -> usize {
        (clip_types::hash64(line.raw()) as usize) & (self.channels.len() - 1)
    }

    fn read_queue_has_room(&self, channel: usize) -> bool {
        self.channels[channel].read_q.len() < self.cfg.read_queue
    }

    fn read_queue_len(&self, channel: usize) -> usize {
        self.channels[channel].read_q.len()
    }

    fn enqueue_read(
        &mut self,
        channel: usize,
        id: ReqId,
        line: LineAddr,
        priority: Priority,
        now: Cycle,
    ) -> Result<(), QueueFullError> {
        if !self.read_queue_has_room(channel) {
            return Err(QueueFullError);
        }
        let (bank, row) = self.bank_row(line);
        let ch = &mut self.channels[channel];
        if priority == Priority::Prefetch {
            ch.stats.prefetch_reads += 1;
        }
        ch.read_q.push(PendingRead {
            id,
            line,
            priority,
            arrive: now,
            bank,
            row,
        });
        ch.banks[bank].queued_reads += 1;
        ch.next_read_issue = ch.next_read_issue.min(ch.banks[bank].busy_until);
        ch.reads_enqueued += 1;
        Ok(())
    }

    fn enqueue_write(&mut self, line: LineAddr, _now: Cycle) -> Result<(), QueueFullError> {
        let channel = self.channel_for(line);
        if self.channels[channel].write_q.len() >= self.cfg.write_queue {
            return Err(QueueFullError);
        }
        let (bank, row) = self.bank_row(line);
        let ch = &mut self.channels[channel];
        ch.write_q.push(PendingWrite { line, bank, row });
        ch.banks[bank].queued_writes += 1;
        ch.next_write_issue = ch.next_write_issue.min(ch.banks[bank].busy_until);
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<DramCompletion> {
        let mut done = Vec::new();
        for ci in 0..self.channels.len() {
            self.tick_channel(ci, now, &mut done);
        }
        done
    }

    /// Quiescence hook: the earliest cycle `>= now` at which `tick` does
    /// anything beyond counting bus-busy cycles (which [`DramModel::skip_idle`]
    /// settles in bulk), or `None` when every channel is empty.
    ///
    /// A queued read or write can only turn into a command once the data
    /// bus frees (`bus_free_at`) **and** a bank serving the prioritized
    /// queue frees — while a burst occupies the bus or every candidate
    /// bank is mid-access, a tick delivers completions (folded below),
    /// updates the write-drain hysteresis (constant-queue idempotent;
    /// settled by [`DramModel::skip_idle`]), and counts the cycle busy,
    /// nothing else. During a skipped span nothing enqueues (external
    /// traffic only arrives on ticked cycles), so queue contents — and
    /// therefore the serve-writes decision and the candidate bank set —
    /// are constant, and the earliest `busy_until` among candidate banks
    /// is exactly the next cycle arbitration can act. With empty queues
    /// the only future activity is a scheduled completion or, when
    /// refresh is modelled (`t_refi > 0`), the next all-bank refresh
    /// (DDR4) or the next bank's refresh (HBM).
    /// The kept issue bounds and the cached earliest completion give the
    /// answer in O(1) per channel, without visiting a bank or a queued
    /// entry.
    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut fold = |c: Cycle| next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        for ch in &self.channels {
            if !ch.read_q.is_empty() || !ch.write_q.is_empty() {
                if ch.bus_free_at > now {
                    fold(ch.bus_free_at);
                } else {
                    // Bus free: the next command issues when a candidate
                    // bank frees. The hysteresis value a tick would see
                    // picks the queue.
                    let writes = ch.drain_state(&self.cfg) || ch.read_q.is_empty();
                    if let Some(c) = ch.next_issue(writes) {
                        fold(c.max(now));
                    }
                }
            }
            if !ch.inflight.is_empty() {
                fold(ch.next_done.max(now));
            }
            match self.refresh {
                Refresh::AllBank => fold(ch.next_refresh.max(now)),
                Refresh::PerBank => {
                    for &r in &ch.bank_refresh {
                        fold(r.max(now));
                    }
                }
                Refresh::Off => {}
            }
        }
        next
    }

    /// Bulk accounting for a skipped idle span `[from, to)` during which
    /// [`DramModel::next_activity`] reported no work: each channel whose
    /// data bus was still draining a burst counts those cycles busy, and
    /// the write-drain hysteresis settles exactly as a run of ticks over
    /// a constant-length queue would (enter at the watermark, leave
    /// empty — idempotent, so once equals many). After this, channel
    /// state is bit-identical to having ticked every cycle of the span.
    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        for ch in self.channels.iter_mut() {
            if ch.bus_free_at > from {
                ch.stats.busy_cycles += ch.bus_free_at.min(to) - from;
            }
            ch.draining = ch.drain_state(&self.cfg);
        }
    }

    fn stats(&self, channel: usize) -> &ChannelStats {
        &self.channels[channel].stats
    }

    fn total_stats(&self) -> ChannelStats {
        let mut t = ChannelStats::default();
        for ch in &self.channels {
            t.reads += ch.stats.reads;
            t.writes += ch.stats.writes;
            t.row_hits += ch.stats.row_hits;
            t.busy_cycles += ch.stats.busy_cycles;
            t.total_read_queue_delay += ch.stats.total_read_queue_delay;
            t.prefetch_reads += ch.stats.prefetch_reads;
            t.refreshes += ch.stats.refreshes;
        }
        t
    }

    /// Command legality + conservation audit across all channels: every
    /// accepted read must be queued, in flight, or delivered, and queue
    /// occupancies must respect their configured capacities. With `full`,
    /// also scans per-entry timestamps (an in-flight completion dated
    /// before `now` would mean `tick` failed to deliver it) and recomputes
    /// the scheduling caches from the queues: each entry's bank and row,
    /// the per-bank queue counts, the earliest in-flight completion, and
    /// the kept issue bounds; under per-bank refresh it then checks that
    /// no bank's refresh is overdue.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant, naming the
    /// channel.
    fn audit(&self, now: Cycle, full: bool) -> Result<(), String> {
        for (ci, ch) in self.channels.iter().enumerate() {
            let outstanding = (ch.read_q.len() + ch.inflight.len()) as u64;
            if ch.reads_enqueued != ch.reads_delivered + outstanding {
                return Err(format!(
                    "channel {ci} read conservation broken: {} enqueued but {} delivered + \
                     {} queued + {} in flight (lost {})",
                    ch.reads_enqueued,
                    ch.reads_delivered,
                    ch.read_q.len(),
                    ch.inflight.len(),
                    ch.reads_enqueued as i64 - (ch.reads_delivered + outstanding) as i64
                ));
            }
            if ch.read_q.len() > self.cfg.read_queue {
                return Err(format!(
                    "channel {ci} read queue over capacity: {} in a {}-entry queue",
                    ch.read_q.len(),
                    self.cfg.read_queue
                ));
            }
            if ch.write_q.len() > self.cfg.write_queue {
                return Err(format!(
                    "channel {ci} write queue over capacity: {} in a {}-entry queue",
                    ch.write_q.len(),
                    self.cfg.write_queue
                ));
            }
            if full {
                for c in &ch.inflight {
                    if c.done_cycle < now {
                        return Err(format!(
                            "channel {ci} holds a stale completion for line {:#x} \
                             (done at {} but now is {now})",
                            c.line.raw(),
                            c.done_cycle
                        ));
                    }
                }
                for r in &ch.read_q {
                    if r.arrive > now {
                        return Err(format!(
                            "channel {ci} queued read for line {:#x} arrived in the future \
                             (cycle {} > now {now})",
                            r.line.raw(),
                            r.arrive
                        ));
                    }
                }
                self.audit_bank_index(ci, ch)?;
            }
        }
        if full && self.refresh == Refresh::PerBank {
            for (ci, ch) in self.channels.iter().enumerate() {
                for (bi, &next) in ch.bank_refresh.iter().enumerate() {
                    if next < now {
                        return Err(format!(
                            "channel {ci} bank {bi} refresh overdue \
                             (scheduled at {next} but now is {now})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Fault injection: silently discards one in-flight completion, as a
    /// controller that loses a response would — the requesting MSHR never
    /// fills and the read is never counted delivered, so [`DramModel::audit`]
    /// reports the loss. The victim is picked by `selector` over all
    /// channels' in-flight entries in (channel, queue-position) order.
    /// Returns false when nothing is in flight.
    fn inject_swallow_completion(&mut self, selector: u64) -> bool {
        let total: usize = self.channels.iter().map(|c| c.inflight.len()).sum();
        if total == 0 {
            return false;
        }
        let mut idx = (selector % total as u64) as usize;
        for ch in self.channels.iter_mut() {
            if idx < ch.inflight.len() {
                ch.inflight.remove(idx);
                ch.next_done = ch
                    .inflight
                    .iter()
                    .map(|c| c.done_cycle)
                    .min()
                    .unwrap_or(Cycle::MAX);
                return true;
            }
            idx -= ch.inflight.len();
        }
        unreachable!("index bounded by total in-flight count")
    }

    /// Fraction of peak bandwidth used so far, given the elapsed cycles.
    /// This is the *overall* utilization across channels — the signal
    /// DSPatch samples (per-controller in the original; see the paper's
    /// critique).
    fn bandwidth_utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let transfers: u64 = self
            .channels
            .iter()
            .map(|c| c.stats.reads + c.stats.writes)
            .sum();
        let peak = self.channels.len() as f64 * elapsed as f64 / self.cfg.burst_cycles as f64;
        (transfers as f64 / peak).min(1.0)
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        for ch in &self.channels {
            h.write_u64(ch.reads_enqueued)
                .write_u64(ch.reads_delivered)
                .write_usize(ch.read_q.len())
                .write_usize(ch.write_q.len())
                .write_usize(ch.inflight.len());
            if !full {
                continue;
            }
            for r in &ch.read_q {
                h.write_u64(r.id.0)
                    .write_u64(r.line.raw())
                    .write_u64(r.priority as u64)
                    .write_u64(r.arrive);
            }
            for w in &ch.write_q {
                h.write_u64(w.line.raw());
            }
            for c in &ch.inflight {
                h.write_u64(c.id.0).write_u64(c.done_cycle);
            }
            for b in &ch.banks {
                h.write_u64(b.open_row.map_or(u64::MAX, |r| r))
                    .write_u64(b.busy_until);
            }
            h.write_u64(ch.bus_free_at).write_u64(ch.next_refresh);
        }
        if full {
            for ch in &self.channels {
                for &next in &ch.bank_refresh {
                    h.write_u64(next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(channels: usize) -> DramSystem {
        let cfg = DramConfig {
            channels,
            ..DramConfig::default()
        };
        DramSystem::new(&cfg)
    }

    fn run(dram: &mut DramSystem, cycles: u64) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for now in 0..cycles {
            out.extend(dram.tick(now));
        }
        out
    }

    #[test]
    fn single_read_completes_with_closed_row_latency() {
        let mut d = sys(1);
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        let done = run(&mut d, 200);
        assert_eq!(done.len(), 1);
        // Closed row: tRCD + CAS + burst = 50 + 50 + 10 = 110.
        assert_eq!(done[0].done_cycle, 110);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = sys(1);
        // Same row back to back.
        d.enqueue_read(0, ReqId(1), LineAddr::new(0), Priority::Demand, 0)
            .unwrap();
        d.enqueue_read(0, ReqId(2), LineAddr::new(1), Priority::Demand, 0)
            .unwrap();
        let done = run(&mut d, 400);
        assert_eq!(done.len(), 2);
        let t1 = done.iter().find(|c| c.id == ReqId(1)).unwrap().done_cycle;
        let t2 = done.iter().find(|c| c.id == ReqId(2)).unwrap().done_cycle;
        // Second access is a row hit: CAS + burst after first issue.
        assert!(t2 - t1 < 110, "row hit should be fast, got {}", t2 - t1);
    }

    #[test]
    fn demand_beats_queued_prefetches() {
        let mut d = sys(1);
        // Fill with prefetches to different rows, then one demand.
        for i in 0..8u64 {
            d.enqueue_read(0, ReqId(i), LineAddr::new(i * 1000), Priority::Prefetch, 0)
                .unwrap();
        }
        d.enqueue_read(0, ReqId(99), LineAddr::new(50_000), Priority::Demand, 0)
            .unwrap();
        let done = run(&mut d, 2000);
        let demand_pos = done.iter().position(|c| c.id == ReqId(99)).unwrap();
        assert!(
            demand_pos <= 1,
            "demand must be serviced near-first, was at {demand_pos}"
        );
    }

    #[test]
    fn without_prefetch_awareness_fcfs_age_order() {
        let cfg = DramConfig {
            channels: 1,
            prefetch_aware: false,
            ..DramConfig::default()
        };
        let mut d = DramSystem::new(&cfg);
        for i in 0..4u64 {
            d.enqueue_read(0, ReqId(i), LineAddr::new(i * 1000), Priority::Prefetch, i)
                .unwrap();
        }
        d.enqueue_read(0, ReqId(99), LineAddr::new(50_000), Priority::Demand, 10)
            .unwrap();
        let done = run(&mut d, 2000);
        let demand_pos = done.iter().position(|c| c.id == ReqId(99)).unwrap();
        assert!(demand_pos >= 3, "demand must wait its turn without PADC");
    }

    #[test]
    fn queue_full_backpressure() {
        let mut d = sys(1);
        let mut ok = 0;
        for i in 0..100u64 {
            if d.enqueue_read(0, ReqId(i), LineAddr::new(i), Priority::Demand, 0)
                .is_ok()
            {
                ok += 1;
            }
        }
        assert_eq!(ok, DramConfig::default().read_queue);
        assert!(!d.read_queue_has_room(0));
    }

    #[test]
    fn bandwidth_scales_with_channels() {
        // Saturate 1 vs 4 channels with uniformly spread lines and compare
        // completions in the same window.
        let mut served = Vec::new();
        for chans in [1usize, 4] {
            let mut d = sys(chans);
            let mut next_id = 0u64;
            let mut completions = 0u64;
            for now in 0..5000u64 {
                for _ in 0..4 {
                    let line = LineAddr::new(clip_types::hash64(next_id) >> 16);
                    let ch = d.channel_for(line);
                    if d.enqueue_read(ch, ReqId(next_id), line, Priority::Demand, now)
                        .is_ok()
                    {
                        next_id += 1;
                    }
                }
                completions += d.tick(now).len() as u64;
            }
            served.push(completions);
        }
        assert!(
            served[1] as f64 > served[0] as f64 * 2.5,
            "4 channels must serve >2.5x of 1 channel: {served:?}"
        );
    }

    #[test]
    fn writes_drain_at_watermark() {
        let mut d = sys(1);
        let wq = DramConfig::default().write_queue;
        // Fill write queue to the watermark.
        for i in 0..(wq * 7 / 8 + 1) as u64 {
            d.enqueue_write(LineAddr::new(i * 64), 0).unwrap();
        }
        let _ = run(&mut d, 3000);
        let s = d.total_stats();
        assert!(s.writes > 0, "writes must drain");
    }

    #[test]
    fn utilization_is_bounded() {
        let mut d = sys(2);
        for i in 0..32u64 {
            let line = LineAddr::new(i * 997);
            let ch = d.channel_for(line);
            let _ = d.enqueue_read(ch, ReqId(i), line, Priority::Demand, 0);
        }
        let _ = run(&mut d, 1000);
        let u = d.bandwidth_utilization(1000);
        assert!((0.0..=1.0).contains(&u));
        assert!(u > 0.0);
    }

    #[test]
    fn refresh_blocks_banks_and_closes_rows() {
        let cfg = DramConfig {
            channels: 1,
            t_refi: 1_000,
            t_rfc: 300,
            ..DramConfig::default()
        };
        let mut d = DramSystem::new(&cfg);
        // Request arriving right at the refresh boundary waits out tRFC.
        d.enqueue_read(0, ReqId(1), LineAddr::new(5), Priority::Demand, 0)
            .unwrap();
        let done = run(&mut d, 2000);
        assert_eq!(done.len(), 1);
        // Without refresh the request would finish in ~110 cycles; one
        // arriving at the refresh boundary waits out tRFC first.
        let mut d2 = DramSystem::new(&cfg);
        for now in 0..1_000u64 {
            let _ = d2.tick(now);
        }
        d2.enqueue_read(0, ReqId(2), LineAddr::new(5), Priority::Demand, 1_000)
            .unwrap();
        let mut done2 = Vec::new();
        for now in 1_000..5_000u64 {
            done2.extend(d2.tick(now));
        }
        assert_eq!(done2.len(), 1);
        assert!(
            done2[0].done_cycle >= 1_000 + 300,
            "request behind a refresh must wait tRFC: {}",
            done2[0].done_cycle
        );
        assert!(d2.total_stats().refreshes >= 1);
    }

    #[test]
    fn refresh_disabled_by_default() {
        let mut d = sys(1);
        let _ = run(&mut d, 100_000);
        assert_eq!(d.total_stats().refreshes, 0);
    }

    #[test]
    fn audit_passes_through_normal_traffic() {
        let mut d = sys(2);
        for i in 0..16u64 {
            let line = LineAddr::new(i * 997);
            let ch = d.channel_for(line);
            let _ = d.enqueue_read(ch, ReqId(i), line, Priority::Demand, 0);
        }
        for now in 0..1000 {
            d.tick(now);
            assert_eq!(d.audit(now, true), Ok(()), "cycle {now}");
        }
    }

    #[test]
    fn swallowed_completion_breaks_audit() {
        let mut d = sys(1);
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        // Tick until the read is issued (in flight), then swallow it.
        let mut swallowed = false;
        for now in 0..200 {
            d.tick(now);
            if d.inject_swallow_completion(5) {
                swallowed = true;
                break;
            }
        }
        assert!(swallowed, "the read should have been in flight");
        let err = d.audit(200, false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        assert!(err.contains("channel 0"), "{err}");
    }

    #[test]
    fn full_audit_catches_a_drifted_bank_index() {
        let mut d = sys(1);
        for i in 0..8u64 {
            d.enqueue_read(0, ReqId(i), LineAddr::new(i * 977), Priority::Demand, 0)
                .unwrap();
        }
        d.enqueue_write(LineAddr::new(5), 0).unwrap();
        assert_eq!(d.audit(0, true), Ok(()));
        let bank = d.channels[0].read_q[3].bank;
        d.channels[0].banks[bank].queued_reads -= 1;
        let err = d.audit(0, true).unwrap_err();
        assert!(err.contains("queue index drifted"), "{err}");
        assert_eq!(d.audit(0, false), Ok(()), "only the full audit checks it");
    }

    #[test]
    fn full_audit_catches_a_drifted_earliest_completion() {
        let mut d = sys(1);
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        d.tick(0);
        assert_eq!(d.audit(1, true), Ok(()));
        d.channels[0].next_done += 1;
        let err = d.audit(1, true).unwrap_err();
        assert!(err.contains("earliest-completion cache drifted"), "{err}");
    }

    #[test]
    fn full_audit_catches_a_drifted_issue_bound() {
        let mut d = sys(1);
        for i in 0..4u64 {
            d.enqueue_read(0, ReqId(i), LineAddr::new(i * 977), Priority::Demand, 0)
                .unwrap();
        }
        d.enqueue_write(LineAddr::new(5), 0).unwrap();
        d.tick(0);
        assert_eq!(d.audit(1, true), Ok(()));
        d.channels[0].next_read_issue += 1;
        let err = d.audit(1, true).unwrap_err();
        assert!(err.contains("issue bound drifted"), "{err}");
        assert_eq!(d.audit(1, false), Ok(()), "only the full audit checks it");
    }

    #[test]
    fn swallow_on_idle_dram_is_noop() {
        let mut d = sys(2);
        assert!(!d.inject_swallow_completion(3));
        assert_eq!(d.audit(0, true), Ok(()));
    }

    #[test]
    fn quiescence_reports_completion_and_refresh() {
        let mut d = sys(1);
        assert_eq!(d.next_activity(0), None, "empty controller is idle");
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        assert_eq!(d.next_activity(0), Some(0), "queued read is work now");
        // Issue the read; once in flight with an empty queue, the next
        // activity is exactly the completion cycle (110, see above).
        d.tick(0);
        assert_eq!(d.next_activity(1), Some(110));
        let cfg = DramConfig {
            channels: 1,
            t_refi: 500,
            ..DramConfig::default()
        };
        let d2 = DramSystem::new(&cfg);
        assert_eq!(
            d2.next_activity(0),
            Some(500),
            "refresh is an activity source"
        );
    }

    #[test]
    fn skip_idle_matches_ticked_idle_span() {
        // Two identical controllers issue one read each, then one ticks
        // through the dead wait while the other skips it; stats and the
        // delivered completion must agree bit-for-bit.
        let mut stepped = sys(1);
        let mut skipped = sys(1);
        for d in [&mut stepped, &mut skipped] {
            d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
                .unwrap();
            d.tick(0); // issues the read; bus busy, completion at 110.
        }
        let next = skipped.next_activity(1).expect("completion pending");
        let mut stepped_done = Vec::new();
        for now in 1..=next {
            stepped_done.extend(stepped.tick(now));
        }
        skipped.skip_idle(1, next);
        let skipped_done = skipped.tick(next);
        assert_eq!(stepped_done, skipped_done);
        assert_eq!(stepped.total_stats(), skipped.total_stats());
        assert_eq!(skipped.audit(next, true), Ok(()));
    }

    #[test]
    fn channel_mapping_is_stable_and_in_range() {
        let d = sys(8);
        for i in 0..1000u64 {
            let c = d.channel_for(LineAddr::new(i));
            assert!(c < 8);
            assert_eq!(c, d.channel_for(LineAddr::new(i)));
        }
    }

    fn hbm_cfg(channels: usize, t_refi: u64) -> DramConfig {
        DramConfig {
            channels,
            t_refi,
            ..DramConfig::preset(clip_types::DramKind::Hbm)
        }
    }

    /// Drives the model through the trait object, as a caller that
    /// picks the backend at run time does.
    fn run_model(dram: &mut dyn DramModel, from: u64, cycles: u64) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for now in from..from + cycles {
            out.extend(dram.tick(now));
        }
        out
    }

    #[test]
    fn hbm_serves_reads_through_the_trait_object() {
        let mut d: Box<dyn DramModel> = Box::new(DramSystem::new(&hbm_cfg(1, 0)));
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        let done = run_model(d.as_mut(), 0, 400);
        assert_eq!(done.len(), 1);
        // Closed row with HBM preset timing: tRCD + CAS + burst = 56 + 56 + 20.
        assert_eq!(done[0].done_cycle, 132);
        assert_eq!(d.total_stats().reads, 1);
        assert_eq!(d.audit(400, true), Ok(()));
    }

    #[test]
    fn hbm_refresh_blocks_one_bank_at_a_time() {
        // Stagger slot (tREFI / banks = 1000) wider than tRFCpb (640):
        // at most one bank of the channel refreshes at a time, unlike
        // DDR4's all-bank lockstep which gang-blocks the whole channel.
        let cfg = hbm_cfg(1, 32_000);
        let mut d = DramSystem::new(&cfg);
        let mut max_blocked = 0usize;
        for now in 0..100_000u64 {
            d.tick(now);
            let blocked = d.channels[0]
                .banks
                .iter()
                .filter(|b| b.busy_until > now)
                .count();
            max_blocked = max_blocked.max(blocked);
        }
        let refreshes = d.total_stats().refreshes;
        assert!(refreshes >= 2 * cfg.banks_per_channel as u64, "{refreshes}");
        assert!(
            max_blocked <= 1,
            "rolling refresh must not gang-block banks, saw {max_blocked}"
        );
    }

    #[test]
    fn hbm_quiescence_reports_refresh_and_completion() {
        let mut d = DramSystem::new(&hbm_cfg(1, 32_000));
        // Idle: the only activity is the first staggered bank refresh.
        let first = d.next_activity(0).expect("refresh is an activity source");
        assert_eq!(first, 32_000 / 32, "first stagger slot");
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        assert_eq!(d.next_activity(0), Some(0), "queued read is work now");
        d.tick(0);
        // In flight: completion at 132 beats the refresh schedule.
        assert_eq!(d.next_activity(1), Some(132));
    }

    #[test]
    fn hbm_skip_idle_matches_ticked_idle_span_across_refreshes() {
        // Wheel-style driving (skip to next_activity, settle, tick) must
        // be bit-identical to grinding every cycle — including refresh
        // boundaries, which next_activity folds in.
        let cfg = hbm_cfg(1, 2_000);
        let mut stepped = DramSystem::new(&cfg);
        let mut wheeled = DramSystem::new(&cfg);
        for d in [&mut stepped, &mut wheeled] {
            d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
                .unwrap();
        }
        let horizon = 10_000u64;
        let mut stepped_done = run_model(&mut stepped, 0, horizon);
        stepped_done.sort_by_key(|c| c.done_cycle);

        let mut wheeled_done = Vec::new();
        let mut now = 0u64;
        while now < horizon {
            wheeled_done.extend(wheeled.tick(now));
            match wheeled.next_activity(now + 1) {
                Some(next) if next < horizon => {
                    wheeled.skip_idle(now + 1, next);
                    now = next;
                }
                _ => break,
            }
        }
        wheeled_done.sort_by_key(|c| c.done_cycle);
        assert_eq!(stepped_done, wheeled_done);
        assert_eq!(stepped.total_stats(), wheeled.total_stats());
        assert_eq!(wheeled.audit(horizon, false), Ok(()));
    }

    #[test]
    fn hbm_swallowed_completion_breaks_audit() {
        let mut d = DramSystem::new(&hbm_cfg(1, 0));
        d.enqueue_read(0, ReqId(1), LineAddr::new(7), Priority::Demand, 0)
            .unwrap();
        let mut swallowed = false;
        for now in 0..300 {
            d.tick(now);
            if d.inject_swallow_completion(5) {
                swallowed = true;
                break;
            }
        }
        assert!(swallowed, "the read should have been in flight");
        let err = d.audit(300, false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
    }

    #[test]
    fn ddr4_and_hbm_presets_agree_on_peak_utilization_bound() {
        for mut d in [
            Box::new(DramSystem::new(&DramConfig::default())) as Box<dyn DramModel>,
            Box::new(DramSystem::new(&hbm_cfg(16, 0))),
        ] {
            for i in 0..64u64 {
                let line = LineAddr::new(i * 997);
                let ch = d.channel_for(line);
                let _ = d.enqueue_read(ch, ReqId(i), line, Priority::Demand, 0);
            }
            run_model(d.as_mut(), 0, 2_000);
            let u = d.bandwidth_utilization(2_000);
            assert!((0.0..=1.0).contains(&u) && u > 0.0, "{u}");
        }
    }
}
