//! Out-of-order core model: ROB, dispatch/retire, branch prediction, and
//! the ROB-stall bookkeeping that defines load criticality.
//!
//! The model is trace-driven, like the ChampSim cores of the paper: it
//! consumes [`clip_trace::Instr`]s, dispatches up to `issue_width` per
//! cycle into a `rob_entries`-deep reorder buffer, issues loads to the
//! memory hierarchy through a [`MemIssuePort`], and retires in order up to
//! `retire_width` per cycle. A load that is incomplete at the ROB head
//! blocks retirement — the paper's ROB-stall flag — and when its response
//! arrives from beyond the L1 (the miss-level flag), a [`LoadOutcome`] with
//! `stalled_head = true` is produced: the ground truth every criticality
//! predictor in this workspace trains against.
//!
//! # Examples
//!
//! ```
//! use clip_cpu::{Core, MemIssuePort};
//! use clip_types::{Addr, CoreConfig, Cycle, Ip, ReqId};
//!
//! struct AlwaysHit(u64);
//! impl MemIssuePort for AlwaysHit {
//!     fn issue_load(&mut self, _: Ip, _: Addr, _: Cycle) -> Option<ReqId> {
//!         self.0 += 1;
//!         Some(ReqId(self.0))
//!     }
//!     fn issue_store(&mut self, _: Ip, _: Addr, _: Cycle) -> bool { true }
//! }
//!
//! let mut core = Core::new(&CoreConfig::default());
//! assert_eq!(core.retired(), 0);
//! ```

pub mod perceptron;

pub use perceptron::PerceptronPredictor;

use clip_trace::{Instr, InstrKind};
use clip_types::{Addr, BitHistory, CoreConfig, Cycle, Fnv64, Ip, MemLevel, ReqId};
use std::collections::VecDeque;

/// The interface a core uses to issue memory operations.
///
/// Implemented by the simulator's per-core L1D front end. Returning `None`
/// (or `false`) signals structural back-pressure (MSHRs or queues full);
/// the core retries the same instruction next cycle.
pub trait MemIssuePort {
    /// Attempts to issue a demand load; returns its request id on success.
    fn issue_load(&mut self, ip: Ip, addr: Addr, now: Cycle) -> Option<ReqId>;
    /// Attempts to issue a demand store; returns success.
    fn issue_store(&mut self, ip: Ip, addr: Addr, now: Cycle) -> bool;
}

/// The completion record of one demand load, produced by
/// [`Core::complete_load`]. This is the training event for CLIP and for
/// every baseline criticality predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Load instruction pointer.
    pub ip: Ip,
    /// Byte address loaded.
    pub addr: Addr,
    /// Deepest level that serviced the load (the miss-level flag).
    pub level: MemLevel,
    /// True when the load was blocking the ROB head while the response was
    /// outstanding — the paper's criticality ground truth.
    pub stalled_head: bool,
    /// Cycles the ROB head was blocked by this load.
    pub stall_cycles: u64,
    /// ROB occupancy when the response arrived (used by ROBO).
    pub rob_occupancy: usize,
    /// Loads still outstanding when this one completed — the MLP proxy
    /// CRISP thresholds on.
    pub outstanding_loads: usize,
    /// Completion cycle.
    pub done_cycle: Cycle,
    /// Round-trip latency of the load in cycles.
    pub latency: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Waiting for execution to finish at `Cycle`.
    DoneAt(Cycle),
    /// Load in flight in the memory hierarchy.
    InFlight(ReqId),
    /// Completed.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    ip: Ip,
    is_load: bool,
    addr: Addr,
    state: EntryState,
    /// Filled when the load response arrives.
    level: MemLevel,
}

/// Aggregate statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles retirement was blocked by an incomplete head.
    pub head_stall_cycles: u64,
    /// Head stalls caused by loads serviced beyond L1.
    pub head_stall_cycles_beyond_l1: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Demand loads issued.
    pub loads: u64,
    /// Demand stores issued.
    pub stores: u64,
    /// Cycles dispatch was blocked by memory back-pressure.
    pub dispatch_blocked_mem: u64,
    /// Sum of load round-trip latencies (for averages).
    pub total_load_latency: u64,
    /// Loads serviced beyond the L1.
    pub loads_beyond_l1: u64,
}

impl CoreStats {
    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// One out-of-order core.
#[derive(Debug, Clone)]
pub struct Core {
    cfg: CoreConfig,
    rob: VecDeque<RobEntry>,
    predictor: PerceptronPredictor,
    branch_history: BitHistory,
    fetch_stall_until: Cycle,
    pending: Option<Instr>,
    outstanding_loads: usize,
    serialized_inflight: bool,
    pending_serialized: bool,
    head_stall_started: Option<Cycle>,
    stats: CoreStats,
    /// Instructions pushed into the ROB (audit counter: the ROB balance
    /// proves `dispatched - retired - squashed == rob.len()`).
    dispatched: u64,
    /// Instructions squashed out of the ROB. The current model never
    /// squashes (mispredicts only stall fetch), so this stays 0 in clean
    /// runs; the counter exists so the balance equation survives a future
    /// squash path and so injected corruption has nowhere to hide.
    squashed: u64,
    /// Load completions accepted by [`Core::complete_load`] (audit
    /// counter: `stats.loads - load_completions == outstanding_loads`).
    load_completions: u64,
}

impl Core {
    /// Creates a core with the given configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        Core {
            cfg: *cfg,
            rob: VecDeque::with_capacity(cfg.rob_entries),
            predictor: PerceptronPredictor::default(),
            branch_history: BitHistory::new(32),
            fetch_stall_until: 0,
            pending: None,
            outstanding_loads: 0,
            serialized_inflight: false,
            pending_serialized: false,
            head_stall_started: None,
            stats: CoreStats::default(),
            dispatched: 0,
            squashed: 0,
            load_completions: 0,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Instructions pushed into the ROB so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Demand loads currently in flight (load-queue occupancy).
    pub fn loads_in_flight(&self) -> usize {
        self.outstanding_loads
    }

    /// The architectural global history of the last 32 conditional branch
    /// outcomes — one of CLIP's critical-signature inputs.
    pub fn branch_history(&self) -> BitHistory {
        self.branch_history
    }

    /// True when retirement is currently blocked by an incomplete head —
    /// the paper's ROB stall flag.
    pub fn rob_stalled(&self) -> bool {
        self.head_stall_started.is_some()
    }

    /// Advances one cycle: retire, then dispatch from `fetch` through
    /// `port`. `fetch` is polled only when the core actually needs a new
    /// instruction.
    pub fn tick<F>(&mut self, now: Cycle, fetch: &mut F, port: &mut dyn MemIssuePort)
    where
        F: FnMut() -> Instr,
    {
        self.stats.cycles += 1;
        self.retire(now);
        self.dispatch(now, fetch, port);
    }

    fn retire(&mut self, now: Cycle) {
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            let Some(head) = self.rob.front() else {
                self.head_stall_started = None;
                return;
            };
            let done = match head.state {
                EntryState::Done => true,
                EntryState::DoneAt(t) => t <= now,
                EntryState::InFlight(_) => false,
            };
            if done {
                self.rob.pop_front();
                self.stats.retired += 1;
                retired += 1;
                self.head_stall_started = None;
            } else {
                // ROB stall flag set: head incomplete.
                if self.head_stall_started.is_none() {
                    self.head_stall_started = Some(now);
                }
                self.stats.head_stall_cycles += 1;
                if head.is_load && matches!(head.state, EntryState::InFlight(_)) {
                    self.stats.head_stall_cycles_beyond_l1 += 1;
                }
                return;
            }
        }
    }

    fn dispatch<F>(&mut self, now: Cycle, fetch: &mut F, port: &mut dyn MemIssuePort)
    where
        F: FnMut() -> Instr,
    {
        if now < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.cfg.issue_width {
            if self.rob.len() >= self.cfg.rob_entries {
                return;
            }
            let instr = match self.pending.take() {
                Some(i) => i,
                None => fetch(),
            };
            match instr.kind {
                InstrKind::Alu { latency } => {
                    self.dispatched += 1;
                    self.rob.push_back(RobEntry {
                        ip: instr.ip,
                        is_load: false,
                        addr: Addr::new(0),
                        state: EntryState::DoneAt(now + latency as Cycle),
                        level: MemLevel::L1,
                    });
                }
                InstrKind::Branch { taken } => {
                    self.stats.branches += 1;
                    let predicted = self.predictor.predict(instr.ip, self.branch_history);
                    self.predictor.update(instr.ip, self.branch_history, taken);
                    self.branch_history.push(taken);
                    self.dispatched += 1;
                    self.rob.push_back(RobEntry {
                        ip: instr.ip,
                        is_load: false,
                        addr: Addr::new(0),
                        state: EntryState::DoneAt(now + 1),
                        level: MemLevel::L1,
                    });
                    if predicted != taken {
                        self.stats.mispredicts += 1;
                        // Decoupled-front-end redirect: no further dispatch
                        // until the pipeline refills.
                        self.fetch_stall_until = now + 1 + self.cfg.mispredict_penalty;
                        return;
                    }
                }
                InstrKind::Store { addr } => {
                    if !port.issue_store(instr.ip, addr, now) {
                        self.stats.dispatch_blocked_mem += 1;
                        self.pending = Some(instr);
                        return;
                    }
                    self.stats.stores += 1;
                    // Stores retire without waiting for memory (post-commit
                    // store buffer).
                    self.dispatched += 1;
                    self.rob.push_back(RobEntry {
                        ip: instr.ip,
                        is_load: false,
                        addr,
                        state: EntryState::DoneAt(now + 1),
                        level: MemLevel::L1,
                    });
                }
                InstrKind::Load { addr, serialized } => {
                    if self.outstanding_loads >= self.cfg.load_queue {
                        self.stats.dispatch_blocked_mem += 1;
                        self.pending = Some(instr);
                        return;
                    }
                    if serialized && self.serialized_inflight {
                        // Dependent pointer chase: the address is not ready
                        // until the previous chase load returns.
                        self.stats.dispatch_blocked_mem += 1;
                        self.pending = Some(instr);
                        return;
                    }
                    let Some(req) = port.issue_load(instr.ip, addr, now) else {
                        self.stats.dispatch_blocked_mem += 1;
                        self.pending = Some(instr);
                        return;
                    };
                    self.stats.loads += 1;
                    self.outstanding_loads += 1;
                    if serialized {
                        self.serialized_inflight = true;
                        self.pending_serialized = true;
                    }
                    self.dispatched += 1;
                    self.rob.push_back(RobEntry {
                        ip: instr.ip,
                        is_load: true,
                        addr,
                        state: EntryState::InFlight(req),
                        level: MemLevel::L1,
                    });
                }
            }
        }
    }

    /// Audits the core's conservation invariants; `full` adds the per-entry
    /// ROB scan. Read-only. Returns a diagnostic naming the broken counters
    /// on failure.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a human-readable string.
    pub fn audit(&self, full: bool) -> Result<(), String> {
        if self.rob.len() > self.cfg.rob_entries {
            return Err(format!(
                "rob over capacity: {} entries but rob_entries={}",
                self.rob.len(),
                self.cfg.rob_entries
            ));
        }
        let live = self.dispatched - self.stats.retired - self.squashed;
        if live != self.rob.len() as u64 {
            return Err(format!(
                "rob balance broken: dispatched={} retired={} squashed={} \
                 but {} entries live (leaked {})",
                self.dispatched,
                self.stats.retired,
                self.squashed,
                self.rob.len(),
                live as i64 - self.rob.len() as i64,
            ));
        }
        if self.outstanding_loads > self.cfg.load_queue {
            return Err(format!(
                "load queue over capacity: {} outstanding but load_queue={}",
                self.outstanding_loads, self.cfg.load_queue
            ));
        }
        let lq = self.stats.loads - self.load_completions;
        if lq != self.outstanding_loads as u64 {
            return Err(format!(
                "load queue balance broken: issued={} completed={} but {} \
                 outstanding (leaked {})",
                self.stats.loads,
                self.load_completions,
                self.outstanding_loads,
                lq as i64 - self.outstanding_loads as i64,
            ));
        }
        if full {
            // Per-entry scan: every in-flight ROB load must be backed by a
            // load-queue slot; a Done load whose slot was freed twice (a
            // duplicated wakeup) shows up here as a stale in-flight count.
            let inflight = self
                .rob
                .iter()
                .filter(|e| matches!(e.state, EntryState::InFlight(_)))
                .count();
            if inflight != self.outstanding_loads {
                return Err(format!(
                    "stale load-queue accounting: {} rob entries in flight \
                     but {} outstanding loads tracked",
                    inflight, self.outstanding_loads
                ));
            }
        }
        Ok(())
    }

    /// Folds the core's architectural + queue state into a fingerprint:
    /// retired count, branch history, load-queue occupancy, and every ROB
    /// entry in program order. Deterministic for a deterministic run.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        h.write_u64(self.stats.retired)
            .write_u64(self.branch_history.bits())
            .write_usize(self.outstanding_loads)
            .write_usize(self.rob.len());
        for e in &self.rob {
            let (tag, word) = match e.state {
                EntryState::DoneAt(t) => (1u64, t),
                EntryState::InFlight(r) => (2, r.0),
                EntryState::Done => (3, 0),
            };
            h.write_u64(e.ip.raw())
                .write_bool(e.is_load)
                .write_u64(tag)
                .write_u64(word)
                .write_u64(e.level as u64);
        }
    }

    /// Fault injection: pops the ROB head without crediting the retired
    /// counter — a "stale retire" that breaks the ROB balance equation.
    /// Returns false when the ROB is empty (nothing to corrupt).
    pub fn inject_stale_retire(&mut self) -> bool {
        self.rob.pop_front().is_some()
    }

    /// Fault injection: marks the `sel`-th in-flight load as done without
    /// recording a completion — the duplicated-delivery corruption. The
    /// real completion later misses (unknown request) and the load-queue
    /// balance stays broken by one. Returns false when no load is in
    /// flight.
    pub fn inject_duplicate_wakeup(&mut self, sel: u64) -> bool {
        let inflight: Vec<usize> = self
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.state, EntryState::InFlight(_)))
            .map(|(i, _)| i)
            .collect();
        if inflight.is_empty() {
            return false;
        }
        let victim = inflight[(sel % inflight.len() as u64) as usize];
        self.rob[victim].state = EntryState::Done;
        self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
        true
    }

    /// Delivers a load response. Returns the [`LoadOutcome`] used to train
    /// criticality predictors, or `None` if the request is unknown (e.g.
    /// duplicated completion).
    pub fn complete_load(
        &mut self,
        req: ReqId,
        level: MemLevel,
        now: Cycle,
    ) -> Option<LoadOutcome> {
        let mut found = None;
        for (i, e) in self.rob.iter_mut().enumerate() {
            if let EntryState::InFlight(r) = e.state {
                if r == req {
                    e.state = EntryState::Done;
                    e.level = level;
                    found = Some(i);
                    break;
                }
            }
        }
        let i = found?;
        self.load_completions += 1;
        self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
        // Any returning serialized load unblocks the chain; we do not track
        // which request was the serialized one to keep the model simple —
        // chases are the dominant in-flight loads in chase phases.
        if self.pending_serialized {
            self.serialized_inflight = false;
            self.pending_serialized = false;
        }
        let at_head = i == 0;
        let stalled_head = at_head && self.head_stall_started.is_some();
        let stall_cycles = if stalled_head {
            now.saturating_sub(self.head_stall_started.unwrap_or(now))
        } else {
            0
        };
        let e = self.rob[i];
        if level.is_beyond_l1() {
            self.stats.loads_beyond_l1 += 1;
        }
        Some(LoadOutcome {
            ip: e.ip,
            addr: e.addr,
            level,
            stalled_head,
            stall_cycles,
            rob_occupancy: self.rob.len(),
            outstanding_loads: self.outstanding_loads,
            done_cycle: now,
            latency: 0, // filled by the caller, which knows the issue cycle
        })
    }

    /// [`Core::next_activity_with_port`] behind a port that would accept
    /// any access: a pending load or store counts as work now. This is
    /// the answer for a driver whose port cannot say when it frees up.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.next_activity_with_port(now, |_| true)
    }

    /// Quiescence hook: the earliest cycle `>= now` at which ticking this
    /// core does anything beyond the bulk-accountable stall counters that
    /// [`Core::skip_stalled`] settles, or `None` when only an external
    /// event — a load completion, or the port freeing up — can wake it.
    ///
    /// `port_accepts(addr)` is the memory port's side-effect-free answer
    /// to "would an access to `addr` be accepted now?": the same test the
    /// port runs before refusing an issue, so asking changes nothing.
    ///
    /// The retire side is gated by the ROB head: `Done` (or a due
    /// `DoneAt`) retires now, a future `DoneAt(t)` wakes at `t`, and
    /// `InFlight` waits on the memory hierarchy. The dispatch side is
    /// active now unless fetch is redirecting (`fetch_stall_until`), the
    /// ROB is full, or the pending instruction would be refused again: a
    /// load behind a full load queue or a serialized pointer chase
    /// waiting on the previous link, or a load or store the port would
    /// refuse. Only the memory side can make a refused access acceptable,
    /// so the driver must re-ask whenever the port's state changes.
    pub fn next_activity_with_port(
        &self,
        now: Cycle,
        port_accepts: impl Fn(Addr) -> bool,
    ) -> Option<Cycle> {
        let retire_side = match self.rob.front() {
            None => {
                // Retiring into an empty ROB clears the stall flag; only
                // then is the retire side truly inert.
                if self.head_stall_started.is_some() {
                    Some(now)
                } else {
                    None
                }
            }
            Some(head) => match head.state {
                EntryState::Done => Some(now),
                EntryState::DoneAt(t) => Some(t.max(now)),
                EntryState::InFlight(_) => None,
            },
        };
        if retire_side == Some(now) {
            // Nothing is earlier than now: spare the port its question.
            return retire_side;
        }
        let dispatch_side = if now < self.fetch_stall_until {
            Some(self.fetch_stall_until)
        } else if self.rob.len() >= self.cfg.rob_entries {
            None
        } else {
            let refused = match self.pending.map(|i| i.kind) {
                Some(InstrKind::Load { addr, serialized }) => {
                    self.outstanding_loads >= self.cfg.load_queue
                        || (serialized && self.serialized_inflight)
                        || !port_accepts(addr)
                }
                Some(InstrKind::Store { addr }) => !port_accepts(addr),
                _ => false,
            };
            (!refused).then_some(now)
        };
        match (retire_side, dispatch_side) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Bulk accounting for a skipped span of `n` cycles starting at
    /// `first`, during which [`Core::next_activity_with_port`] reported
    /// nothing to do: the per-cycle counters a stalled tick would have
    /// bumped — `cycles` always, `head_stall_cycles` (and `_beyond_l1`
    /// for an in-flight load head) while the head blocks retirement, and
    /// `dispatch_blocked_mem` while a refused pending load or store
    /// retries. After this, core state is bit-identical to having ticked
    /// every cycle of the span against a port that kept refusing.
    ///
    /// The caller guarantees the whole span is quiescent: no cycle in
    /// `first..first + n` reaches the reported activity cycle, no load
    /// completion arrives inside the span, and the port's answer for the
    /// pending access does not change inside it.
    pub fn skip_stalled(&mut self, first: Cycle, n: u64) {
        self.stats.cycles += n;
        if n == 0 {
            return;
        }
        if let Some(head) = self.rob.front() {
            let stalled = match head.state {
                EntryState::InFlight(_) => true,
                // The caller never skips past `t`, so a future DoneAt
                // head blocks retirement for the whole span.
                EntryState::DoneAt(t) => t > first,
                EntryState::Done => false,
            };
            if stalled {
                if self.head_stall_started.is_none() {
                    self.head_stall_started = Some(first);
                }
                self.stats.head_stall_cycles += n;
                if head.is_load && matches!(head.state, EntryState::InFlight(_)) {
                    self.stats.head_stall_cycles_beyond_l1 += n;
                }
            }
        }
        // Dispatch retries a refused pending access every cycle (only
        // loads and stores are ever left pending; the rob-full and
        // fetch-redirect returns happen before any counter).
        if first >= self.fetch_stall_until
            && self.rob.len() < self.cfg.rob_entries
            && self.pending.is_some()
        {
            self.stats.dispatch_blocked_mem += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_types::CoreConfig;

    /// A scriptable memory port.
    struct TestPort {
        next: u64,
        accept: bool,
        issued: Vec<(Ip, Addr)>,
    }

    impl TestPort {
        fn new() -> Self {
            TestPort {
                next: 0,
                accept: true,
                issued: Vec::new(),
            }
        }
    }

    impl MemIssuePort for TestPort {
        fn issue_load(&mut self, ip: Ip, addr: Addr, _now: Cycle) -> Option<ReqId> {
            if !self.accept {
                return None;
            }
            self.next += 1;
            self.issued.push((ip, addr));
            Some(ReqId(self.next))
        }
        fn issue_store(&mut self, _ip: Ip, _addr: Addr, _now: Cycle) -> bool {
            self.accept
        }
    }

    fn alu() -> Instr {
        Instr {
            ip: Ip::new(0x100),
            kind: InstrKind::Alu { latency: 1 },
        }
    }

    fn load(ip: u64, addr: u64) -> Instr {
        Instr {
            ip: Ip::new(ip),
            kind: InstrKind::Load {
                addr: Addr::new(addr),
                serialized: false,
            },
        }
    }

    #[test]
    fn alu_stream_retires_at_width() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut fetch = || alu();
        for now in 0..100 {
            core.tick(now, &mut fetch, &mut port);
        }
        // Retire width 4 bounds IPC at 4.
        let ipc = core.stats().ipc();
        assert!(ipc > 3.0 && ipc <= 4.0, "ipc={ipc}");
    }

    #[test]
    fn load_blocks_head_until_completion() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut first = true;
        let mut fetch = || {
            if first {
                first = false;
                load(0x400, 0x1000)
            } else {
                alu()
            }
        };
        for now in 0..10 {
            core.tick(now, &mut fetch, &mut port);
        }
        // The load is in flight; nothing can retire past it.
        assert_eq!(core.retired(), 0);
        assert!(core.rob_stalled());
        let out = core
            .complete_load(ReqId(1), MemLevel::Dram, 10)
            .expect("known request");
        assert!(out.stalled_head);
        assert!(out.level.is_beyond_l1());
        assert!(out.stall_cycles > 0);
        for now in 11..14 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.retired() > 0);
        assert!(!core.rob_stalled() || core.rob_occupancy() > 0);
    }

    #[test]
    fn l1_hit_like_completion_is_not_beyond_l1() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut n = 0;
        let mut fetch = || {
            n += 1;
            if n == 1 {
                load(0x400, 0x40)
            } else {
                alu()
            }
        };
        core.tick(0, &mut fetch, &mut port);
        let out = core.complete_load(ReqId(1), MemLevel::L1, 1).unwrap();
        assert!(!out.level.is_beyond_l1());
    }

    #[test]
    fn mem_backpressure_blocks_dispatch() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        port.accept = false;
        let mut fetch = || load(0x400, 0x1000);
        for now in 0..10 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert_eq!(core.stats().loads, 0);
        assert!(core.stats().dispatch_blocked_mem > 0);
        // Unblock; the same pending instruction issues exactly once.
        port.accept = true;
        core.tick(10, &mut fetch, &mut port);
        assert!(core.stats().loads >= 1);
        assert_eq!(port.issued[0].1, Addr::new(0x1000));
    }

    #[test]
    fn quiescence_follows_rob_head_and_pending_state() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        // A fresh core wants to fetch: active now.
        assert_eq!(core.next_activity(0), Some(0));
        // Serialized chase: first load in flight, second pure-blocked on
        // it — only a completion can wake the core.
        let mut n = 0u64;
        let mut fetch = || {
            n += 1;
            Instr {
                ip: Ip::new(0x400 + n),
                kind: InstrKind::Load {
                    addr: Addr::new(0x1000 + 64 * n),
                    serialized: true,
                },
            }
        };
        core.tick(0, &mut fetch, &mut port);
        assert_eq!(
            core.next_activity(1),
            None,
            "chase stall is externally gated"
        );
        core.complete_load(ReqId(1), MemLevel::Dram, 40).unwrap();
        assert_eq!(
            core.next_activity(41),
            Some(41),
            "completion wakes the core"
        );
    }

    #[test]
    fn quiescence_reports_done_at_and_fetch_redirect_cycles() {
        let cfg = CoreConfig {
            rob_entries: 4,
            ..CoreConfig::default()
        };
        let mut core = Core::new(&cfg);
        let mut port = TestPort::new();
        let mut fetch = || Instr {
            ip: Ip::new(0x200),
            kind: InstrKind::Alu { latency: 30 },
        };
        core.tick(0, &mut fetch, &mut port);
        // ROB is now full of DoneAt entries; the head completes at 30 and
        // the full ROB gates dispatch, so 30 is the next interesting cycle.
        let next = core.next_activity(1).expect("a DoneAt head wakes itself");
        assert_eq!(next, 30);
        assert_eq!(core.next_activity(31), Some(31), "a due head retires now");
    }

    #[test]
    fn skip_stalled_matches_ticked_pointer_chase_stall() {
        // Two identical cores enter a serialized-load stall; one ticks
        // through 100 dead cycles, the other settles them in bulk. Stats
        // and fingerprints must agree bit-for-bit, before and after the
        // load completes.
        let mut cores: Vec<Core> = Vec::new();
        for _ in 0..2 {
            let mut core = Core::new(&CoreConfig::default());
            let mut port = TestPort::new();
            let mut n = 0u64;
            let mut fetch = || {
                n += 1;
                Instr {
                    ip: Ip::new(0x400 + n),
                    kind: InstrKind::Load {
                        addr: Addr::new(0x1000 + 64 * n),
                        serialized: true,
                    },
                }
            };
            core.tick(0, &mut fetch, &mut port);
            assert_eq!(core.next_activity(1), None);
            cores.push(core);
        }
        let (mut stepped, mut skipped) = (cores.remove(0), cores.remove(0));
        let mut port = TestPort::new();
        let mut fetch = || unreachable!("a blocked core never fetches");
        for now in 1..=100u64 {
            stepped.tick(now, &mut fetch, &mut port);
        }
        skipped.skip_stalled(1, 100);
        assert_eq!(stepped.stats(), skipped.stats());
        let fp = |c: &Core| {
            let mut h = Fnv64::new();
            c.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(fp(&stepped), fp(&skipped));
        for c in [&mut stepped, &mut skipped] {
            c.complete_load(ReqId(1), MemLevel::Dram, 101).unwrap();
            let mut resume_port = TestPort::new();
            resume_port.next = 1;
            let mut n = 100u64;
            let mut fetch = || {
                n += 1;
                Instr {
                    ip: Ip::new(0x400 + n),
                    kind: InstrKind::Load {
                        addr: Addr::new(0x1000 + 64 * n),
                        serialized: true,
                    },
                }
            };
            c.tick(101, &mut fetch, &mut resume_port);
        }
        assert_eq!(stepped.stats(), skipped.stats());
        assert_eq!(fp(&stepped), fp(&skipped));
        assert!(stepped.retired() > 0, "the chase resumed");
    }

    /// A pending access of either kind at a fresh address per call.
    fn access(is_store: bool, n: u64) -> Instr {
        let addr = Addr::new(0x8000 + 64 * n);
        Instr {
            ip: Ip::new(0x300 + n),
            kind: if is_store {
                InstrKind::Store { addr }
            } else {
                InstrKind::Load {
                    addr,
                    serialized: false,
                }
            },
        }
    }

    #[test]
    fn port_refusal_is_quiet_until_the_port_would_accept() {
        for is_store in [false, true] {
            let mut core = Core::new(&CoreConfig::default());
            let mut port = TestPort::new();
            port.accept = false;
            let mut n = 0;
            let mut fetch = || {
                n += 1;
                access(is_store, n)
            };
            core.tick(0, &mut fetch, &mut port);
            assert_eq!(core.rob_occupancy(), 0, "the refused access stays pending");
            assert_eq!(
                core.next_activity_with_port(1, |_| port.accept),
                None,
                "store={is_store}: a refused access sleeps while the port refuses"
            );
            assert_eq!(
                core.next_activity(1),
                Some(1),
                "store={is_store}: without a port answer, back-pressure is work"
            );
            port.accept = true;
            assert_eq!(
                core.next_activity_with_port(1, |_| port.accept),
                Some(1),
                "store={is_store}: the core wakes once the port would accept"
            );
            core.tick(1, &mut fetch, &mut port);
            assert!(core.dispatched() > 0, "store={is_store}: the access issued");
        }
    }

    #[test]
    fn skip_stalled_matches_refused_ticks_for_loads_and_stores() {
        // One core per access kind, cloned after it enters the refused
        // state behind an in-flight load head: one copy ticks through the
        // refusals, the other settles them in bulk. Stats (every counter,
        // `dispatch_blocked_mem` included) and fingerprints must agree,
        // before and after the port frees up.
        let cfg = CoreConfig {
            issue_width: 1,
            ..CoreConfig::default()
        };
        let fp = |c: &Core| {
            let mut h = Fnv64::new();
            c.fingerprint(&mut h);
            h.finish()
        };
        for is_store in [false, true] {
            let mut n = 0;
            let mut fetch = || {
                n += 1;
                if n == 1 {
                    load(0x400, 0x1000)
                } else {
                    access(is_store, n)
                }
            };
            let mut port = TestPort::new();
            let mut stepped = Core::new(&cfg);
            stepped.tick(0, &mut fetch, &mut port);
            port.accept = false;
            stepped.tick(1, &mut fetch, &mut port);
            assert_eq!(stepped.next_activity_with_port(2, |_| false), None);
            let mut skipped = stepped.clone();
            for now in 2..52 {
                stepped.tick(now, &mut fetch, &mut port);
            }
            skipped.skip_stalled(2, 50);
            assert_eq!(stepped.stats(), skipped.stats(), "store={is_store}");
            assert_eq!(fp(&stepped), fp(&skipped), "store={is_store}");
            assert_eq!(stepped.stats().dispatch_blocked_mem, 51);
            assert_eq!(stepped.stats().head_stall_cycles_beyond_l1, 51);
            for c in [&mut stepped, &mut skipped] {
                c.complete_load(ReqId(1), MemLevel::Dram, 52).unwrap();
                let mut open = TestPort::new();
                open.next = port.next;
                let mut resume = || access(is_store, 99);
                c.tick(52, &mut resume, &mut open);
            }
            assert_eq!(stepped.stats(), skipped.stats(), "store={is_store}");
            assert_eq!(fp(&stepped), fp(&skipped), "store={is_store}");
            assert_eq!(stepped.dispatched(), 2, "store={is_store}: access issued");
        }
    }

    #[test]
    fn rob_capacity_limits_inflight_window() {
        let cfg = CoreConfig {
            rob_entries: 8,
            ..CoreConfig::default()
        };
        let mut core = Core::new(&cfg);
        let mut port = TestPort::new();
        let mut i = 0u64;
        let mut fetch = || {
            i += 1;
            load(0x400 + i, 0x1000 + 64 * i)
        };
        for now in 0..50 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.rob_occupancy() <= 8);
        // No load completed → retires zero; dispatch stops at ROB size.
        assert_eq!(core.stats().loads, 8);
    }

    #[test]
    fn serialized_loads_do_not_overlap() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut i = 0u64;
        let mut fetch = || {
            i += 1;
            Instr {
                ip: Ip::new(0x500),
                kind: InstrKind::Load {
                    addr: Addr::new(64 * i),
                    serialized: true,
                },
            }
        };
        for now in 0..20 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert_eq!(
            core.stats().loads,
            1,
            "second chase blocked until first returns"
        );
        core.complete_load(ReqId(1), MemLevel::Dram, 20);
        for now in 21..25 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert_eq!(core.stats().loads, 2);
    }

    #[test]
    fn branch_history_records_outcomes() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut outcomes = [true, false, true, true].iter().cycle();
        let mut fetch = || Instr {
            ip: Ip::new(0x600),
            kind: InstrKind::Branch {
                taken: *outcomes.next().unwrap(),
            },
        };
        for now in 0..200 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.stats().branches > 10);
        assert!(!core.branch_history().is_empty());
    }

    #[test]
    fn mispredicts_create_fetch_bubbles() {
        // Random-ish outcomes: perceptron cannot learn pattern from a
        // counter-based pseudo sequence with long period.
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut k = 0u64;
        let mut fetch = || {
            k += 1;
            Instr {
                ip: Ip::new(0x700),
                kind: InstrKind::Branch {
                    taken: clip_types::hash64(k) & 1 == 1,
                },
            }
        };
        for now in 0..2000 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.stats().mispredicts > 0);
        // Bubbles cap throughput below width.
        assert!(core.stats().ipc() < 4.0);
    }

    #[test]
    fn complete_unknown_request_is_none() {
        let mut core = Core::new(&CoreConfig::default());
        assert!(core.complete_load(ReqId(77), MemLevel::L2, 0).is_none());
    }

    #[test]
    fn load_queue_caps_outstanding_loads() {
        let cfg = CoreConfig {
            load_queue: 4,
            ..CoreConfig::default()
        };
        let mut core = Core::new(&cfg);
        let mut port = TestPort::new();
        let mut i = 0u64;
        let mut fetch = || {
            i += 1;
            load(0x400 + i, 0x1000 + 64 * i)
        };
        for now in 0..50 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert_eq!(core.stats().loads, 4, "load queue must cap issue");
        core.complete_load(ReqId(1), MemLevel::L2, 50);
        for now in 51..55 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert_eq!(core.stats().loads, 5, "a completion frees one slot");
    }

    #[test]
    fn mispredict_penalty_scales_with_config() {
        let run = |penalty: u64| {
            let cfg = CoreConfig {
                mispredict_penalty: penalty,
                ..CoreConfig::default()
            };
            let mut core = Core::new(&cfg);
            let mut port = TestPort::new();
            let mut k = 0u64;
            let mut fetch = || {
                k += 1;
                Instr {
                    ip: Ip::new(0x900),
                    kind: InstrKind::Branch {
                        taken: clip_types::hash64(k) & 1 == 1,
                    },
                }
            };
            for now in 0..3000 {
                core.tick(now, &mut fetch, &mut port);
            }
            core.stats().retired
        };
        let fast = run(1);
        let slow = run(40);
        assert!(
            fast > slow,
            "larger redirect penalty must retire fewer instructions: {fast} vs {slow}"
        );
    }

    #[test]
    fn head_stall_accounting_matches_levels() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut n = 0;
        let mut fetch = || {
            n += 1;
            if n == 1 {
                load(0x400, 0x1000)
            } else {
                alu()
            }
        };
        for now in 0..20 {
            core.tick(now, &mut fetch, &mut port);
        }
        let s = *core.stats();
        assert!(s.head_stall_cycles > 0);
        assert!(s.head_stall_cycles_beyond_l1 > 0);
        assert!(s.head_stall_cycles_beyond_l1 <= s.head_stall_cycles);
    }

    #[test]
    fn audit_passes_on_clean_run_and_pseudo_completions() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut i = 0u64;
        let mut fetch = || {
            i += 1;
            match i % 3 {
                0 => alu(),
                1 => load(0x400 + i, 0x1000 + 64 * i),
                _ => Instr {
                    ip: Ip::new(0x500),
                    kind: InstrKind::Store {
                        addr: Addr::new(64 * i),
                    },
                },
            }
        };
        for now in 0..200 {
            core.tick(now, &mut fetch, &mut port);
            if now % 7 == 0 {
                // Complete an arbitrary prefix of issued loads; also fire a
                // pseudo-completion for an unknown request, which the tile
                // layer does routinely for store/prefetch MSHR waiters.
                core.complete_load(ReqId(now / 7 + 1), MemLevel::L2, now);
                core.complete_load(ReqId(9_999), MemLevel::Dram, now);
            }
            core.audit(true).expect("clean run must audit clean");
        }
    }

    #[test]
    fn stale_retire_breaks_rob_balance() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut fetch = || alu();
        for now in 0..5 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.inject_stale_retire());
        let e = core.audit(false).expect_err("audit must catch");
        assert!(e.contains("rob balance broken"), "{e}");
    }

    #[test]
    fn duplicate_wakeup_breaks_load_queue_balance() {
        let mut core = Core::new(&CoreConfig::default());
        let mut port = TestPort::new();
        let mut i = 0u64;
        let mut fetch = || {
            i += 1;
            load(0x400 + i, 0x1000 + 64 * i)
        };
        for now in 0..5 {
            core.tick(now, &mut fetch, &mut port);
        }
        assert!(core.inject_duplicate_wakeup(3));
        let e = core.audit(false).expect_err("audit must catch");
        assert!(e.contains("load queue balance broken"), "{e}");
        // The real completion for the corrupted request misses (the entry is
        // already Done) and must not repair the balance.
        core.complete_load(ReqId(1), MemLevel::L2, 6);
        core.complete_load(ReqId(2), MemLevel::L2, 6);
        core.complete_load(ReqId(3), MemLevel::L2, 6);
        core.complete_load(ReqId(4), MemLevel::L2, 6);
        assert!(core.audit(false).is_err(), "retry must not mask the fault");
    }

    #[test]
    fn fingerprint_tracks_architectural_state() {
        let run = |cycles: u64| {
            let mut core = Core::new(&CoreConfig::default());
            let mut port = TestPort::new();
            let mut i = 0u64;
            let mut fetch = || {
                i += 1;
                load(0x400 + i, 0x1000 + 64 * i)
            };
            for now in 0..cycles {
                core.tick(now, &mut fetch, &mut port);
            }
            let mut h = Fnv64::new();
            core.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(run(5), run(5), "same run, same fingerprint");
        assert_ne!(run(5), run(6), "different state, different fingerprint");
    }

    #[test]
    fn predictable_branches_beat_random() {
        let run = |pattern: fn(u64) -> bool| {
            let mut core = Core::new(&CoreConfig::default());
            let mut port = TestPort::new();
            let mut k = 0u64;
            let mut fetch = || {
                k += 1;
                Instr {
                    ip: Ip::new(0x800),
                    kind: InstrKind::Branch { taken: pattern(k) },
                }
            };
            for now in 0..3000 {
                core.tick(now, &mut fetch, &mut port);
            }
            core.stats().mispredicts as f64 / core.stats().branches as f64
        };
        let periodic = run(|k| k % 4 == 0);
        let random = run(|k| clip_types::hash64(k) & 1 == 1);
        assert!(
            periodic < random * 0.5,
            "periodic {periodic} should be far below random {random}"
        );
    }
}
