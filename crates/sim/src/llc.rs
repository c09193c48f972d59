//! The shared LLC as a clocked component.
//!
//! [`ClockedLlc`] owns the address-interleaved LLC slices and their MSHR
//! files. Each [`ClockedLlc::tick`] returns the lookups whose
//! slice-access latency has elapsed, which [`Engine::tick_uncore`] hands
//! to [`Engine::llc_lookup`]. Slice state is only reachable through this
//! component's API — `tile.rs` and `system.rs` never see a `Cache` or
//! `MshrFile` of the LLC directly.

use crate::engine::{Engine, Txn, TxnKind, Wheel, RETRY_DELAY};
use crate::ports::{NocPayload, TxnId};
use clip_cache::{AllocOutcome, Cache, Evicted, LookupOutcome, MshrFile};
use clip_dram::DramModel;
use clip_types::{Cycle, LineAddr, MemLevel, ReqId, SimConfig};

/// The LLC slices + MSHRs as a clocked component.
pub(crate) struct ClockedLlc {
    slices: Vec<Cache>,
    mshrs: Vec<MshrFile>,
    /// Lookup wheel: transactions whose slice access completes at each
    /// cycle, sized over the slice latency and the retry delay.
    ring: Wheel<TxnId>,
}

impl ClockedLlc {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        ClockedLlc {
            slices: (0..cfg.cores).map(|_| Cache::new(&cfg.llc_slice)).collect(),
            mshrs: (0..cfg.cores)
                .map(|_| MshrFile::new(cfg.llc_slice.mshrs))
                .collect(),
            ring: Wheel::new(
                cfg.llc_slice.latency.max(RETRY_DELAY),
                "lookup",
                "lookup beyond LLC ring horizon",
            ),
        }
    }

    /// Schedules a slice lookup to complete `delay` cycles from `now`
    /// (at least one cycle out, like the engine's event wheel).
    ///
    /// # Panics
    ///
    /// Panics when the lookup lies a full ring revolution or more ahead:
    /// it would fire early.
    pub(crate) fn schedule_lookup(&mut self, txn: TxnId, now: Cycle, delay: Cycle) {
        self.ring.schedule(now, now + delay, txn);
    }

    /// A slice refuses a miss when its MSHR file is full and the line can
    /// neither merge into an existing entry nor hit in the slice.
    fn blocked(&self, home: usize, line: LineAddr) -> bool {
        self.mshrs[home].is_full()
            && !self.mshrs[home].contains(line)
            && !self.slices[home].contains(line)
    }

    fn lookup(&mut self, home: usize, line: LineAddr, is_pf: bool, now: Cycle) -> LookupOutcome {
        if is_pf {
            self.slices[home].lookup_prefetch(line, now)
        } else {
            self.slices[home].lookup(line, false, now)
        }
    }

    fn mshr_alloc(
        &mut self,
        home: usize,
        line: LineAddr,
        req: ReqId,
        is_pf: bool,
        now: Cycle,
    ) -> Result<AllocOutcome, clip_cache::MshrFullError> {
        self.mshrs[home].alloc(line, req, is_pf, now)
    }

    /// Fills `line` into its home slice; returns the eviction, if any.
    pub(crate) fn fill(
        &mut self,
        home: usize,
        line: LineAddr,
        dirty: bool,
        is_pf: bool,
        now: Cycle,
    ) -> Option<Evicted> {
        self.slices[home].fill(line, dirty, is_pf, now)
    }

    pub(crate) fn mshr_complete(
        &mut self,
        home: usize,
        line: LineAddr,
    ) -> Option<clip_cache::MshrEntry> {
        self.mshrs[home].complete(line)
    }

    /// Lookups fired so far (forward-progress signature).
    pub(crate) fn fired(&self) -> u64 {
        self.ring.fired()
    }

    /// Total outstanding LLC MSHR entries (stall diagnostics).
    pub(crate) fn mshr_occupancy(&self) -> usize {
        self.mshrs.iter().map(|m| m.len()).sum()
    }

    /// Read-only view of the slices (delta-based reporting).
    pub(crate) fn slices(&self) -> &[Cache] {
        &self.slices
    }

    /// Lookup-ring + MSHR audit: every scheduled lookup must either still
    /// sit on the ring or have fired, and every slice's MSHR file must
    /// pass its own balance check.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn audit(&self, now: Cycle, full: bool) -> Result<(), String> {
        self.ring.audit()?;
        for (slice, m) in self.mshrs.iter().enumerate() {
            m.audit(now, full)
                .map_err(|e| format!("slice {slice}: {e}"))?;
        }
        Ok(())
    }

    /// Folds the slices' MSHR state into a state fingerprint (each
    /// [`clip_cache::MshrFile::fingerprint`] sorts its own entries).
    pub(crate) fn fingerprint(&self, h: &mut clip_types::Fnv64) {
        h.write_u64(self.ring.scheduled())
            .write_u64(self.ring.fired());
        for m in &self.mshrs {
            m.fingerprint(h);
        }
    }

    /// O(1)-balance variant of [`ClockedLlc::fingerprint`] for `cheap`
    /// check runs: ring counters + total MSHR occupancy, no per-entry
    /// state.
    pub(crate) fn fingerprint_cheap(&self, h: &mut clip_types::Fnv64) {
        h.write_u64(self.ring.scheduled())
            .write_u64(self.ring.fired())
            .write_usize(self.mshr_occupancy());
    }

    /// Fault injection: leaks one outstanding MSHR entry from the first
    /// occupied slice (slices scanned in index order, victim within the
    /// slice picked by `selector`). Returns false when every file is
    /// empty.
    pub(crate) fn inject_mshr_leak(&mut self, selector: u64) -> bool {
        for m in self.mshrs.iter_mut() {
            if !m.is_empty() {
                return m.leak_one(selector).is_some();
            }
        }
        false
    }

    /// Takes the lookups whose slice latency elapses at `now` off the
    /// ring. Hand the buffer back with [`ClockedLlc::restore_due`].
    pub(crate) fn tick(&mut self, now: Cycle) -> Vec<TxnId> {
        self.ring.take(now)
    }

    /// Puts the buffer [`ClockedLlc::tick`] handed out at `now` back in
    /// its slot, emptied.
    pub(crate) fn restore_due(&mut self, due: Vec<TxnId>, now: Cycle) {
        self.ring.restore(now, due);
    }

    /// The earliest cycle `>= now` with a lookup due, or `None` when the
    /// ring is empty.
    pub(crate) fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.ring.next_due(now)
    }
}

// ----------------------------------------------------------------------
// Slice-side message flow (engine-owned: these paths never touch a tile).
// ----------------------------------------------------------------------

impl Engine {
    /// A slice lookup whose access latency elapsed: hit → respond to the
    /// tile; miss → allocate an MSHR and request the line from DRAM,
    /// retrying through the LLC's own wheel under MSHR back-pressure.
    pub(crate) fn llc_lookup(&mut self, txn: TxnId, now: Cycle) {
        let tx: Txn = self.txns[txn as usize];
        let home = self.home_of(tx.line);
        let is_pf = matches!(tx.kind, TxnKind::Prefetch { .. });

        if self.llc.blocked(home, tx.line) {
            self.llc.schedule_lookup(txn, now, RETRY_DELAY);
            return;
        }

        match self.llc.lookup(home, tx.line, is_pf, now) {
            LookupOutcome::Hit { .. } => {
                self.txns[txn as usize].level = MemLevel::Llc;
                let prio = self.txn_priority(txn);
                self.send_msg(
                    home,
                    tx.tile as usize,
                    self.params.data_packet_flits,
                    prio,
                    NocPayload::DataTile(txn),
                );
            }
            LookupOutcome::Miss => {
                match self
                    .llc
                    .mshr_alloc(home, tx.line, ReqId(txn as u64), is_pf, now)
                {
                    Ok(AllocOutcome::New) => {
                        let channel = self.dram.channel_for(tx.line);
                        let mc = self.mc_node(channel);
                        let prio = self.txn_priority(txn);
                        self.send_msg(
                            home,
                            mc,
                            self.params.addr_packet_flits,
                            prio,
                            NocPayload::ReqMc(txn),
                        );
                    }
                    Ok(AllocOutcome::Merged { .. }) => {}
                    Err(_) => self.llc.schedule_lookup(txn, now, RETRY_DELAY),
                }
            }
        }
    }

    /// An L2 victim arrived at its home slice (`WbLlc`).
    pub(crate) fn llc_writeback(&mut self, node: usize, line: LineAddr, now: Cycle) {
        let home = self.home_of(line);
        debug_assert_eq!(home, node);
        if let Some(ev) = self.llc.fill(home, line, true, false, now) {
            if ev.dirty {
                self.writeback_to_dram(home, ev.line);
            }
        }
    }

    /// DRAM data arrived at the LLC home: fill the slice, complete the LLC
    /// MSHR, and forward data packets to the requesting tile(s).
    pub(crate) fn llc_fill_and_forward(&mut self, txn: TxnId, now: Cycle) {
        let tx: Txn = self.txns[txn as usize];
        let home = self.home_of(tx.line);
        let is_pf = matches!(tx.kind, TxnKind::Prefetch { .. });
        if let Some(ev) = self.llc.fill(home, tx.line, false, is_pf, now) {
            if ev.dirty {
                self.writeback_to_dram(home, ev.line);
            }
        }
        let mut to_send = std::mem::take(&mut self.forward);
        to_send.push(txn);
        if let Some(entry) = self.llc.mshr_complete(home, tx.line) {
            // `entry.primary` is this txn (or the first merged one).
            for w in entry.waiters.iter().chain([&entry.primary]) {
                let wt = w.0 as TxnId;
                if wt != txn && self.txns[wt as usize].live {
                    self.txns[wt as usize].level = tx.level;
                    to_send.push(wt);
                }
            }
        }
        to_send.sort_unstable();
        to_send.dedup();
        for &t in &to_send {
            let dst = self.txns[t as usize].tile as usize;
            let prio = self.txn_priority(t);
            self.send_msg(
                home,
                dst,
                self.params.data_packet_flits,
                prio,
                NocPayload::DataTile(t),
            );
        }
        to_send.clear();
        self.forward = to_send;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc_with_latency(latency: Cycle) -> ClockedLlc {
        let mut cfg = SimConfig::builder()
            .cores(2)
            .dram_channels(1)
            .build()
            .expect("valid config");
        cfg.llc_slice.latency = latency;
        ClockedLlc::new(&cfg)
    }

    /// A slice latency past any fixed ring size fires exactly on time:
    /// the ring is sized from the latency, not a constant.
    #[test]
    fn a_long_slice_latency_fires_on_time() {
        let mut llc = llc_with_latency(300);
        llc.schedule_lookup(7, 0, 300);
        assert_eq!(llc.next_activity(0), Some(300));
        for now in 0..300 {
            let due = llc.tick(now);
            assert!(due.is_empty(), "lookup fired early, at cycle {now}");
            llc.restore_due(due, now);
        }
        assert_eq!(llc.tick(300), [7]);
        assert_eq!(llc.next_activity(301), None);
    }

    #[test]
    #[should_panic(expected = "lookup beyond LLC ring horizon")]
    fn a_lookup_past_the_horizon_panics() {
        let mut llc = llc_with_latency(20);
        llc.schedule_lookup(7, 0, 64);
    }
}
