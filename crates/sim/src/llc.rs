//! The shared LLC as a clocked component.
//!
//! [`ClockedLlc`] owns the address-interleaved LLC slices and their MSHR
//! files. Each [`ClockedLlc::tick`] returns the lookups whose
//! slice-access latency has elapsed, which [`Engine::tick_uncore`] hands
//! to [`Engine::llc_lookup`]. Slice state is only reachable through this
//! component's API — `tile.rs` and `system.rs` never see a `Cache` or
//! `MshrFile` of the LLC directly.

use crate::engine::{ring_slots, Engine, Txn, TxnKind, RETRY_DELAY};
use crate::ports::{NocPayload, TxnId};
use clip_cache::{AllocOutcome, Cache, Evicted, LookupOutcome, MshrFile};
use clip_types::{Cycle, LineAddr, MemLevel, ReqId, SimConfig};

/// The LLC slices + MSHRs as a clocked component.
pub(crate) struct ClockedLlc {
    slices: Vec<Cache>,
    mshrs: Vec<MshrFile>,
    /// Lookup wheel: slot `c % ring.len()` holds transactions whose slice
    /// access completes at cycle `c`. Sized by [`ring_slots`] over the
    /// slice latency and the retry delay; each slot keeps its buffer.
    ring: Vec<Vec<TxnId>>,
    /// Lookups ever placed on the ring (conservation audit).
    scheduled: u64,
    /// Lookups ever taken off the ring by a tick (conservation audit).
    fired: u64,
}

impl ClockedLlc {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        ClockedLlc {
            slices: (0..cfg.cores).map(|_| Cache::new(&cfg.llc_slice)).collect(),
            mshrs: (0..cfg.cores)
                .map(|_| MshrFile::new(cfg.llc_slice.mshrs))
                .collect(),
            ring: (0..ring_slots(cfg.llc_slice.latency.max(RETRY_DELAY)))
                .map(|_| Vec::new())
                .collect(),
            scheduled: 0,
            fired: 0,
        }
    }

    #[inline]
    fn slot(&self, at: Cycle) -> usize {
        (at as usize) & (self.ring.len() - 1)
    }

    /// Schedules a slice lookup to complete `delay` cycles from `now`
    /// (at least one cycle out, like the engine's event wheel).
    ///
    /// # Panics
    ///
    /// Panics when the lookup lies a full ring revolution or more ahead:
    /// it would fire early.
    pub(crate) fn schedule_lookup(&mut self, txn: TxnId, now: Cycle, delay: Cycle) {
        let at = (now + delay).max(now + 1);
        assert!(
            at - now < self.ring.len() as u64,
            "lookup beyond LLC ring horizon"
        );
        let slot = self.slot(at);
        self.ring[slot].push(txn);
        self.scheduled += 1;
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
        self.fired
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
        let on_ring: u64 = self.ring.iter().map(|s| s.len() as u64).sum();
        if self.scheduled != self.fired + on_ring {
            return Err(format!(
                "lookup-ring occupancy broken: {} scheduled but {} fired + {} on ring (lost {})",
                self.scheduled,
                self.fired,
                on_ring,
                self.scheduled as i64 - (self.fired + on_ring) as i64
            ));
        }
        for (slice, m) in self.mshrs.iter().enumerate() {
            m.audit(now, full)
                .map_err(|e| format!("slice {slice}: {e}"))?;
        }
        Ok(())
    }

    /// Folds the slices' MSHR state into a state fingerprint (each
    /// [`clip_cache::MshrFile::fingerprint`] sorts its own entries).
    pub(crate) fn fingerprint(&self, h: &mut clip_types::Fnv64) {
        h.write_u64(self.scheduled).write_u64(self.fired);
        for m in &self.mshrs {
            m.fingerprint(h);
        }
    }

    /// O(1)-balance variant of [`ClockedLlc::fingerprint`] for `cheap`
    /// check runs: ring counters + total MSHR occupancy, no per-entry
    /// state.
    pub(crate) fn fingerprint_cheap(&self, h: &mut clip_types::Fnv64) {
        h.write_u64(self.scheduled)
            .write_u64(self.fired)
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
        let slot = self.slot(now);
        let due = std::mem::take(&mut self.ring[slot]);
        self.fired += due.len() as u64;
        due
    }

    /// Puts the buffer [`ClockedLlc::tick`] handed out at `now` back in
    /// its slot, emptied. Nothing scheduled at `now` lands in that slot.
    pub(crate) fn restore_due(&mut self, mut due: Vec<TxnId>, now: Cycle) {
        due.clear();
        let slot = self.slot(now);
        debug_assert!(self.ring[slot].is_empty());
        self.ring[slot] = due;
    }

    /// The earliest cycle `>= now` with a lookup due, or `None` when the
    /// ring is empty.
    pub(crate) fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.scheduled == self.fired {
            return None; // nothing on the lookup ring
        }
        // The ring is small: scan forward from `now` for the first
        // occupied slot. Every pending lookup is within one ring
        // revolution (enforced at schedule time), so the first occupied
        // slot is the earliest due cycle.
        (now..now + self.ring.len() as u64).find(|&c| !self.ring[self.slot(c)].is_empty())
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
        let mut to_send = vec![txn];
        if let Some(entry) = self.llc.mshr_complete(home, tx.line) {
            for w in entry.waiters {
                let wt = w.0 as TxnId;
                if wt != txn && self.txns[wt as usize].live {
                    self.txns[wt as usize].level = tx.level;
                    to_send.push(wt);
                }
            }
            // `entry.primary` is this txn (or the first merged one).
            let p = entry.primary.0 as TxnId;
            if p != txn && self.txns[p as usize].live {
                self.txns[p as usize].level = tx.level;
                to_send.push(p);
            }
        }
        to_send.sort_unstable();
        to_send.dedup();
        for t in to_send {
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
