//! Miss-status holding registers.
//!
//! An [`MshrFile`] tracks outstanding misses at one cache level. Requests
//! to a line already in flight merge into the existing entry (including the
//! demand-merges-into-prefetch case that defines a *late* prefetch, which
//! the paper's lateness statistic counts). A full MSHR file back-pressures
//! the requestor — the mechanism by which constrained DRAM bandwidth
//! inflates on-chip latencies in Figure 3.

use clip_types::{Cycle, Fnv64, LineAddr, ReqId};
use std::fmt;

/// An outstanding miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MshrEntry {
    /// Line being fetched.
    pub line: LineAddr,
    /// The request that allocated the entry.
    pub primary: ReqId,
    /// True if the allocation was a prefetch.
    pub is_prefetch: bool,
    /// True once a demand merged into a prefetch allocation (late
    /// prefetch).
    pub demand_merged: bool,
    /// Requests merged into this entry (excluding the primary).
    pub waiters: Vec<ReqId>,
    /// Allocation time.
    pub alloc_cycle: Cycle,
}

/// Outcome of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// A new entry was created; the miss must be sent down the hierarchy.
    New,
    /// Merged into an in-flight entry. `into_prefetch` is true when the
    /// in-flight entry was allocated by a prefetch (and this merge is a
    /// demand): a *late but useful* prefetch.
    Merged {
        /// True when a demand merged into a prefetch-allocated entry.
        into_prefetch: bool,
    },
}

/// Error returned when the MSHR file is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFullError;

impl fmt::Display for MshrFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("mshr file is full")
    }
}

impl std::error::Error for MshrFullError {}

/// A fixed-capacity file of [`MshrEntry`]s indexed by line address.
///
/// Entries sit in an array, with their lines in a second, dense one that
/// lookups scan: a file holds a few dozen entries at most, so a linear
/// scan beats hashing. Completion swap-removes from both.
///
/// # Examples
///
/// ```
/// use clip_cache::{AllocOutcome, MshrFile};
/// use clip_types::{LineAddr, ReqId};
///
/// let mut mshrs = MshrFile::new(8);
/// let line = LineAddr::new(0x40);
/// assert_eq!(mshrs.alloc(line, ReqId(1), false, 0), Ok(AllocOutcome::New));
/// // A second request to the same line merges instead of refetching.
/// assert!(matches!(
///     mshrs.alloc(line, ReqId(2), false, 5),
///     Ok(AllocOutcome::Merged { .. })
/// ));
/// let entry = mshrs.complete(line).expect("in flight");
/// assert_eq!(entry.waiters, vec![ReqId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `entries[i].line`, kept dense for the lookup scan.
    lines: Vec<LineAddr>,
    entries: Vec<MshrEntry>,
    /// Count of demand-into-prefetch merges (late prefetches).
    late_prefetch_merges: u64,
    /// Entries ever allocated (conservation audit).
    allocated: u64,
    /// Entries ever completed (conservation audit).
    completed: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            lines: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            late_prefetch_merges: 0,
            allocated: 0,
            completed: 0,
        }
    }

    /// Entries outstanding.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no new (non-merging) allocation can succeed.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total demand-into-prefetch merges observed (late prefetches).
    pub fn late_prefetch_merges(&self) -> u64 {
        self.late_prefetch_merges
    }

    /// True if `line` is currently in flight.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Index of the entry for `line`, if one is in flight.
    #[inline]
    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Attempts to allocate or merge a miss on `line`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFullError`] when the line is not in flight and the
    /// file is full; the caller must retry later (back-pressure).
    pub fn alloc(
        &mut self,
        line: LineAddr,
        req: ReqId,
        is_prefetch: bool,
        now: Cycle,
    ) -> Result<AllocOutcome, MshrFullError> {
        if let Some(i) = self.position(line) {
            let e = &mut self.entries[i];
            let into_prefetch = e.is_prefetch && !e.demand_merged && !is_prefetch;
            if into_prefetch {
                e.demand_merged = true;
                self.late_prefetch_merges += 1;
            }
            e.waiters.push(req);
            return Ok(AllocOutcome::Merged { into_prefetch });
        }
        if self.is_full() {
            return Err(MshrFullError);
        }
        self.lines.push(line);
        self.entries.push(MshrEntry {
            line,
            primary: req,
            is_prefetch,
            demand_merged: false,
            waiters: Vec::new(),
            alloc_cycle: now,
        });
        self.allocated += 1;
        Ok(AllocOutcome::New)
    }

    /// Completes the miss on `line`, removing and returning its entry.
    /// Returns `None` if the line was not in flight.
    pub fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let i = self.position(line)?;
        self.completed += 1;
        Some(self.remove(i))
    }

    fn remove(&mut self, i: usize) -> MshrEntry {
        self.lines.swap_remove(i);
        self.entries.swap_remove(i)
    }

    /// The outstanding entries in line-address order: array order depends
    /// on the order of completions, so sorting is what keeps fingerprints
    /// and fault victims independent of it.
    fn sorted(&self) -> Vec<&MshrEntry> {
        let mut sorted: Vec<&MshrEntry> = self.entries.iter().collect();
        sorted.sort_unstable_by_key(|e| e.line.raw());
        sorted
    }

    /// Conservation + legality audit: every allocation must either still
    /// be outstanding or have completed, and occupancy must respect the
    /// capacity. With `full`, also scans entry timestamps.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit(&self, now: Cycle, full: bool) -> Result<(), String> {
        let len = self.entries.len() as u64;
        if self.allocated - self.completed != len {
            return Err(format!(
                "mshr balance broken: allocated={} completed={} but {} outstanding (leaked {})",
                self.allocated,
                self.completed,
                len,
                (self.allocated - self.completed) as i64 - len as i64
            ));
        }
        if self.entries.len() > self.capacity {
            return Err(format!(
                "mshr over capacity: {} entries in a {}-entry file",
                self.entries.len(),
                self.capacity
            ));
        }
        if full {
            for e in &self.entries {
                if e.alloc_cycle > now {
                    return Err(format!(
                        "mshr entry for line {:#x} allocated in the future (cycle {} > now {})",
                        e.line.raw(),
                        e.alloc_cycle,
                        now
                    ));
                }
            }
        }
        Ok(())
    }

    /// Folds the file's outstanding entries into a state fingerprint, in
    /// sorted line-address order.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        h.write_u64(self.allocated)
            .write_u64(self.completed)
            .write_usize(self.entries.len());
        for e in self.sorted() {
            h.write_u64(e.line.raw())
                .write_u64(e.primary.0)
                .write_bool(e.is_prefetch)
                .write_bool(e.demand_merged)
                .write_usize(e.waiters.len())
                .write_u64(e.alloc_cycle);
        }
    }

    /// Fault injection: silently discards one outstanding entry *without*
    /// counting a completion, as a hardware release-path bug would. The
    /// victim is the `selector % len`-th entry in line-address order.
    /// Returns the leaked line, or `None` when the file is empty.
    pub fn leak_one(&mut self, selector: u64) -> Option<LineAddr> {
        if self.entries.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let victim = sorted[(selector % sorted.len() as u64) as usize].line;
        let i = self.position(victim).expect("victim is in flight");
        self.remove(i);
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_complete_roundtrip() {
        let mut m = MshrFile::new(2);
        let l = LineAddr::new(5);
        assert_eq!(m.alloc(l, ReqId(1), false, 0), Ok(AllocOutcome::New));
        assert!(m.contains(l));
        let e = m.complete(l).expect("entry");
        assert_eq!(e.primary, ReqId(1));
        assert!(m.is_empty());
    }

    #[test]
    fn merge_into_inflight() {
        let mut m = MshrFile::new(2);
        let l = LineAddr::new(5);
        m.alloc(l, ReqId(1), false, 0).unwrap();
        let out = m.alloc(l, ReqId(2), false, 1).unwrap();
        assert_eq!(
            out,
            AllocOutcome::Merged {
                into_prefetch: false
            }
        );
        let e = m.complete(l).unwrap();
        assert_eq!(e.waiters, vec![ReqId(2)]);
    }

    #[test]
    fn demand_merging_into_prefetch_counts_late() {
        let mut m = MshrFile::new(2);
        let l = LineAddr::new(9);
        m.alloc(l, ReqId(1), true, 0).unwrap();
        let out = m.alloc(l, ReqId(2), false, 5).unwrap();
        assert_eq!(
            out,
            AllocOutcome::Merged {
                into_prefetch: true
            }
        );
        assert_eq!(m.late_prefetch_merges(), 1);
        // A second demand merge does not double count.
        let out2 = m.alloc(l, ReqId(3), false, 6).unwrap();
        assert_eq!(
            out2,
            AllocOutcome::Merged {
                into_prefetch: false
            }
        );
        assert_eq!(m.late_prefetch_merges(), 1);
    }

    #[test]
    fn prefetch_merging_into_prefetch_is_not_late() {
        let mut m = MshrFile::new(2);
        let l = LineAddr::new(9);
        m.alloc(l, ReqId(1), true, 0).unwrap();
        let out = m.alloc(l, ReqId(2), true, 1).unwrap();
        assert_eq!(
            out,
            AllocOutcome::Merged {
                into_prefetch: false
            }
        );
        assert_eq!(m.late_prefetch_merges(), 0);
    }

    #[test]
    fn full_file_rejects_new_but_accepts_merges() {
        let mut m = MshrFile::new(1);
        m.alloc(LineAddr::new(1), ReqId(1), false, 0).unwrap();
        assert!(m.is_full());
        assert_eq!(
            m.alloc(LineAddr::new(2), ReqId(2), false, 1),
            Err(MshrFullError)
        );
        assert!(m.alloc(LineAddr::new(1), ReqId(3), false, 1).is_ok());
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m = MshrFile::new(1);
        assert!(m.complete(LineAddr::new(42)).is_none());
    }

    #[test]
    fn audit_passes_through_normal_traffic() {
        let mut m = MshrFile::new(4);
        for i in 0..4u64 {
            m.alloc(LineAddr::new(i), ReqId(i), false, i).unwrap();
        }
        m.complete(LineAddr::new(1));
        assert_eq!(m.audit(10, true), Ok(()));
    }

    #[test]
    fn leak_breaks_the_balance_audit() {
        let mut m = MshrFile::new(4);
        m.alloc(LineAddr::new(7), ReqId(1), false, 0).unwrap();
        m.alloc(LineAddr::new(3), ReqId(2), false, 0).unwrap();
        // selector 0 picks the lowest line address.
        assert_eq!(m.leak_one(0), Some(LineAddr::new(3)));
        let err = m.audit(5, false).unwrap_err();
        assert!(err.contains("balance broken"), "{err}");
    }

    #[test]
    fn fingerprint_is_insertion_order_independent() {
        // Build the same logical contents through different insertion
        // orders (and thus different array layouts); the fingerprint must
        // agree because it folds in sorted line order.
        let build = |order: &[u64]| {
            let mut m = MshrFile::new(8);
            for &l in order {
                m.alloc(LineAddr::new(l), ReqId(l), l % 2 == 0, l).unwrap();
            }
            let mut h = Fnv64::new();
            m.fingerprint(&mut h);
            h.finish()
        };
        assert_eq!(build(&[5, 1, 9, 3]), build(&[5, 1, 9, 3]));
        let mut a = MshrFile::new(8);
        let mut b = MshrFile::new(8);
        for &l in &[5u64, 1, 9, 3] {
            a.alloc(LineAddr::new(l), ReqId(l), false, 0).unwrap();
        }
        for &l in &[3u64, 9, 1, 5] {
            b.alloc(LineAddr::new(l), ReqId(l), false, 0).unwrap();
        }
        let (mut ha, mut hb) = (Fnv64::new(), Fnv64::new());
        a.fingerprint(&mut ha);
        b.fingerprint(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // And a leaked entry changes the hash.
        a.leak_one(0);
        let mut hl = Fnv64::new();
        a.fingerprint(&mut hl);
        assert_ne!(ha.finish(), hl.finish());
    }

    #[test]
    fn leak_on_empty_file_is_none() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.leak_one(9), None);
        assert_eq!(m.audit(0, true), Ok(()));
    }
}
