//! The criticality filter and per-IP prefetch accuracy tracker
//! (Figure 7a): a 32-set x 4-way structure whose entries hold a 6-bit IP
//! tag, a 2-bit criticality count, 6-bit hit and issue counts, and the
//! is-critical-and-accurate bit. Replacement is least-frequently-used by
//! criticality count.

use clip_types::Ip;

/// Width of the IP tag in bits (Table 2).
pub const IP_TAG_BITS: u32 = 6;
/// Maximum value of the 2-bit criticality count.
pub const CRIT_COUNT_MAX: u8 = 3;
/// Maximum value of the 6-bit hit/issue counters.
pub const COUNT6_MAX: u8 = 63;
/// Minimum issued prefetches in a window before the accuracy bit is
/// re-evaluated (avoids flapping on an idle IP).
const MIN_ISSUES_FOR_EVAL: u8 = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    valid: bool,
    tag: u8,
    crit_count: u8,
    hit_count: u8,
    issue_count: u8,
    is_crit_acc: bool,
}

/// Read-only view of one filter entry, as returned by
/// [`CriticalityFilter::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterView {
    /// Saturating 2-bit count of observed head-of-ROB stalls.
    pub crit_count: u8,
    /// Prefetch hits credited this window.
    pub hit_count: u8,
    /// Prefetches issued this window.
    pub issue_count: u8,
    /// The is-critical-and-accurate bit from the last window evaluation.
    pub is_critical_accurate: bool,
}

/// The criticality filter + accuracy tracker.
///
/// # Examples
///
/// ```
/// use clip_core::CriticalityFilter;
/// use clip_types::Ip;
///
/// let mut filter = CriticalityFilter::new(32, 4);
/// let ip = Ip::new(0x401000);
/// for _ in 0..4 {
///     filter.record_stall(ip); // head-of-ROB stalls
/// }
/// assert_eq!(filter.lookup(ip).expect("tracked").crit_count, 3); // saturates
/// ```
#[derive(Debug, Clone)]
pub struct CriticalityFilter {
    sets: usize,
    ways: usize,
    entries: Vec<Entry>,
}

impl CriticalityFilter {
    /// Creates a `sets` x `ways` filter.
    ///
    /// # Panics
    ///
    /// Panics when `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && ways > 0,
            "invalid filter geometry"
        );
        CriticalityFilter {
            sets,
            ways,
            entries: vec![Entry::default(); sets * ways],
        }
    }

    /// Clamps a configured criticality-count threshold to what the 2-bit
    /// counter can represent (the paper's threshold of 4 saturates at 3).
    pub fn clamp_threshold(threshold: u8) -> u8 {
        threshold.min(CRIT_COUNT_MAX)
    }

    #[inline]
    fn set_of(&self, ip: Ip) -> usize {
        (clip_types::hash64(ip.raw() ^ 0xF117E4) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(ip: Ip) -> u8 {
        ip.tag(IP_TAG_BITS) as u8
    }

    fn find(&self, ip: Ip) -> Option<usize> {
        let set = self.set_of(ip);
        let tag = Self::tag_of(ip);
        (0..self.ways)
            .map(|w| set * self.ways + w)
            .find(|&i| self.entries[i].valid && self.entries[i].tag == tag)
    }

    /// Looks the IP up without modifying state.
    pub fn lookup(&self, ip: Ip) -> Option<FilterView> {
        self.find(ip).map(|i| {
            let e = &self.entries[i];
            FilterView {
                crit_count: e.crit_count,
                hit_count: e.hit_count,
                issue_count: e.issue_count,
                is_critical_accurate: e.is_crit_acc,
            }
        })
    }

    /// Records a head-of-ROB stall for `ip`, inserting it if absent
    /// (victim = least criticality count, the paper's LFU policy).
    pub fn record_stall(&mut self, ip: Ip) {
        if let Some(i) = self.find(ip) {
            let e = &mut self.entries[i];
            e.crit_count = (e.crit_count + 1).min(CRIT_COUNT_MAX);
            return;
        }
        let set = self.set_of(ip);
        let base = set * self.ways;
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                let e = &self.entries[base + w];
                if e.valid {
                    1 + e.crit_count as usize
                } else {
                    0
                }
            })
            .expect("ways > 0");
        self.entries[base + victim] = Entry {
            valid: true,
            tag: Self::tag_of(ip),
            crit_count: 1,
            hit_count: 0,
            issue_count: 0,
            is_crit_acc: false,
        };
    }

    /// Counts a prefetch issued on behalf of `ip`.
    pub fn record_issue(&mut self, ip: Ip) {
        if let Some(i) = self.find(ip) {
            let e = &mut self.entries[i];
            e.issue_count = (e.issue_count + 1).min(COUNT6_MAX);
        }
    }

    /// Releases an issue credit for a prefetch that was cancelled before
    /// it could fetch.
    pub fn cancel_issue(&mut self, ip: Ip) {
        if let Some(i) = self.find(ip) {
            let e = &mut self.entries[i];
            e.issue_count = e.issue_count.saturating_sub(1);
        }
    }

    /// Counts a utility-buffer hit (a demand matched a prefetch issued by
    /// `ip`).
    pub fn record_prefetch_hit(&mut self, ip: Ip) {
        if let Some(i) = self.find(ip) {
            let e = &mut self.entries[i];
            e.hit_count = (e.hit_count + 1).min(COUNT6_MAX);
        }
    }

    /// Ends an exploration window: re-evaluates every entry's
    /// is-critical-and-accurate bit from this window's criticality count
    /// and per-IP hit rate, then halves the hit/issue counters
    /// (hysteresis, §4.2).
    pub fn end_window(&mut self, crit_threshold: u8, hit_rate_threshold: f64) {
        let thr = Self::clamp_threshold(crit_threshold);
        for e in self.entries.iter_mut().filter(|e| e.valid) {
            if e.issue_count >= MIN_ISSUES_FOR_EVAL {
                let rate = e.hit_count as f64 / e.issue_count as f64;
                e.is_crit_acc = e.crit_count >= thr && rate >= hit_rate_threshold;
            } else if e.crit_count < thr {
                e.is_crit_acc = false;
            }
            e.hit_count /= 2;
            e.issue_count /= 2;
        }
    }

    /// Number of entries with the is-critical-and-accurate bit set.
    pub fn critical_accurate_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.valid && e.is_crit_acc)
            .count()
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Total entries (sets x ways).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Clears every entry (phase change).
    pub fn reset(&mut self) {
        self.entries.fill(Entry::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_inserts_and_counts() {
        let mut f = CriticalityFilter::new(32, 4);
        let ip = Ip::new(0x400);
        assert!(f.lookup(ip).is_none());
        for i in 1..=5 {
            f.record_stall(ip);
            let v = f.lookup(ip).unwrap();
            assert_eq!(v.crit_count, (i).min(CRIT_COUNT_MAX));
        }
    }

    #[test]
    fn accuracy_bit_requires_both_conditions() {
        let mut f = CriticalityFilter::new(32, 4);
        let ip = Ip::new(0x500);
        for _ in 0..4 {
            f.record_stall(ip);
        }
        for _ in 0..10 {
            f.record_issue(ip);
            f.record_prefetch_hit(ip);
        }
        f.end_window(4, 0.9);
        assert!(f.lookup(ip).unwrap().is_critical_accurate);

        // A second IP with poor hit rate stays off.
        let bad = Ip::new(0x600);
        for _ in 0..4 {
            f.record_stall(bad);
        }
        for _ in 0..10 {
            f.record_issue(bad);
        }
        f.record_prefetch_hit(bad);
        f.end_window(4, 0.9);
        assert!(!f.lookup(bad).unwrap().is_critical_accurate);
    }

    #[test]
    fn end_window_halves_counters() {
        let mut f = CriticalityFilter::new(32, 4);
        let ip = Ip::new(0x700);
        f.record_stall(ip);
        for _ in 0..20 {
            f.record_issue(ip);
            f.record_prefetch_hit(ip);
        }
        f.end_window(4, 0.9);
        let v = f.lookup(ip).unwrap();
        assert_eq!(v.issue_count, 10);
        assert_eq!(v.hit_count, 10);
    }

    #[test]
    fn lfu_evicts_least_critical() {
        // Single-set filter to force conflict.
        let mut f = CriticalityFilter::new(1, 2);
        let a = Ip::new(0x100);
        let b = Ip::new(0x200);
        let c = Ip::new(0x300);
        for _ in 0..3 {
            f.record_stall(a);
        }
        f.record_stall(b); // count 1 → LFU victim
        f.record_stall(c);
        assert!(f.lookup(a).is_some(), "high-count entry survives");
        assert!(f.lookup(b).is_none(), "LFU entry evicted");
        assert!(f.lookup(c).is_some());
    }

    #[test]
    fn counters_saturate_at_6_bits() {
        let mut f = CriticalityFilter::new(32, 4);
        let ip = Ip::new(0x800);
        f.record_stall(ip);
        for _ in 0..200 {
            f.record_issue(ip);
            f.record_prefetch_hit(ip);
        }
        let v = f.lookup(ip).unwrap();
        assert_eq!(v.issue_count, COUNT6_MAX);
        assert_eq!(v.hit_count, COUNT6_MAX);
    }

    #[test]
    fn reset_clears_everything() {
        let mut f = CriticalityFilter::new(32, 4);
        for i in 0..50u64 {
            f.record_stall(Ip::new(0x1000 + i * 8));
        }
        assert!(f.occupancy() > 0);
        f.reset();
        assert_eq!(f.occupancy(), 0);
        assert_eq!(f.critical_accurate_count(), 0);
    }

    #[test]
    fn clamp_matches_two_bit_counter() {
        assert_eq!(CriticalityFilter::clamp_threshold(4), 3);
        assert_eq!(CriticalityFilter::clamp_threshold(2), 2);
    }

    #[test]
    fn capacity_is_128_for_paper_geometry() {
        let f = CriticalityFilter::new(32, 4);
        assert_eq!(f.capacity(), 128);
    }
}
