//! Set-associative cache structures for the CLIP many-core simulator.
//!
//! Provides the tag arrays, replacement policies (Table 3's LRU, SRRIP
//! and a sampled Mockingjay reuse-predictor) and miss-status holding
//! registers used by every level of the modeled hierarchy. Data values
//! are not modeled — only presence, dirtiness, and the prefetch
//! provenance bits the paper's accounting needs.
//!
//! Every simulated access probes these structures, so their layout is
//! chosen for host speed and memory. A [`Cache`] keeps one 4-byte word per
//! set, `block << 8 | filled`, and allocates the set's block of tags, flags
//! and replacement state at its first fill, blocks in first-fill order. A
//! probe scans only the set's filled ways; a cold set (`filled == 0`)
//! costs its word and no storage, so a run's memory follows the sets it
//! touches, not the configured capacity. Lines are never invalidated, so
//! the filled ways stay a prefix of the block. An [`MshrFile`] scans a
//! dense array of at most a few dozen line addresses instead of hashing.
//!
//! # Examples
//!
//! ```
//! use clip_cache::{Cache, LookupOutcome};
//! use clip_types::{CacheLevelConfig, LineAddr, ReplacementKind};
//!
//! let cfg = CacheLevelConfig {
//!     capacity_bytes: 4096,
//!     ways: 4,
//!     latency: 1,
//!     mshrs: 4,
//!     replacement: ReplacementKind::Lru,
//! };
//! let mut cache = Cache::new(&cfg);
//! assert_eq!(cache.lookup(LineAddr::new(3), false, 0), LookupOutcome::Miss);
//! cache.fill(LineAddr::new(3), false, false, 0);
//! assert!(matches!(cache.lookup(LineAddr::new(3), false, 1), LookupOutcome::Hit { .. }));
//! ```

pub mod mshr;
pub mod replacement;

pub use mshr::{AllocOutcome, MshrEntry, MshrFile, MshrFullError};
pub use replacement::ReplacementState;

use clip_types::{CacheLevelConfig, Cycle, LineAddr};

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line is present.
    Hit {
        /// True if this is the first demand touch of a line that was
        /// brought in by a prefetch (a *useful* prefetch).
        first_prefetch_use: bool,
    },
    /// The line is absent.
    Miss,
}

impl LookupOutcome {
    /// True on a hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, LookupOutcome::Hit { .. })
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The line address evicted.
    pub line: LineAddr,
    /// Whether it was dirty (needs a writeback).
    pub dirty: bool,
    /// Whether it was a prefetched line never touched by demand — a
    /// *useless* prefetch, counted for accuracy statistics.
    pub was_useless_prefetch: bool,
}

/// Aggregate counters maintained by a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups (loads + stores).
    pub demand_accesses: u64,
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Prefetch lookups (for dedup) that hit.
    pub prefetch_hits: u64,
    /// Prefetch lookups.
    pub prefetch_accesses: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Demand touches of prefetched lines (useful prefetches).
    pub useful_prefetches: u64,
    /// Prefetched lines evicted untouched (useless prefetches).
    pub useless_prefetches: u64,
    /// Total fills.
    pub fills: u64,
    /// Evictions of dirty lines.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Demand miss count.
    pub fn demand_misses(&self) -> u64 {
        self.demand_accesses - self.demand_hits
    }

    /// Demand hit rate in [0, 1]; 1.0 when there were no accesses.
    pub fn demand_hit_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            1.0
        } else {
            self.demand_hits as f64 / self.demand_accesses as f64
        }
    }

    /// Prefetch accuracy: useful / (useful + useless evicted). Counts only
    /// resolved prefetches, matching how ChampSim reports accuracy.
    pub fn prefetch_accuracy(&self) -> f64 {
        let resolved = self.useful_prefetches + self.useless_prefetches;
        if resolved == 0 {
            1.0
        } else {
            self.useful_prefetches as f64 / resolved as f64
        }
    }

    /// Adds another cache's counts to these (the LLC's slices sum this
    /// way).
    pub fn merge(&mut self, other: &CacheStats) {
        self.demand_accesses += other.demand_accesses;
        self.demand_hits += other.demand_hits;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_accesses += other.prefetch_accesses;
        self.prefetch_fills += other.prefetch_fills;
        self.useful_prefetches += other.useful_prefetches;
        self.useless_prefetches += other.useless_prefetches;
        self.fills += other.fills;
        self.dirty_evictions += other.dirty_evictions;
    }

    /// The counts added since `earlier`, a copy of these stats taken
    /// before: every field is a running total.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            demand_accesses: self.demand_accesses - earlier.demand_accesses,
            demand_hits: self.demand_hits - earlier.demand_hits,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            prefetch_accesses: self.prefetch_accesses - earlier.prefetch_accesses,
            prefetch_fills: self.prefetch_fills - earlier.prefetch_fills,
            useful_prefetches: self.useful_prefetches - earlier.useful_prefetches,
            useless_prefetches: self.useless_prefetches - earlier.useless_prefetches,
            fills: self.fills - earlier.fills,
            dirty_evictions: self.dirty_evictions - earlier.dirty_evictions,
        }
    }
}

/// Tag-word bit marking a filled way. Line addresses stay below 2^58
/// (byte addresses below 2^64), so bit 63 is free; a word of 0 is a way
/// never filled.
const VALID: u64 = 1 << 63;
/// Flag bit: the line must be written back when evicted.
const DIRTY: u8 = 1;
/// Flag bit: the line was filled by a prefetch and not yet demanded.
const PREFETCHED: u8 = 2;
/// A set word's block number sits above its filled-ways byte.
const BLOCK_SHIFT: u32 = 8;

/// A set-associative tag array with a pluggable replacement policy.
///
/// Each set has a word `block << 8 | filled`. A set's first fill appends
/// a block of `ways` tags, flags and replacement entries and records its
/// number; until then the set's word is 0 and it owns no storage. Tags,
/// flags and the policy are indexed by `(block, way)`, and `filled` counts
/// the block's leading ways that have ever been filled. Nothing
/// invalidates a line, so those ways are exactly the valid ones: a probe
/// scans only them, and a fill takes the next unfilled way before it asks
/// the policy for a victim.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    /// `block << 8 | filled` per set; 0 for a set never filled.
    set_words: Vec<u32>,
    /// `line | VALID` per (block, way); 0 for a way never filled.
    tags: Vec<u64>,
    /// [`DIRTY`] and [`PREFETCHED`] bits per (block, way).
    flags: Vec<u8>,
    repl: ReplacementState,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a level configuration. No set owns storage
    /// until its first fill.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies zero sets, a non-power-of-two
    /// set count, more than [`CacheLevelConfig::MAX_SETS`] sets or more
    /// than [`CacheLevelConfig::MAX_WAYS`] ways (use
    /// [`clip_types::SimConfig::validate`] first).
    pub fn new(cfg: &CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two() && sets <= CacheLevelConfig::MAX_SETS,
            "invalid set count {sets}"
        );
        assert!(
            cfg.ways <= CacheLevelConfig::MAX_WAYS,
            "too many ways: {}",
            cfg.ways
        );
        Cache {
            ways: cfg.ways,
            set_words: vec![0; sets],
            tags: Vec::new(),
            flags: Vec::new(),
            repl: ReplacementState::new(cfg.replacement, 0, cfg.ways),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        // Hash-index so that strided patterns spread across sets, as
        // physical indexing effectively does.
        (clip_types::hash64(line.raw()) as usize) & (self.set_words.len() - 1)
    }

    /// The block of `set` and its filled ways; `(0, 0)` for a cold set.
    #[inline]
    fn block_of(&self, set: usize) -> (usize, usize) {
        let word = self.set_words[set];
        ((word >> BLOCK_SHIFT) as usize, (word & 0xff) as usize)
    }

    #[inline]
    fn slot(&self, block: usize, way: usize) -> usize {
        block * self.ways + way
    }

    /// The way of `block` holding `line`, scanning only its `filled` ways;
    /// with none filled it reads no storage.
    #[inline]
    fn find(&self, block: usize, filled: usize, line: LineAddr) -> Option<usize> {
        let base = self.slot(block, 0);
        let tag = line.raw() | VALID;
        self.tags[base..base + filled]
            .iter()
            .position(|&t| t == tag)
    }

    /// Blocks allocated so far: the sets filled at least once.
    fn blocks(&self) -> usize {
        self.flags.len() / self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.set_words.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Returns the statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// True if the line is currently present (no state update).
    pub fn contains(&self, line: LineAddr) -> bool {
        let (block, filled) = self.block_of(self.set_index(line));
        self.find(block, filled, line).is_some()
    }

    /// Looks up `line`; updates replacement state and statistics.
    ///
    /// `is_write` marks stores (sets the dirty bit on hit); `now` feeds the
    /// replacement policy. Demand hits on prefetched lines clear the
    /// prefetch bit and count as useful prefetches.
    pub fn lookup(&mut self, line: LineAddr, is_write: bool, now: Cycle) -> LookupOutcome {
        self.lookup_kind(line, is_write, false, now)
    }

    /// Looks up on behalf of a prefetch (used to drop redundant prefetches
    /// without perturbing the useful/useless accounting).
    pub fn lookup_prefetch(&mut self, line: LineAddr, now: Cycle) -> LookupOutcome {
        self.lookup_kind(line, false, true, now)
    }

    fn lookup_kind(
        &mut self,
        line: LineAddr,
        is_write: bool,
        is_prefetch: bool,
        now: Cycle,
    ) -> LookupOutcome {
        let (block, filled) = self.block_of(self.set_index(line));
        if is_prefetch {
            self.stats.prefetch_accesses += 1;
        } else {
            self.stats.demand_accesses += 1;
        }
        let Some(w) = self.find(block, filled, line) else {
            return LookupOutcome::Miss;
        };
        let mut first_use = false;
        if is_prefetch {
            self.stats.prefetch_hits += 1;
        } else {
            self.stats.demand_hits += 1;
            let idx = self.slot(block, w);
            let flags = &mut self.flags[idx];
            if *flags & PREFETCHED != 0 {
                *flags &= !PREFETCHED;
                self.stats.useful_prefetches += 1;
                first_use = true;
            }
            if is_write {
                *flags |= DIRTY;
            }
            self.repl.on_hit(block, w, now, line);
        }
        LookupOutcome::Hit {
            first_prefetch_use: first_use,
        }
    }

    /// Fills `line`, returning any eviction. `prefetched` marks prefetch
    /// fills for accuracy accounting; `dirty` installs the line dirty
    /// (writeback fills).
    pub fn fill(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        now: Cycle,
    ) -> Option<Evicted> {
        debug_assert_eq!(line.raw() & VALID, 0, "line address overlaps VALID");
        let set = self.set_index(line);
        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }

        // Already present (races between in-flight fills): just update bits.
        let (mut block, filled) = self.block_of(set);
        if let Some(w) = self.find(block, filled, line) {
            if dirty {
                let idx = self.slot(block, w);
                self.flags[idx] |= DIRTY;
            }
            return None;
        }

        // A cold set's first fill appends its block. Then the next
        // unfilled way, else ask the policy for a victim.
        let (way, evicted) = if filled == 0 {
            block = self.blocks();
            self.tags.resize(self.tags.len() + self.ways, 0);
            self.flags.resize(self.flags.len() + self.ways, 0);
            self.repl.push_block();
            self.set_words[set] = (block as u32) << BLOCK_SHIFT | 1;
            (0, None)
        } else if filled < self.ways {
            self.set_words[set] += 1;
            (filled, None)
        } else {
            let way = self.repl.victim(block, now);
            debug_assert!(way < self.ways);
            let idx = self.slot(block, way);
            let v = Evicted {
                line: LineAddr::new(self.tags[idx] & !VALID),
                dirty: self.flags[idx] & DIRTY != 0,
                was_useless_prefetch: self.flags[idx] & PREFETCHED != 0,
            };
            if v.dirty {
                self.stats.dirty_evictions += 1;
            }
            if v.was_useless_prefetch {
                self.stats.useless_prefetches += 1;
            }
            (way, Some(v))
        };

        let idx = self.slot(block, way);
        self.tags[idx] = line.raw() | VALID;
        self.flags[idx] = if dirty { DIRTY } else { 0 };
        if prefetched {
            self.flags[idx] |= PREFETCHED;
        }
        self.repl.on_fill(block, way, now, line, prefetched);
        evicted
    }

    /// Number of valid lines currently held (O(filled blocks); for tests).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_types::ReplacementKind;

    fn cfg(capacity: usize, ways: usize, repl: ReplacementKind) -> CacheLevelConfig {
        CacheLevelConfig {
            capacity_bytes: capacity,
            ways,
            latency: 1,
            mshrs: 8,
            replacement: repl,
        }
    }

    #[test]
    fn fill_then_hit() {
        let mut c = Cache::new(&cfg(4096, 4, ReplacementKind::Lru));
        let l = LineAddr::new(0x77);
        assert_eq!(c.lookup(l, false, 0), LookupOutcome::Miss);
        assert!(c.fill(l, false, false, 0).is_none());
        assert!(c.lookup(l, false, 1).is_hit());
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses(), 1);
    }

    #[test]
    fn capacity_eviction_occurs() {
        let c_cfg = cfg(64 * 8, 2, ReplacementKind::Lru); // 8 lines, 4 sets
        let mut c = Cache::new(&c_cfg);
        let mut evictions = 0;
        for i in 0..64 {
            if c.fill(LineAddr::new(i), false, false, i).is_some() {
                evictions += 1;
            }
        }
        assert!(evictions >= 64 - 8);
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single set: capacity 2 lines, 2 ways.
        let mut c = Cache::new(&cfg(64 * 2, 2, ReplacementKind::Lru));
        // Find three lines mapping to set 0 (only one set here, trivially).
        let a = LineAddr::new(1);
        let b = LineAddr::new(2);
        let d = LineAddr::new(3);
        c.fill(a, false, false, 0);
        c.fill(b, false, false, 1);
        c.lookup(a, false, 2); // a most recent
        let ev = c.fill(d, false, false, 3).expect("must evict");
        assert_eq!(ev.line, b, "LRU must evict b");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(&cfg(64 * 2, 2, ReplacementKind::Lru));
        c.fill(LineAddr::new(1), false, false, 0);
        c.lookup(LineAddr::new(1), true, 1); // store → dirty
        c.fill(LineAddr::new(2), false, false, 2);
        // Evict line 1 (LRU after the store touch? touch makes it MRU; line2 is victim)
        c.lookup(LineAddr::new(1), false, 3);
        let ev = c.fill(LineAddr::new(3), false, false, 4).unwrap();
        assert_eq!(ev.line, LineAddr::new(2));
        assert!(!ev.dirty);
        // Now evict the dirty line.
        let ev2 = c.fill(LineAddr::new(4), false, false, 5).unwrap();
        assert_eq!(ev2.line, LineAddr::new(1));
        assert!(ev2.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn prefetch_accounting_useful_and_useless() {
        let mut c = Cache::new(&cfg(64 * 4, 4, ReplacementKind::Lru));
        c.fill(LineAddr::new(10), false, true, 0);
        c.fill(LineAddr::new(11), false, true, 0);
        // Demand touch of 10 → useful.
        let out = c.lookup(LineAddr::new(10), false, 1);
        assert_eq!(
            out,
            LookupOutcome::Hit {
                first_prefetch_use: true
            }
        );
        // Second touch is a plain hit.
        let out2 = c.lookup(LineAddr::new(10), false, 2);
        assert_eq!(
            out2,
            LookupOutcome::Hit {
                first_prefetch_use: false
            }
        );
        // Evict 11 untouched → useless.
        for i in 0..64u64 {
            c.fill(LineAddr::new(100 + i), false, false, 3 + i);
        }
        assert_eq!(c.stats().useful_prefetches, 1);
        assert!(c.stats().useless_prefetches >= 1);
        let acc = c.stats().prefetch_accuracy();
        assert!(acc > 0.0 && acc < 1.0);
    }

    #[test]
    fn prefetch_lookup_does_not_consume_usefulness() {
        let mut c = Cache::new(&cfg(64 * 4, 4, ReplacementKind::Lru));
        c.fill(LineAddr::new(10), false, true, 0);
        assert!(c.lookup_prefetch(LineAddr::new(10), 1).is_hit());
        // Still counts as useful on the first demand touch.
        assert_eq!(
            c.lookup(LineAddr::new(10), false, 2),
            LookupOutcome::Hit {
                first_prefetch_use: true
            }
        );
    }

    #[test]
    fn double_fill_is_idempotent() {
        // One 4-way set, so the fourth new line evicts line 9 (LRU).
        let mut c = Cache::new(&cfg(64 * 4, 4, ReplacementKind::Lru));
        assert!(c.fill(LineAddr::new(9), false, false, 0).is_none());
        assert!(c.fill(LineAddr::new(9), true, false, 1).is_none());
        assert_eq!(c.occupancy(), 1);
        for l in 20..23u64 {
            assert!(c.fill(LineAddr::new(l), false, false, l).is_none());
        }
        // Dirty bit merged: line 9 leaves dirty.
        let ev = c
            .fill(LineAddr::new(23), false, false, 30)
            .expect("set is full");
        assert_eq!(ev.line, LineAddr::new(9));
        assert!(ev.dirty);
    }

    #[test]
    fn all_policies_bound_occupancy() {
        for repl in [
            ReplacementKind::Lru,
            ReplacementKind::Srrip,
            ReplacementKind::Mockingjay,
        ] {
            let mut c = Cache::new(&cfg(64 * 16, 4, repl));
            for i in 0..10_000u64 {
                c.fill(LineAddr::new(i), false, false, i);
            }
            assert_eq!(c.occupancy(), 16, "{repl:?}");
        }
    }

    #[test]
    fn storage_follows_the_sets_filled() {
        // The LLC slice's geometry: 2048 sets x 16 ways.
        let mut c = Cache::new(&cfg(2 * 1024 * 1024, 16, ReplacementKind::Mockingjay));
        assert_eq!(c.sets(), 2048);
        assert_eq!((c.blocks(), c.tags.len()), (0, 0));
        assert_eq!(c.lookup(LineAddr::new(5), false, 0), LookupOutcome::Miss);
        assert_eq!(c.blocks(), 0, "a probe allocates nothing");

        let mut sets = std::collections::BTreeSet::new();
        for i in 0..300u64 {
            // Each line twice: a refill of a present line allocates nothing.
            for now in [2 * i, 2 * i + 1] {
                c.fill(LineAddr::new(i * 7919), false, false, now);
            }
            sets.insert(c.set_index(LineAddr::new(i * 7919)));
            assert_eq!(c.blocks(), sets.len());
        }
        assert!(sets.len() < 300, "some fills share a set");
        assert_eq!(c.tags.len(), sets.len() * 16);
        assert_eq!(c.occupancy(), 300);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = Cache::new(&cfg(64 * 64, 8, ReplacementKind::Srrip));
        // Working set of 32 lines, accessed repeatedly: high hit rate.
        for round in 0..50u64 {
            for i in 0..32u64 {
                let l = LineAddr::new(i);
                if !c.lookup(l, false, round).is_hit() {
                    c.fill(l, false, false, round);
                }
            }
        }
        assert!(c.stats().demand_hit_rate() > 0.9);
    }
}
