//! Differential tests: [`Cache`] and [`MshrFile`] driven in lockstep with
//! straightforward reference models over [`SimRng`] operation sequences.
//!
//! The reference cache keeps one `Line` record per way and fills the first
//! invalid way, else the policy's victim, over the same
//! [`ReplacementState`]; the reference MSHR file keeps its entries in a
//! `HashMap` and folds them in sorted line order. Every outcome, eviction,
//! statistic, occupancy and fingerprint must agree.

use clip_cache::{
    AllocOutcome, Cache, CacheStats, Evicted, LookupOutcome, MshrEntry, MshrFile, MshrFullError,
    ReplacementState,
};
use clip_types::{CacheLevelConfig, Fnv64, LineAddr, ReplacementKind, ReqId, SimRng};
use std::collections::HashMap;

const KINDS: [ReplacementKind; 5] = [
    ReplacementKind::Lru,
    ReplacementKind::Srrip,
    ReplacementKind::Mockingjay,
    ReplacementKind::Nru,
    ReplacementKind::Dip,
];

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
}

/// One record per way; "first invalid way, else victim" fills.
struct RefCache {
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    repl: ReplacementState,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: &CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        RefCache {
            sets,
            ways: cfg.ways,
            lines: vec![Line::default(); sets * cfg.ways],
            repl: ReplacementState::new(cfg.replacement, sets, cfg.ways),
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (clip_types::hash64(line.raw()) as usize) & (self.sets - 1)
    }

    fn find(&self, set: usize, line: LineAddr) -> Option<usize> {
        (0..self.ways).find(|&w| {
            let l = &self.lines[set * self.ways + w];
            l.valid && l.tag == line.raw()
        })
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.find(self.set_index(line), line).is_some()
    }

    fn lookup(
        &mut self,
        line: LineAddr,
        is_write: bool,
        is_prefetch: bool,
        now: u64,
    ) -> LookupOutcome {
        let set = self.set_index(line);
        if is_prefetch {
            self.stats.prefetch_accesses += 1;
        } else {
            self.stats.demand_accesses += 1;
        }
        let Some(w) = self.find(set, line) else {
            return LookupOutcome::Miss;
        };
        let mut first_prefetch_use = false;
        if is_prefetch {
            self.stats.prefetch_hits += 1;
        } else {
            self.stats.demand_hits += 1;
            let l = &mut self.lines[set * self.ways + w];
            if l.prefetched {
                l.prefetched = false;
                self.stats.useful_prefetches += 1;
                first_prefetch_use = true;
            }
            l.dirty |= is_write;
            self.repl.on_hit(set, w, now, line);
        }
        LookupOutcome::Hit { first_prefetch_use }
    }

    fn fill(&mut self, line: LineAddr, dirty: bool, prefetched: bool, now: u64) -> Option<Evicted> {
        let set = self.set_index(line);
        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        if let Some(w) = self.find(set, line) {
            self.lines[set * self.ways + w].dirty |= dirty;
            return None;
        }
        let way = (0..self.ways)
            .find(|&w| !self.lines[set * self.ways + w].valid)
            .unwrap_or_else(|| self.repl.victim(set, now));
        let old = self.lines[set * self.ways + way];
        let evicted = old.valid.then(|| {
            self.stats.dirty_evictions += u64::from(old.dirty);
            self.stats.useless_prefetches += u64::from(old.prefetched);
            Evicted {
                line: LineAddr::new(old.tag),
                dirty: old.dirty,
                was_useless_prefetch: old.prefetched,
            }
        });
        self.lines[set * self.ways + way] = Line {
            tag: line.raw(),
            valid: true,
            dirty,
            prefetched,
        };
        self.repl.on_fill(set, way, now, line, prefetched);
        evicted
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

fn level(sets: usize, ways: usize, replacement: ReplacementKind) -> CacheLevelConfig {
    CacheLevelConfig {
        capacity_bytes: sets * ways * 64,
        ways,
        latency: 1,
        mshrs: 8,
        replacement,
    }
}

/// Runs `ops` random lookups, prefetch lookups, fills and presence probes
/// over a pool of twice the capacity in lines, so sets fill and evict.
fn cache_lockstep(cfg: &CacheLevelConfig, seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cache = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    let pool = 2 * cfg.sets() as u64 * cfg.ways as u64;
    let ctx = format!("{:?} {}x{}", cfg.replacement, cfg.sets(), cfg.ways);
    for t in 0..ops as u64 {
        let line = LineAddr::new(rng.gen_range(0..pool));
        match rng.gen_range(0u32..10) {
            0..=3 => {
                let is_write = rng.gen_bool(0.3);
                assert_eq!(
                    cache.lookup(line, is_write, t),
                    reference.lookup(line, is_write, false, t),
                    "{ctx}: lookup {t}"
                );
            }
            4 => assert_eq!(
                cache.lookup_prefetch(line, t),
                reference.lookup(line, false, true, t),
                "{ctx}: prefetch lookup {t}"
            ),
            5..=8 => {
                let (dirty, prefetched) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
                assert_eq!(
                    cache.fill(line, dirty, prefetched, t),
                    reference.fill(line, dirty, prefetched, t),
                    "{ctx}: fill {t}"
                );
            }
            _ => assert_eq!(
                cache.contains(line),
                reference.contains(line),
                "{ctx}: contains {t}"
            ),
        }
        assert_eq!(cache.stats(), &reference.stats, "{ctx}: stats {t}");
        if t % 4096 == 0 {
            assert_eq!(
                cache.occupancy(),
                reference.occupancy(),
                "{ctx}: occupancy {t}"
            );
        }
    }
    assert_eq!(
        cache.occupancy(),
        reference.occupancy(),
        "{ctx}: final occupancy"
    );
    assert!(
        cache.stats().dirty_evictions > 0,
        "{ctx}: sets must fill and evict"
    );
}

/// Every policy on a small geometry, several seeds.
#[test]
fn cache_matches_reference_small_geometry() {
    for (k, &kind) in KINDS.iter().enumerate() {
        for seed in 0..4u64 {
            cache_lockstep(&level(16, 4, kind), 0xD1F0 + 16 * k as u64 + seed, 4_000);
        }
    }
}

/// Every policy on the L1D (64x12), L2 (1024x8) and LLC-slice (2048x16)
/// geometries.
#[test]
fn cache_matches_reference_at_level_geometries() {
    for (k, &kind) in KINDS.iter().enumerate() {
        for (g, (sets, ways)) in [(64, 12), (1024, 8), (2048, 16)].into_iter().enumerate() {
            let ops = 6 * sets * ways;
            cache_lockstep(
                &level(sets, ways, kind),
                0xD1F1 + 16 * k as u64 + g as u64,
                ops,
            );
        }
    }
}

/// The MSHR file as a hash map, folded in sorted line order.
#[derive(Default)]
struct RefMshr {
    capacity: usize,
    entries: HashMap<LineAddr, MshrEntry>,
    late: u64,
    allocated: u64,
    completed: u64,
}

impl RefMshr {
    fn alloc(
        &mut self,
        line: LineAddr,
        req: ReqId,
        is_prefetch: bool,
        now: u64,
    ) -> Result<AllocOutcome, MshrFullError> {
        if let Some(e) = self.entries.get_mut(&line) {
            let into_prefetch = e.is_prefetch && !e.demand_merged && !is_prefetch;
            if into_prefetch {
                e.demand_merged = true;
                self.late += 1;
            }
            e.waiters.push(req);
            return Ok(AllocOutcome::Merged { into_prefetch });
        }
        if self.entries.len() >= self.capacity {
            return Err(MshrFullError);
        }
        self.entries.insert(
            line,
            MshrEntry {
                line,
                primary: req,
                is_prefetch,
                demand_merged: false,
                waiters: Vec::new(),
                alloc_cycle: now,
            },
        );
        self.allocated += 1;
        Ok(AllocOutcome::New)
    }

    fn complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let e = self.entries.remove(&line);
        self.completed += u64::from(e.is_some());
        e
    }

    fn sorted_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self.entries.keys().copied().collect();
        lines.sort_unstable_by_key(|l| l.raw());
        lines
    }

    fn leak_one(&mut self, selector: u64) -> Option<LineAddr> {
        let lines = self.sorted_lines();
        let victim = *lines.get((selector % lines.len().max(1) as u64) as usize)?;
        self.entries.remove(&victim);
        Some(victim)
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        let lines = self.sorted_lines();
        h.write_u64(self.allocated)
            .write_u64(self.completed)
            .write_usize(lines.len());
        for line in lines {
            let e = &self.entries[&line];
            h.write_u64(e.line.raw())
                .write_u64(e.primary.0)
                .write_bool(e.is_prefetch)
                .write_bool(e.demand_merged)
                .write_usize(e.waiters.len())
                .write_u64(e.alloc_cycle);
        }
        h.finish()
    }
}

/// Random allocations, merges, completions and the odd leak over a line
/// pool a little larger than the file, at the L1, L2 and LLC capacities.
#[test]
fn mshr_matches_reference() {
    for (case, capacity) in [4usize, 16, 32, 64]
        .into_iter()
        .cycle()
        .take(16)
        .enumerate()
    {
        let mut rng = SimRng::seed_from_u64(0x35A0 + case as u64);
        let mut file = MshrFile::new(capacity);
        let mut reference = RefMshr {
            capacity,
            ..RefMshr::default()
        };
        let pool = capacity as u64 * 3 / 2;
        for t in 0..4_000u64 {
            let line = LineAddr::new(rng.gen_range(0..pool));
            match rng.gen_range(0u32..100) {
                0..=54 => {
                    let is_prefetch = rng.gen_bool(0.4);
                    assert_eq!(
                        file.alloc(line, ReqId(t), is_prefetch, t),
                        reference.alloc(line, ReqId(t), is_prefetch, t),
                        "case {case}: alloc {t}"
                    );
                }
                55..=98 => assert_eq!(
                    file.complete(line),
                    reference.complete(line),
                    "case {case}: complete {t}"
                ),
                _ => {
                    let selector = rng.next_u64();
                    assert_eq!(
                        file.leak_one(selector),
                        reference.leak_one(selector),
                        "case {case}: leak {t}"
                    );
                }
            }
            assert_eq!(file.len(), reference.entries.len(), "case {case}: len {t}");
            assert_eq!(file.is_full(), reference.entries.len() >= capacity);
            assert_eq!(file.contains(line), reference.entries.contains_key(&line));
            assert_eq!(file.late_prefetch_merges(), reference.late);
            let mut h = Fnv64::new();
            file.fingerprint(&mut h);
            assert_eq!(
                h.finish(),
                reference.fingerprint(),
                "case {case}: fingerprint {t}"
            );
        }
    }
}
