//! Pins the L2's SRRIP and the LLC's Mockingjay replacement at their
//! default geometries (Table 3). The committed goldens run too few
//! instructions per core to fill either cache, so a change to either
//! policy reaches no golden. These tests drive each cache directly with a
//! seeded access stream long enough to evict from almost every set, and
//! pin every eviction and the final statistics.

use clip_cache::{Cache, CacheStats};
use clip_types::{CacheLevelConfig, Fnv64, LineAddr, ReplacementKind, SimConfig, SimRng};

/// What one stream through one cache produced.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// FNV-1a over `(line, dirty, useless prefetch)` of every eviction,
    /// in order.
    evictions: u64,
    /// FNV-1a over every [`CacheStats`] counter at the end.
    stats: u64,
}

/// Drives `cfg`'s cache with four accesses per line of capacity: half to
/// a hot region of half the cache's lines (reuse, so hits train the
/// policy), half to a cold region of eight times its lines (misses that
/// evict). One access in eight is a prefetch (a dedup lookup, then a
/// prefetch fill on a miss) and one demand in ten is a store. Time
/// advances 1-7 cycles per access, so Mockingjay's reuse intervals vary.
fn pinned_stream(cfg: &CacheLevelConfig, seed: u64) -> Pinned {
    let mut cache = Cache::new(cfg);
    let (sets, lines) = (cache.sets(), (cache.sets() * cache.ways()) as u64);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut h = Fnv64::new();
    let mut evicted_sets = vec![false; sets];
    let mut now = 0;
    for _ in 0..4 * lines {
        now += rng.gen_range(1u64..8);
        let line = LineAddr::new(if rng.gen_bool(0.5) {
            rng.gen_range(0..lines / 2)
        } else {
            lines + rng.gen_range(0..8 * lines)
        });
        let evicted = if rng.gen_bool(0.125) {
            if cache.lookup_prefetch(line, now).is_hit() {
                continue;
            }
            cache.fill(line, false, true, now)
        } else {
            let store = rng.gen_bool(0.1);
            if cache.lookup(line, store, now).is_hit() {
                continue;
            }
            cache.fill(line, store, false, now)
        };
        if let Some(v) = evicted {
            h.write_u64(v.line.raw())
                .write_u64(u64::from(v.dirty))
                .write_u64(u64::from(v.was_useless_prefetch));
            // The cache indexes sets by a hash of the line address.
            evicted_sets[clip_types::hash64(v.line.raw()) as usize & (sets - 1)] = true;
        }
    }
    let evicting = evicted_sets.iter().filter(|&&e| e).count();
    assert!(
        evicting * 100 >= sets * 99,
        "only {evicting} of {sets} sets evicted a line"
    );
    let CacheStats {
        demand_accesses,
        demand_hits,
        prefetch_hits,
        prefetch_accesses,
        prefetch_fills,
        useful_prefetches,
        useless_prefetches,
        fills,
        dirty_evictions,
    } = *cache.stats();
    let mut s = Fnv64::new();
    for c in [
        demand_accesses,
        demand_hits,
        prefetch_hits,
        prefetch_accesses,
        prefetch_fills,
        useful_prefetches,
        useless_prefetches,
        fills,
        dirty_evictions,
    ] {
        s.write_u64(c);
    }
    Pinned {
        evictions: h.finish(),
        stats: s.finish(),
    }
}

#[test]
fn l2_srrip_evictions_are_pinned() {
    let cfg = SimConfig::default().l2;
    assert_eq!(cfg.replacement, ReplacementKind::Srrip);
    assert_eq!((cfg.capacity_bytes, cfg.ways), (512 * 1024, 8));
    let got = pinned_stream(&cfg, 0x5221);
    assert_eq!(
        got,
        Pinned {
            evictions: 0xa5dc_a701_0586_2987,
            stats: 0x4e16_d907_c0bc_d147,
        }
    );
}

#[test]
fn llc_mockingjay_evictions_are_pinned() {
    let cfg = SimConfig::default().llc_slice;
    assert_eq!(cfg.replacement, ReplacementKind::Mockingjay);
    assert_eq!((cfg.capacity_bytes, cfg.ways), (2 * 1024 * 1024, 16));
    let got = pinned_stream(&cfg, 0x11C);
    assert_eq!(
        got,
        Pinned {
            evictions: 0xf695_9a84_ffb6_ef9b,
            stats: 0x7542_2a60_0229_435b,
        }
    );
}
