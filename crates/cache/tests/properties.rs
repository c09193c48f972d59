//! Randomized invariant tests: cache and MSHR invariants under arbitrary
//! operation sequences drawn from the workspace's deterministic
//! [`SimRng`].

use clip_cache::{Cache, MshrFile};
use clip_types::{CacheLevelConfig, LineAddr, ReplacementKind, ReqId, SimRng};

fn cfg(repl: ReplacementKind) -> CacheLevelConfig {
    CacheLevelConfig {
        capacity_bytes: 64 * 64, // 64 lines
        ways: 4,
        latency: 1,
        mshrs: 8,
        replacement: repl,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64, bool),
    Fill(u64, bool, bool),
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(0u32..2) {
        0 => Op::Lookup(rng.gen_range(0u64..512), rng.gen_bool(0.5)),
        _ => Op::Fill(
            rng.gen_range(0u64..512),
            rng.gen_bool(0.5),
            rng.gen_bool(0.5),
        ),
    }
}

/// Occupancy never exceeds capacity; hits never exceed accesses; a line
/// just filled is present.
#[test]
fn cache_invariants() {
    let mut rng = SimRng::seed_from_u64(0xCAC1);
    for case in 0..64 {
        let repl = [
            ReplacementKind::Lru,
            ReplacementKind::Srrip,
            ReplacementKind::Mockingjay,
            ReplacementKind::Nru,
            ReplacementKind::Dip,
        ][case % 5];
        let n = rng.gen_range(1usize..400);
        let mut c = Cache::new(&cfg(repl));
        for t in 0..n {
            match random_op(&mut rng) {
                Op::Lookup(l, w) => {
                    let _ = c.lookup(LineAddr::new(l), w, t as u64);
                }
                Op::Fill(l, d, p) => {
                    c.fill(LineAddr::new(l), d, p, t as u64);
                    assert!(c.contains(LineAddr::new(l)));
                }
            }
            assert!(c.occupancy() <= 64);
            let s = c.stats();
            assert!(s.demand_hits <= s.demand_accesses);
            assert!(s.prefetch_hits <= s.prefetch_accesses);
        }
    }
}

/// Eviction accounting: useless prefetches never exceed prefetch fills.
#[test]
fn prefetch_accounting_bounded() {
    let mut rng = SimRng::seed_from_u64(0xCAC2);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..500);
        let mut c = Cache::new(&cfg(ReplacementKind::Lru));
        for t in 0..n {
            let l = rng.gen_range(0u64..4096);
            c.fill(LineAddr::new(l), false, t % 2 == 0, t as u64);
        }
        let s = c.stats();
        assert!(s.useless_prefetches + s.useful_prefetches <= s.prefetch_fills);
    }
}

/// MSHR: length bounded by capacity; a completed line is gone; every
/// merged request appears exactly once among the waiters.
#[test]
fn mshr_invariants() {
    let mut rng = SimRng::seed_from_u64(0xCAC3);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..200);
        let mut m = MshrFile::new(8);
        let mut next = 0u64;
        for _ in 0..n {
            let line = rng.gen_range(0u64..16);
            if rng.gen_bool(0.5) {
                let _ = m.complete(LineAddr::new(line));
                assert!(!m.contains(LineAddr::new(line)));
            } else {
                next += 1;
                let _ = m.alloc(
                    LineAddr::new(line),
                    ReqId(next),
                    next.is_multiple_of(3),
                    next,
                );
            }
            assert!(m.len() <= 8);
            assert_eq!(m.is_full(), m.len() == 8);
        }
    }
}

/// Merging preserves the primary and collects waiters in order.
#[test]
fn mshr_merge_collects_waiters() {
    for n in 1usize..20 {
        let mut m = MshrFile::new(4);
        let line = LineAddr::new(7);
        m.alloc(line, ReqId(0), false, 0).expect("first alloc");
        for i in 1..=n as u64 {
            m.alloc(line, ReqId(i), false, i)
                .expect("merge always fits");
        }
        let e = m.complete(line).expect("entry");
        assert_eq!(e.primary, ReqId(0));
        assert_eq!(e.waiters.len(), n);
        for (i, w) in e.waiters.iter().enumerate() {
            assert_eq!(*w, ReqId(i as u64 + 1));
        }
    }
}
