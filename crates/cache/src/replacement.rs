//! Replacement policies: LRU, SRRIP, a sampled Mockingjay reuse predictor,
//! NRU and DIP. Their state is indexed by `(set, way)`; the cache calls
//! [`ReplacementState::victim`] only for a set whose ways are all filled.
//!
//! The paper's baseline uses SRRIP at the L2 and Mockingjay at the LLC
//! (Table 3). Mockingjay (Shah et al., HPCA '22) mimics Belady's MIN by
//! predicting each line's next-use time; we implement the practical core of
//! it — a sampled reuse-interval predictor plus estimated-time-of-access
//! (ETA) victim selection — which is what minimizes prefetch-caused
//! pollution in the paper's baseline.

use clip_types::{Cycle, LineAddr, ReplacementKind};

/// Per-cache replacement state, dispatched over [`ReplacementKind`].
#[derive(Debug, Clone)]
pub enum ReplacementState {
    /// Timestamp LRU.
    Lru {
        /// Last-touch time per (set, way).
        stamp: Vec<Cycle>,
        ways: usize,
    },
    /// 2-bit static RRIP.
    Srrip {
        /// Re-reference prediction value per (set, way).
        rrpv: Vec<u8>,
        ways: usize,
    },
    /// Sampled Mockingjay: ETA-based Belady mimic.
    Mockingjay {
        /// Predicted next access time per (set, way).
        eta: Vec<Cycle>,
        /// Last access time per (set, way), to learn reuse intervals.
        last: Vec<Cycle>,
        /// Sampled reuse-interval predictor, direct-mapped by line hash:
        /// (tag, predicted interval).
        predictor: Vec<(u32, u32)>,
        ways: usize,
    },
    /// Not-recently-used single bit.
    Nru {
        /// NRU bit per (set, way): 1 = candidate for eviction.
        bits: Vec<bool>,
        ways: usize,
    },
    /// Dynamic insertion policy (Qureshi et al., ISCA '07): LRU timestamps
    /// with set-dueling between standard MRU insertion and bimodal (mostly
    /// LRU-position) insertion; the PSEL counter picks the winner for
    /// follower sets.
    Dip {
        /// Last-touch time per (set, way).
        stamp: Vec<Cycle>,
        /// Policy-selection counter: high favours bimodal insertion.
        psel: i32,
        /// Deterministic counter driving the bimodal epsilon.
        bip_tick: u32,
        sets: usize,
        ways: usize,
    },
}

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;
/// DIP: one in `BIP_EPSILON` bimodal fills inserts at MRU.
const BIP_EPSILON: u32 = 32;
/// DIP: PSEL saturation.
const PSEL_MAX: i32 = 1024;
const DUEL_STRIDE: usize = 32;
const MJ_PREDICTOR_SIZE: usize = 2048;
const MJ_DEFAULT_INTERVAL: u32 = 1 << 14;

impl ReplacementState {
    /// Creates state for a `sets` x `ways` cache.
    pub fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        let n = sets * ways;
        match kind {
            ReplacementKind::Lru => ReplacementState::Lru {
                stamp: vec![0; n],
                ways,
            },
            ReplacementKind::Srrip => ReplacementState::Srrip {
                rrpv: vec![RRPV_MAX; n],
                ways,
            },
            ReplacementKind::Mockingjay => ReplacementState::Mockingjay {
                eta: vec![0; n],
                last: vec![0; n],
                predictor: vec![(0, MJ_DEFAULT_INTERVAL); MJ_PREDICTOR_SIZE],
                ways,
            },
            ReplacementKind::Nru => ReplacementState::Nru {
                bits: vec![true; n],
                ways,
            },
            ReplacementKind::Dip => ReplacementState::Dip {
                stamp: vec![0; n],
                psel: PSEL_MAX / 2,
                bip_tick: 0,
                sets,
                ways,
            },
        }
    }

    /// DIP set-dueling role of a set: Some(true) = LRU leader,
    /// Some(false) = BIP leader, None = follower.
    fn dip_leader(set: usize) -> Option<bool> {
        match set % DUEL_STRIDE {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    #[inline]
    fn idx(set: usize, way: usize, ways: usize) -> usize {
        set * ways + way
    }

    /// Notifies the policy of a hit at (set, way).
    pub fn on_hit(&mut self, set: usize, way: usize, now: Cycle, line: LineAddr) {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                stamp[Self::idx(set, way, *ways)] = now;
            }
            ReplacementState::Srrip { rrpv, ways } => {
                rrpv[Self::idx(set, way, *ways)] = 0;
            }
            ReplacementState::Mockingjay {
                eta,
                last,
                predictor,
                ways,
            } => {
                let i = Self::idx(set, way, *ways);
                // Learn the observed reuse interval with an EWMA.
                let interval = now.saturating_sub(last[i]).min(u32::MAX as u64) as u32;
                let h = clip_types::hash64(line.raw());
                let slot = (h as usize) % MJ_PREDICTOR_SIZE;
                let tag = (h >> 32) as u32;
                let entry = &mut predictor[slot];
                if entry.0 == tag {
                    entry.1 = (entry.1 / 2).saturating_add(interval / 2).max(1);
                } else {
                    *entry = (tag, interval.max(1));
                }
                last[i] = now;
                eta[i] = now + predictor[slot].1 as u64;
            }
            ReplacementState::Nru { bits, ways } => {
                bits[Self::idx(set, way, *ways)] = false;
            }
            ReplacementState::Dip { stamp, ways, .. } => {
                stamp[Self::idx(set, way, *ways)] = now;
            }
        }
    }

    /// Notifies the policy of a fill at (set, way).
    pub fn on_fill(
        &mut self,
        set: usize,
        way: usize,
        now: Cycle,
        line: LineAddr,
        prefetched: bool,
    ) {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                stamp[Self::idx(set, way, *ways)] = now;
            }
            ReplacementState::Srrip { rrpv, ways } => {
                // Prefetch fills are inserted with a distant re-reference
                // prediction so inaccurate prefetches die quickly.
                rrpv[Self::idx(set, way, *ways)] = if prefetched { RRPV_MAX } else { RRPV_INSERT };
            }
            ReplacementState::Mockingjay {
                eta,
                last,
                predictor,
                ways,
            } => {
                let i = Self::idx(set, way, *ways);
                let h = clip_types::hash64(line.raw());
                let slot = (h as usize) % MJ_PREDICTOR_SIZE;
                let tag = (h >> 32) as u32;
                let predicted = if predictor[slot].0 == tag {
                    predictor[slot].1 as u64
                } else {
                    MJ_DEFAULT_INTERVAL as u64
                };
                // Prefetched lines get a pessimistic (further-out) ETA so
                // pollution is bounded, mirroring Mockingjay's prefetch
                // handling.
                let scale = if prefetched { 2 } else { 1 };
                last[i] = now;
                eta[i] = now + predicted * scale;
            }
            ReplacementState::Nru { bits, ways } => {
                bits[Self::idx(set, way, *ways)] = false;
            }
            ReplacementState::Dip {
                stamp,
                psel,
                bip_tick,
                ways,
                ..
            } => {
                // A fill into a leader set is evidence of a miss there:
                // misses in the LRU leaders push PSEL toward BIP and vice
                // versa.
                match Self::dip_leader(set) {
                    Some(true) => *psel = (*psel + 1).min(PSEL_MAX),
                    Some(false) => *psel = (*psel - 1).max(0),
                    None => {}
                }
                let use_bip = match Self::dip_leader(set) {
                    Some(true) => false,
                    Some(false) => true,
                    None => *psel > PSEL_MAX / 2,
                };
                *bip_tick = bip_tick.wrapping_add(1);
                let i = Self::idx(set, way, *ways);
                if use_bip && *bip_tick % BIP_EPSILON != 0 {
                    // Bimodal: insert at LRU position (stamp 0 ages it out
                    // first) so a thrashing stream cannot flush the set.
                    stamp[i] = 0;
                } else {
                    stamp[i] = now;
                }
            }
        }
    }

    /// Chooses a victim way within `set`. All ways are assumed valid (the
    /// cache fills invalid ways first).
    pub fn victim(&mut self, set: usize, now: Cycle) -> usize {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                let w = *ways;
                (0..w)
                    .min_by_key(|&way| stamp[Self::idx(set, way, w)])
                    .expect("at least one way")
            }
            ReplacementState::Srrip { rrpv, ways } => {
                let w = *ways;
                loop {
                    if let Some(way) = (0..w).find(|&way| rrpv[Self::idx(set, way, w)] >= RRPV_MAX)
                    {
                        return way;
                    }
                    for way in 0..w {
                        rrpv[Self::idx(set, way, w)] += 1;
                    }
                }
            }
            ReplacementState::Mockingjay { eta, ways, .. } => {
                let w = *ways;
                // Victimise the line with the furthest estimated next use;
                // lines whose ETA has passed (overdue, likely dead) win.
                (0..w)
                    .max_by_key(|&way| {
                        let e = eta[Self::idx(set, way, w)];
                        if e < now {
                            // Dead line: strongly preferred victim.
                            u64::MAX - (now - e).min(u64::MAX / 2)
                        } else {
                            e - now
                        }
                    })
                    .expect("at least one way")
            }
            ReplacementState::Nru { bits, ways } => {
                let w = *ways;
                if let Some(way) = (0..w).find(|&way| bits[Self::idx(set, way, w)]) {
                    way
                } else {
                    for way in 0..w {
                        bits[Self::idx(set, way, w)] = true;
                    }
                    0
                }
            }
            ReplacementState::Dip { stamp, ways, .. } => {
                let w = *ways;
                (0..w)
                    .min_by_key(|&way| stamp[Self::idx(set, way, w)])
                    .expect("at least one way")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_oldest() {
        let mut r = ReplacementState::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way, way as u64, LineAddr::new(way as u64), false);
        }
        r.on_hit(0, 0, 10, LineAddr::new(0));
        assert_eq!(r.victim(0, 11), 1);
    }

    #[test]
    fn srrip_promotes_on_hit() {
        let mut r = ReplacementState::new(ReplacementKind::Srrip, 1, 2);
        r.on_fill(0, 0, 0, LineAddr::new(0), false);
        r.on_fill(0, 1, 0, LineAddr::new(1), false);
        r.on_hit(0, 0, 1, LineAddr::new(0));
        // way1 still at insert RRPV, way0 at 0 → way1 ages out first.
        assert_eq!(r.victim(0, 2), 1);
    }

    #[test]
    fn srrip_prefetch_inserted_distant() {
        let mut r = ReplacementState::new(ReplacementKind::Srrip, 1, 2);
        r.on_fill(0, 0, 0, LineAddr::new(0), false); // demand
        r.on_fill(0, 1, 0, LineAddr::new(1), true); // prefetch
        assert_eq!(r.victim(0, 1), 1, "untouched prefetch evicted first");
    }

    #[test]
    fn nru_round_robins() {
        let mut r = ReplacementState::new(ReplacementKind::Nru, 1, 2);
        r.on_fill(0, 0, 0, LineAddr::new(0), false);
        r.on_fill(0, 1, 0, LineAddr::new(1), false);
        // All recently used → reset, victim 0.
        assert_eq!(r.victim(0, 1), 0);
        // Now way 0 was reset to candidate=... after reset all true, way0
        // returned; next victim without touches is still a candidate.
        let v2 = r.victim(0, 2);
        assert!(v2 < 2);
    }

    #[test]
    fn mockingjay_learns_reuse_and_keeps_hot_lines() {
        let mut r = ReplacementState::new(ReplacementKind::Mockingjay, 1, 2);
        let hot = LineAddr::new(100);
        let cold = LineAddr::new(200);
        r.on_fill(0, 0, 0, hot, false);
        r.on_fill(0, 1, 5, cold, false);
        // Touch the hot line frequently: short learned interval → near ETA.
        for t in 1..20u64 {
            r.on_hit(0, 0, t * 10, hot);
        }
        // Victim should be the cold line (way 1): its ETA is default
        // (far) but it is overdue... hot line's ETA is near-future.
        let v = r.victim(0, 200);
        assert_eq!(v, 1);
    }

    #[test]
    fn dip_resists_thrashing_better_than_lru() {
        // A cyclic working set slightly larger than the cache: pure LRU
        // gets zero hits; DIP's bimodal insertion retains a subset.
        let hits = |kind: ReplacementKind| {
            let cfg = clip_types::CacheLevelConfig {
                capacity_bytes: 64 * 64, // 64 lines
                ways: 4,
                latency: 1,
                mshrs: 4,
                replacement: kind,
            };
            let mut c = crate::Cache::new(&cfg);
            let mut h = 0u64;
            for round in 0..60u64 {
                for i in 0..96u64 {
                    let line = LineAddr::new(i);
                    if c.lookup(line, false, round * 100 + i).is_hit() {
                        h += 1;
                    } else {
                        c.fill(line, false, false, round * 100 + i);
                    }
                }
            }
            h
        };
        let lru = hits(ReplacementKind::Lru);
        let dip = hits(ReplacementKind::Dip);
        assert!(
            dip > lru,
            "DIP must beat LRU on a thrashing loop: {dip} vs {lru}"
        );
    }

    #[test]
    fn dip_bounded_and_victimizes() {
        let mut r = ReplacementState::new(ReplacementKind::Dip, 64, 4);
        for set in 0..64 {
            for way in 0..4 {
                r.on_fill(
                    set,
                    way,
                    (set * 4 + way) as u64,
                    LineAddr::new(way as u64),
                    false,
                );
            }
            let v = r.victim(set, 1_000);
            assert!(v < 4);
        }
    }

    #[test]
    fn srrip_terminates_even_when_all_promoted() {
        let mut r = ReplacementState::new(ReplacementKind::Srrip, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way, 0, LineAddr::new(way as u64), false);
            r.on_hit(0, way, 1, LineAddr::new(way as u64));
        }
        let v = r.victim(0, 2);
        assert!(v < 4);
    }
}
