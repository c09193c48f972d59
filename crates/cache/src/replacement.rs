//! Replacement policies: LRU, SRRIP and a sampled Mockingjay reuse
//! predictor. Their state is indexed by `(block, way)`, one block of
//! `ways` entries per set: [`ReplacementState::new`] lays out a block per
//! set, with block `s` serving set `s`, and [`ReplacementState::push_block`]
//! appends one, so a [`Cache`](crate::Cache) adds a set's block at its
//! first fill. No policy reads which set a block serves. The cache calls
//! [`ReplacementState::victim`] only for a block whose ways are all filled.
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
        /// Last-touch time per (block, way).
        stamp: Vec<Cycle>,
        ways: usize,
    },
    /// 2-bit static RRIP.
    Srrip {
        /// Re-reference prediction value per (block, way).
        rrpv: Vec<u8>,
        ways: usize,
    },
    /// Sampled Mockingjay: ETA-based Belady mimic.
    Mockingjay {
        /// Predicted next access time per (block, way).
        eta: Vec<Cycle>,
        /// Last access time per (block, way), to learn reuse intervals.
        last: Vec<Cycle>,
        /// Sampled reuse-interval predictor, direct-mapped by line hash:
        /// (tag, predicted interval).
        predictor: Vec<(u32, u32)>,
        ways: usize,
    },
}

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;
const MJ_PREDICTOR_SIZE: usize = 2048;
const MJ_DEFAULT_INTERVAL: u32 = 1 << 14;

impl ReplacementState {
    /// Creates state for a `sets` x `ways` cache, one block per set.
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
        }
    }

    /// Appends one block of `ways` entries, initialized as [`Self::new`]
    /// initializes each of its blocks; its number is the count of blocks
    /// before the call.
    pub fn push_block(&mut self) {
        match self {
            ReplacementState::Lru { stamp, ways } => stamp.resize(stamp.len() + *ways, 0),
            ReplacementState::Srrip { rrpv, ways } => rrpv.resize(rrpv.len() + *ways, RRPV_MAX),
            ReplacementState::Mockingjay {
                eta, last, ways, ..
            } => {
                eta.resize(eta.len() + *ways, 0);
                last.resize(last.len() + *ways, 0);
            }
        }
    }

    #[inline]
    fn idx(block: usize, way: usize, ways: usize) -> usize {
        block * ways + way
    }

    /// Notifies the policy of a hit at (block, way).
    pub fn on_hit(&mut self, block: usize, way: usize, now: Cycle, line: LineAddr) {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                stamp[Self::idx(block, way, *ways)] = now;
            }
            ReplacementState::Srrip { rrpv, ways } => {
                rrpv[Self::idx(block, way, *ways)] = 0;
            }
            ReplacementState::Mockingjay {
                eta,
                last,
                predictor,
                ways,
            } => {
                let i = Self::idx(block, way, *ways);
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
        }
    }

    /// Notifies the policy of a fill at (block, way).
    pub fn on_fill(
        &mut self,
        block: usize,
        way: usize,
        now: Cycle,
        line: LineAddr,
        prefetched: bool,
    ) {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                stamp[Self::idx(block, way, *ways)] = now;
            }
            ReplacementState::Srrip { rrpv, ways } => {
                // Prefetch fills are inserted with a distant re-reference
                // prediction so inaccurate prefetches die quickly.
                rrpv[Self::idx(block, way, *ways)] =
                    if prefetched { RRPV_MAX } else { RRPV_INSERT };
            }
            ReplacementState::Mockingjay {
                eta,
                last,
                predictor,
                ways,
            } => {
                let i = Self::idx(block, way, *ways);
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
        }
    }

    /// Chooses a victim way within `block`. All ways are assumed valid (the
    /// cache fills invalid ways first).
    pub fn victim(&mut self, block: usize, now: Cycle) -> usize {
        match self {
            ReplacementState::Lru { stamp, ways } => {
                let w = *ways;
                (0..w)
                    .min_by_key(|&way| stamp[Self::idx(block, way, w)])
                    .expect("at least one way")
            }
            ReplacementState::Srrip { rrpv, ways } => {
                let w = *ways;
                loop {
                    if let Some(way) =
                        (0..w).find(|&way| rrpv[Self::idx(block, way, w)] >= RRPV_MAX)
                    {
                        return way;
                    }
                    for way in 0..w {
                        rrpv[Self::idx(block, way, w)] += 1;
                    }
                }
            }
            ReplacementState::Mockingjay { eta, ways, .. } => {
                let w = *ways;
                // Victimise the line with the furthest estimated next use;
                // lines whose ETA has passed (overdue, likely dead) win.
                (0..w)
                    .max_by_key(|&way| {
                        let e = eta[Self::idx(block, way, w)];
                        if e < now {
                            // Dead line: strongly preferred victim.
                            u64::MAX - (now - e).min(u64::MAX / 2)
                        } else {
                            e - now
                        }
                    })
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
