//! Randomized invariant tests: DRAM conservation and latency bounds,
//! driven by the workspace's deterministic [`SimRng`].

use clip_dram::{DramModel, DramSystem};
use clip_types::{DramConfig, LineAddr, Priority, ReqId, SimRng};

/// Every accepted read completes exactly once, within a bounded time,
/// regardless of the request pattern.
#[test]
fn reads_complete_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0xD2A1);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..60);
        let channels_log = rng.gen_range(0u32..4);
        let cfg = DramConfig {
            channels: 1 << channels_log,
            ..DramConfig::default()
        };
        let mut dram = DramSystem::new(&cfg);
        let mut accepted = Vec::new();
        for i in 0..n {
            let line = LineAddr::new(rng.gen_range(0u64..(1 << 20)));
            let ch = dram.channel_for(line);
            if dram
                .enqueue_read(ch, ReqId(i as u64), line, Priority::Demand, 0)
                .is_ok()
            {
                accepted.push(ReqId(i as u64));
            }
        }
        let mut done = Vec::new();
        // 60 requests * worst-case ~170 cycles each on one channel.
        for now in 0..20_000u64 {
            done.extend(dram.tick(now).into_iter().map(|c| c.id));
        }
        done.sort_unstable();
        let mut expect = accepted.clone();
        expect.sort_unstable();
        assert_eq!(done, expect);
    }
}

/// Channel mapping is total and stable; row hits never exceed total
/// commands.
#[test]
fn stats_are_consistent() {
    let mut rng = SimRng::seed_from_u64(0xD2A2);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..80);
        let mut dram = DramSystem::new(&DramConfig::default());
        for i in 0..n {
            let line = LineAddr::new(rng.gen_range(0u64..(1 << 16)));
            let ch = dram.channel_for(line);
            assert!(ch < dram.channels());
            let _ = dram.enqueue_read(ch, ReqId(i as u64), line, Priority::Demand, 0);
        }
        for now in 0..30_000u64 {
            let _ = dram.tick(now);
        }
        let s = dram.total_stats();
        assert!(s.row_hits <= s.reads + s.writes);
        assert!(dram.bandwidth_utilization(30_000) <= 1.0);
    }
}

/// Priority inversion never starves demands: with mixed traffic, all
/// demand reads finish no later than the last prefetch read.
#[test]
fn demands_never_finish_last() {
    let mut rng = SimRng::seed_from_u64(0xD2A3);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let cfg = DramConfig {
            channels: 1,
            ..DramConfig::default()
        };
        let mut dram = DramSystem::new(&cfg);
        let mut demand_ids = Vec::new();
        for i in 0..24u64 {
            let line = LineAddr::new(clip_types::hash64(seed ^ i) >> 40);
            let prio = if i % 3 == 0 {
                Priority::Demand
            } else {
                Priority::Prefetch
            };
            if prio == Priority::Demand {
                demand_ids.push(ReqId(i));
            }
            let _ = dram.enqueue_read(0, ReqId(i), line, prio, 0);
        }
        let mut finish = std::collections::HashMap::new();
        for now in 0..50_000u64 {
            for c in dram.tick(now) {
                finish.insert(c.id, c.done_cycle);
            }
        }
        let max_demand = demand_ids.iter().filter_map(|d| finish.get(d)).max();
        let max_all = finish.values().max();
        if let (Some(md), Some(ma)) = (max_demand, max_all) {
            assert!(md <= ma);
        }
    }
}
