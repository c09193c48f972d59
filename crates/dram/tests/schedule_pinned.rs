//! Pins the DRAM controllers' exact schedule: which read completes on
//! which cycle, what the quiescence hook answers on every cycle, and the
//! final statistics and full-state fingerprint, over seeded enqueue
//! streams driven through the [`DramModel`] trait the simulator uses.
//!
//! The constants were recorded from the controller that re-derived every
//! queued entry's bank on each scheduling pass; a controller that indexes
//! its queues by bank must reproduce them exactly.

use clip_dram::{DramModel, DramSystem, HbmDram};
use clip_types::{Cycle, DramConfig, DramKind, Fnv64, LineAddr, Priority, ReqId, SimRng};

/// Simulated cycles per stream.
const HORIZON: Cycle = 6_000;
/// Arrival pattern period: the first `BUSY` cycles of each period enqueue,
/// the rest are an idle gap, crossed wheel-style.
const PERIOD: Cycle = 2_000;
const BUSY: Cycle = 1_400;

/// Per-cycle, per-channel arrival probabilities of one stream.
#[derive(Clone, Copy)]
struct Traffic {
    label: &'static str,
    read: f64,
    write: f64,
}

const READ_HEAVY: Traffic = Traffic {
    label: "read-heavy",
    read: 0.2,
    write: 0.02,
};
const WRITE_DRAIN_HEAVY: Traffic = Traffic {
    label: "write-drain-heavy",
    read: 0.04,
    write: 0.05,
};

/// The three backends under test, each with `channels` channels.
fn backends(channels: usize) -> Vec<(&'static str, Box<dyn DramModel>)> {
    let ddr4 = DramConfig {
        channels,
        ..DramConfig::default()
    };
    // A short all-bank refresh interval, so several refreshes land inside
    // the horizon.
    let ddr4_refresh = DramConfig {
        t_refi: 1_500,
        t_rfc: 300,
        ..ddr4
    };
    let hbm_refresh = DramConfig {
        channels,
        t_refi: DramKind::Hbm.t_refi(),
        t_rfc: DramKind::Hbm.t_rfc(),
        ..DramConfig::preset(DramKind::Hbm)
    };
    vec![
        ("ddr4", Box::new(DramSystem::new(&ddr4))),
        ("ddr4+refresh", Box::new(DramSystem::new(&ddr4_refresh))),
        ("hbm+refresh", Box::new(HbmDram::new(&hbm_refresh))),
    ]
}

/// A line from a mix of a few sequential streams (row hits, bank reuse)
/// and uniform random lines (row conflicts).
fn next_line(rng: &mut SimRng, streams: &mut [u64; 4]) -> LineAddr {
    if rng.gen_bool(0.5) {
        let s = rng.gen_range(0usize..streams.len());
        streams[s] += 1;
        LineAddr::new(streams[s])
    } else {
        LineAddr::new(rng.gen_range(0u64..(1 << 20)))
    }
}

fn priority(rng: &mut SimRng) -> Priority {
    match rng.gen_range(0u32..10) {
        0..=4 => Priority::Demand,
        5..=8 => Priority::Prefetch,
        _ => Priority::Writeback,
    }
}

/// Drives one stream and folds everything observable into a hash:
/// enqueue refusals, every `next_activity` answer, every tick's
/// completions in order, then the final statistics and fingerprints.
/// Idle gaps are crossed wheel-style (skip to the reported activity,
/// settle with `skip_idle`), so the quiescence answers are load-bearing.
/// Returns the hash and the total reads and writes served.
fn run(dram: &mut dyn DramModel, traffic: Traffic, seed: u64) -> (u64, u64, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut streams = [0u64, 1 << 16, 2 << 16, 3 << 16].map(|b| b + rng.gen_range(0u64..4096));
    let mut h = Fnv64::new();
    let mut next_id = 0u64;
    let mut now: Cycle = 0;
    while now < HORIZON {
        let busy = now % PERIOD < BUSY;
        let arrivals = if busy { dram.channels() } else { 0 };
        for _ in 0..arrivals {
            if rng.gen_bool(traffic.read) {
                let line = next_line(&mut rng, &mut streams);
                let ch = dram.channel_for(line);
                let prio = priority(&mut rng);
                let ok = dram
                    .enqueue_read(ch, ReqId(next_id), line, prio, now)
                    .is_ok();
                h.write_bool(ok);
                next_id += 1;
            }
            if rng.gen_bool(traffic.write) {
                let line = next_line(&mut rng, &mut streams);
                h.write_bool(dram.enqueue_write(line, now).is_ok());
            }
        }
        let next = dram.next_activity(now);
        h.write_u64(next.map_or(u64::MAX, |c| c));
        if !busy {
            let gap_end = now - now % PERIOD + PERIOD;
            let to = next.map_or(gap_end, |c| c.min(gap_end));
            if to > now {
                dram.skip_idle(now, to);
                now = to;
                continue;
            }
        }
        for c in dram.tick(now) {
            h.write_u64(c.id.0)
                .write_u64(c.line.raw())
                .write_usize(c.channel)
                .write_u64(c.done_cycle);
        }
        if now.is_multiple_of(64) {
            assert_eq!(dram.audit(now, true), Ok(()), "cycle {now}");
        }
        now += 1;
    }
    for ch in 0..dram.channels() {
        let s = dram.stats(ch);
        for x in [
            s.reads,
            s.writes,
            s.row_hits,
            s.busy_cycles,
            s.total_read_queue_delay,
            s.prefetch_reads,
            s.refreshes,
        ] {
            h.write_u64(x);
        }
        h.write_usize(dram.read_queue_len(ch));
    }
    dram.fingerprint(&mut h, false);
    dram.fingerprint(&mut h, true);
    let total = dram.total_stats();
    (h.finish(), total.reads, total.writes)
}

#[test]
fn schedule_is_pinned() {
    #[rustfmt::skip]
    const EXPECTED: &[(&str, u64, u64, u64)] = &[
        ("ddr4 1ch read-heavy", 0x9afdd372ff73ebc7, 331, 76),
        ("ddr4+refresh 1ch read-heavy", 0xbc5633bbd1c95c04, 260, 76),
        ("hbm+refresh 1ch read-heavy", 0xd38a0cb593abf967, 185, 95),
        ("ddr4 1ch write-drain-heavy", 0x403bfceff3f92b52, 115, 195),
        ("ddr4+refresh 1ch write-drain-heavy", 0x4461a5bff41474e5, 118, 202),
        ("hbm+refresh 1ch write-drain-heavy", 0x62d79e78101357dd, 100, 165),
        ("ddr4 2ch read-heavy", 0x9c4d838ed0487667, 875, 133),
        ("ddr4+refresh 2ch read-heavy", 0xa1af446e21a5039b, 683, 137),
        ("hbm+refresh 2ch read-heavy", 0x77caddc7bad5cb17, 428, 154),
        ("ddr4 2ch write-drain-heavy", 0x032093b5fd877582, 194, 409),
        ("ddr4+refresh 2ch write-drain-heavy", 0x0bab260c125f61be, 154, 394),
        ("hbm+refresh 2ch write-drain-heavy", 0x1e61b6f7eba66e3d, 142, 419),
    ];
    let mut got = Vec::new();
    for channels in [1usize, 2] {
        for traffic in [READ_HEAVY, WRITE_DRAIN_HEAVY] {
            for (name, mut dram) in backends(channels) {
                let label = format!("{name} {channels}ch {}", traffic.label);
                let seed = 0x5C4E_D000 + got.len() as u64;
                let (hash, reads, writes) = run(dram.as_mut(), traffic, seed);
                got.push((label, hash, reads, writes));
            }
        }
    }
    assert_eq!(got.len(), EXPECTED.len());
    for ((label, hash, reads, writes), want) in got.iter().zip(EXPECTED) {
        assert_eq!(label, want.0);
        assert!(
            *reads > 50 && *writes > 50,
            "{label}: {reads} reads, {writes} writes"
        );
        assert_eq!(
            (*hash, *reads, *writes),
            (want.1, want.2, want.3),
            "{label}: got {hash:#018x}"
        );
    }
}
