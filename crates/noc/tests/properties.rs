//! Randomized invariant tests: the mesh delivers every accepted packet
//! exactly once, to the right node, in bounded time — for arbitrary
//! traffic drawn from the workspace's deterministic [`SimRng`].

use clip_noc::{AnalyticNoc, MeshNoc, NocModel};
use clip_types::{Fnv64, NocConfig, Priority, SimRng};

fn random_priority(rng: &mut SimRng) -> Priority {
    match rng.gen_range(0u32..3) {
        0 => Priority::Demand,
        1 => Priority::Prefetch,
        _ => Priority::Writeback,
    }
}

/// Exactly-once, right-destination delivery on the flit-level mesh.
#[test]
fn mesh_delivers_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x40C1);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..50);
        let mut noc = MeshNoc::new(&NocConfig::default());
        let mut accepted = Vec::new();
        for i in 0..n {
            let src = rng.gen_range(0usize..64);
            let dst = rng.gen_range(0usize..64);
            let flits = rng.gen_range(1usize..9);
            let prio = random_priority(&mut rng);
            if noc.send(src, dst, flits, prio, i as u64, 0).is_ok() {
                accepted.push((i as u64, dst));
            }
        }
        let mut got = Vec::new();
        for now in 0..30_000u64 {
            for d in noc.tick(now) {
                got.push((d.payload, d.node));
            }
        }
        got.sort_unstable();
        let mut expect = accepted.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// The analytic model delivers everything too, and both models agree on
/// the destination set.
#[test]
fn analytic_delivers_everything() {
    let mut rng = SimRng::seed_from_u64(0x40C2);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..60);
        let mut noc = AnalyticNoc::new(&NocConfig::default());
        for i in 0..n {
            let src = rng.gen_range(0usize..64);
            let dst = rng.gen_range(0usize..64);
            let flits = rng.gen_range(1usize..9);
            noc.send(src, dst, flits, Priority::Demand, i as u64, 0)
                .expect("small bursts stay within the backlog horizon");
        }
        let mut count = 0;
        for now in 0..30_000u64 {
            count += noc.tick(now).len();
        }
        assert_eq!(count, n);
        assert_eq!(noc.delivered_count() as usize, n);
    }
}

/// Flit-hop accounting is exact for the analytic model: manhattan
/// distance times flits, summed.
#[test]
fn analytic_flit_hops_exact() {
    let mut rng = SimRng::seed_from_u64(0x40C3);
    for _ in 0..48 {
        let n = rng.gen_range(1usize..30);
        let mut noc = AnalyticNoc::new(&NocConfig::default());
        let mut expected = 0u64;
        for i in 0..n {
            let src = rng.gen_range(0usize..64);
            let dst = rng.gen_range(0usize..64);
            let flits = rng.gen_range(1usize..9);
            let (sx, sy) = (src % 8, src / 8);
            let (dx, dy) = (dst % 8, dst / 8);
            expected += ((sx as i64 - dx as i64).unsigned_abs()
                + (sy as i64 - dy as i64).unsigned_abs())
                * flits as u64;
            noc.send(src, dst, flits, Priority::Demand, i as u64, 0)
                .expect("send");
        }
        assert_eq!(noc.flit_hops(), expected);
    }
}

/// What one pinned mesh run produced: a hash of every delivery in
/// arrival order plus the mesh's own counters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pinned {
    /// FNV-1a over `(done_cycle, node, payload)` of every delivery, in
    /// the order `tick` returned them, then the rejected-send count.
    deliveries: u64,
    flit_hops: u64,
    total_latency: u64,
    /// `avg_latency_for` of [prefetch, writeback, demand].
    avg_latency: [Option<f64>; 3],
}

/// Cycles during which the pinned traffic sends packets.
const PIN_SEND_CYCLES: u64 = 400;

/// Seeded traffic through one mesh: random packets spread over
/// [`PIN_SEND_CYCLES`] (one send attempt per eight nodes per cycle, each
/// taken with probability 0.4), plus periodic bursts from one node that
/// overflow its injection queue, then a drain to quiescence.
fn pinned_run(cfg: &NocConfig, seed: u64) -> Pinned {
    let mut rng = SimRng::seed_from_u64(seed);
    let nodes = cfg.mesh_cols * cfg.mesh_rows;
    let mut noc = MeshNoc::new(cfg);
    let mut h = Fnv64::new();
    let (mut accepted, mut rejected, mut delivered) = (0u64, 0u64, 0u64);
    let mut payload = 0u64;
    let mut send = |noc: &mut MeshNoc, rng: &mut SimRng, src: usize, now: u64| {
        let dst = rng.gen_range(0..nodes);
        let flits = rng.gen_range(1usize..9);
        let prio = random_priority(rng);
        payload += 1;
        match noc.send(src, dst, flits, prio, payload, now) {
            Ok(()) => accepted += 1,
            Err(_) => rejected += 1,
        }
    };
    let mut now = 0u64;
    loop {
        if now < PIN_SEND_CYCLES {
            for _ in 0..nodes.div_ceil(8) {
                if rng.gen_bool(0.4) {
                    let src = rng.gen_range(0..nodes);
                    send(&mut noc, &mut rng, src, now);
                }
            }
            if now % 101 == 7 {
                let src = rng.gen_range(0..nodes);
                for _ in 0..80 {
                    send(&mut noc, &mut rng, src, now);
                }
            }
        }
        for d in noc.tick(now) {
            h.write_u64(d.done_cycle)
                .write_usize(d.node)
                .write_u64(d.payload);
            delivered += 1;
        }
        now += 1;
        if now >= PIN_SEND_CYCLES && noc.next_activity(now).is_none() {
            break;
        }
        assert!(now < 200_000, "pinned run did not drain");
    }
    assert!(rejected > 0, "the bursts must hit injection back-pressure");
    assert_eq!(delivered, accepted, "every accepted packet arrives");
    assert_eq!(noc.audit(true), Ok(()));
    h.write_u64(rejected);
    Pinned {
        deliveries: h.finish(),
        flit_hops: noc.flit_hops(),
        total_latency: noc.total_latency(),
        avg_latency: [Priority::Prefetch, Priority::Writeback, Priority::Demand]
            .map(|p| noc.avg_latency_for(p)),
    }
}

/// Pins the mesh's exact cycle-by-cycle timing: arbitration order,
/// wormhole locks, credit back-pressure, priority classes and the NUMA
/// tax all show up in when each packet arrives. The constants were
/// recorded from the original `MeshNoc` before its flit loop was
/// rewritten; a faster mesh must reproduce them exactly.
#[test]
fn mesh_timing_is_pinned() {
    #[rustfmt::skip]
    const EXPECTED: &[(&str, Pinned)] = &[
        ("8x8 vc1 pa numa0", Pinned { deliveries: 0xe93eb00ad9719b6f, flit_hops: 36735, total_latency: 111509, avg_latency: [Some(68.93511450381679), Some(79.2085020242915), Some(70.26744186046511)] }),
        ("8x8 vc1 pa numa5", Pinned { deliveries: 0x7a871711e2d0d958, flit_hops: 35488, total_latency: 170184, avg_latency: [Some(114.2060606060606), Some(111.05353728489484), Some(115.29253112033194)] }),
        ("8x8 vc1 flat numa0", Pinned { deliveries: 0xa5d747191a8de5c7, flit_hops: 35043, total_latency: 124217, avg_latency: [Some(78.88823529411765), Some(83.14989733059548), Some(86.28968253968254)] }),
        ("8x8 vc1 flat numa5", Pinned { deliveries: 0x62acab1f3ef78a84, flit_hops: 34456, total_latency: 175696, avg_latency: [Some(125.18181818181819), Some(116.54382470119522), Some(114.11895161290323)] }),
        ("8x8 vc2 pa numa0", Pinned { deliveries: 0xd7af6e5cdfd8fd04, flit_hops: 34497, total_latency: 101554, avg_latency: [Some(64.94915254237289), Some(70.92569002123142), Some(63.99239543726236)] }),
        ("8x8 vc2 pa numa5", Pinned { deliveries: 0xc854608cc13eea0e, flit_hops: 36216, total_latency: 160233, avg_latency: [Some(109.99049429657795), Some(93.34724857685009), Some(103.47081712062257)] }),
        ("8x8 vc2 flat numa0", Pinned { deliveries: 0xbfad071be243de7c, flit_hops: 37033, total_latency: 114341, avg_latency: [Some(73.93207547169811), Some(74.56997971602433), Some(70.70718232044199)] }),
        ("8x8 vc2 flat numa5", Pinned { deliveries: 0x93789d959ae769be, flit_hops: 35279, total_latency: 142246, avg_latency: [Some(83.78154425612053), Some(100.810546875), Some(94.16938775510204)] }),
        ("8x8 vc6 pa numa0", Pinned { deliveries: 0xe1da3482086fa1e8, flit_hops: 37899, total_latency: 103715, avg_latency: [Some(74.84180790960453), Some(62.03522504892368), Some(63.40667976424361)] }),
        ("8x8 vc6 pa numa5", Pinned { deliveries: 0x48aa4a84bc288c73, flit_hops: 36140, total_latency: 134050, avg_latency: [Some(101.04444444444445), Some(77.34947368421052), Some(79.7481343283582)] }),
        ("8x8 vc6 flat numa0", Pinned { deliveries: 0xf6f21a2d736c1eed, flit_hops: 36530, total_latency: 100265, avg_latency: [Some(68.83888888888889), Some(65.13592233009709), Some(58.50891089108911)] }),
        ("8x8 vc6 flat numa5", Pinned { deliveries: 0x59f1195d604ea285, flit_hops: 38190, total_latency: 151017, avg_latency: [Some(97.08039215686274), Some(86.31337325349301), Some(108.49720670391062)] }),
        ("4x2 vc1 pa numa0", Pinned { deliveries: 0x1035f1c9748f1697, flit_hops: 3311, total_latency: 58406, avg_latency: [Some(137.33093525179856), Some(148.73972602739727), Some(135.3923076923077)] }),
        ("4x2 vc1 pa numa5", Pinned { deliveries: 0xe3fd094614943a77, flit_hops: 3291, total_latency: 82515, avg_latency: [Some(194.61068702290078), Some(173.25165562913907), Some(225.25547445255475)] }),
        ("4x2 vc1 flat numa0", Pinned { deliveries: 0x8a02ae2de8b40602, flit_hops: 2822, total_latency: 59129, avg_latency: [Some(161.48062015503876), Some(179.74107142857142), Some(143.04724409448818)] }),
        ("4x2 vc1 flat numa5", Pinned { deliveries: 0xd26dd402001da466, flit_hops: 2998, total_latency: 94782, avg_latency: [Some(216.63970588235293), Some(217.45962732919256), Some(234.94573643410854)] }),
        ("4x2 vc2 pa numa0", Pinned { deliveries: 0x3043482dcc5f2219, flit_hops: 3040, total_latency: 57501, avg_latency: [Some(141.1851851851852), Some(140.90277777777777), Some(140.70542635658916)] }),
        ("4x2 vc2 pa numa5", Pinned { deliveries: 0x498611cbe2ed3cee, flit_hops: 3310, total_latency: 71830, avg_latency: [Some(196.17037037037036), Some(166.01538461538462), Some(176.03703703703704)] }),
        ("4x2 vc2 flat numa0", Pinned { deliveries: 0xbe6dc9cba35bc1b4, flit_hops: 2744, total_latency: 47624, avg_latency: [Some(135.19642857142858), Some(140.77868852459017), Some(143.05607476635515)] }),
        ("4x2 vc2 flat numa5", Pinned { deliveries: 0xc334fe2b24a8c9b3, flit_hops: 2577, total_latency: 56209, avg_latency: [Some(164.12173913043478), Some(145.41739130434783), Some(142.15172413793104)] }),
        ("4x2 vc6 pa numa0", Pinned { deliveries: 0x1317e0ee4811fd43, flit_hops: 2861, total_latency: 44655, avg_latency: [Some(113.39655172413794), Some(125.52678571428571), Some(128.25)] }),
        ("4x2 vc6 pa numa5", Pinned { deliveries: 0x0bbb7bcf293de3fa, flit_hops: 3083, total_latency: 53704, avg_latency: [Some(143.16923076923078), Some(142.88235294117646), Some(129.20714285714286)] }),
        ("4x2 vc6 flat numa0", Pinned { deliveries: 0x077db18fe2f0696a, flit_hops: 2497, total_latency: 42196, avg_latency: [Some(132.50442477876106), Some(120.11926605504587), Some(119.7457627118644)] }),
        ("4x2 vc6 flat numa5", Pinned { deliveries: 0xa7b0d835d2d92fe2, flit_hops: 2826, total_latency: 59965, avg_latency: [Some(150.54700854700855), Some(161.8955223880597), Some(166.58870967741936)] }),
    ];
    let mut got = Vec::new();
    for (cols, rows) in [(8usize, 8usize), (4, 2)] {
        for vcs in [1usize, 2, 6] {
            for prefetch_aware in [true, false] {
                for numa_penalty in [0u64, 5] {
                    let cfg = NocConfig {
                        mesh_cols: cols,
                        mesh_rows: rows,
                        virtual_channels: vcs,
                        prefetch_aware,
                        numa_penalty,
                        ..NocConfig::default()
                    };
                    let label = format!(
                        "{cols}x{rows} vc{vcs} {} numa{numa_penalty}",
                        if prefetch_aware { "pa" } else { "flat" }
                    );
                    let seed = 0x91A0 + got.len() as u64;
                    got.push((label, pinned_run(&cfg, seed)));
                }
            }
        }
    }
    assert_eq!(got.len(), EXPECTED.len());
    for ((label, p), (want_label, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(label, want_label);
        assert_eq!(p, want, "{label}");
    }
}
