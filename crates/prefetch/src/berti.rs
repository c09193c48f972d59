//! Berti: the accurate local-delta L1 prefetcher (Navarro-Torres et al.,
//! MICRO '22) — the paper's primary host prefetcher.
//!
//! Berti learns, per load IP, the set of *timely local deltas*: distances
//! `d` such that when the IP touches line `x`, it touched `x - d` long
//! enough ago that a prefetch issued then would have arrived in time. Each
//! delta's *local coverage* (fraction of the IP's accesses it would have
//! covered) is measured with per-delta counters over a rolling window, and
//! only deltas above a coverage watermark are used: high-coverage deltas
//! fill to L1, mid-coverage deltas to L2. This is what gives Berti its
//! >82.9% accuracy in the paper.

use crate::{degree_for_level, AccessInfo, PrefetchCandidate, Prefetcher};
use clip_types::{Cycle, LineAddr};

const IP_TABLE: usize = 64;
const HISTORY_DEPTH: usize = 16;
const MAX_DELTAS: usize = 8;
const MAX_DELTA_MAG: i64 = 512;
/// Coverage watermark for L1 fills.
const HIGH_WATERMARK: f64 = 0.60;
/// Coverage watermark for L2 fills.
const LOW_WATERMARK: f64 = 0.40;
/// Rolling-window size before counters are halved.
const WINDOW: u32 = 64;
/// Tracked in-flight misses for latency estimation.
const LATENCY_RING: usize = 16;

#[derive(Debug, Clone, Copy, Default)]
struct DeltaStat {
    delta: i64,
    /// Occurrences where the delta matched *and* a prefetch issued at the
    /// earlier access would have arrived in time.
    timely: u32,
    /// Occurrences where the delta matched at all (timely or not).
    hits: u32,
    total: u32,
}

#[derive(Debug, Clone)]
struct IpEntry {
    tag: u64,
    history: [(u64, Cycle); HISTORY_DEPTH],
    hist_len: usize,
    hist_head: usize,
    deltas: Vec<DeltaStat>,
    accesses: u32,
}

impl IpEntry {
    fn new(tag: u64) -> Self {
        IpEntry {
            tag,
            history: [(0, 0); HISTORY_DEPTH],
            hist_len: 0,
            hist_head: 0,
            deltas: Vec::with_capacity(MAX_DELTAS),
            accesses: 0,
        }
    }

    fn push_history(&mut self, line: u64, cycle: Cycle) {
        self.history[self.hist_head] = (line, cycle);
        self.hist_head = (self.hist_head + 1) % HISTORY_DEPTH;
        self.hist_len = (self.hist_len + 1).min(HISTORY_DEPTH);
    }
}

/// The Berti prefetcher. See the module docs.
///
/// # Examples
///
/// ```
/// use clip_prefetch::{AccessInfo, Berti, Prefetcher};
/// use clip_types::{Addr, Ip};
///
/// let mut berti = Berti::new();
/// let mut out = Vec::new();
/// // A slow unit-stride stream: the delta becomes timely and covered.
/// for i in 0..100u64 {
///     out.clear();
///     berti.on_access(
///         &AccessInfo {
///             ip: Ip::new(0x400),
///             addr: Addr::new((1000 + i) * 64),
///             hit: false,
///             is_store: false,
///             cycle: i * 300,
///         },
///         &mut out,
///     );
/// }
/// assert!(!out.is_empty(), "learned stream prefetches ahead");
/// ```
#[derive(Debug, Clone)]
pub struct Berti {
    table: Vec<Option<IpEntry>>,
    /// Recent demand misses awaiting fill, for latency measurement.
    inflight: [(u64, Cycle); LATENCY_RING],
    inflight_head: usize,
    /// EWMA of observed miss latency in cycles.
    latency_est: f64,
    degree: usize,
}

impl Berti {
    /// Creates a Berti prefetcher with the tuning used in the paper's
    /// 64-core experiments (degree 4 at level 3).
    pub fn new() -> Self {
        Berti {
            table: (0..IP_TABLE).map(|_| None).collect(),
            inflight: [(u64::MAX, 0); LATENCY_RING],
            inflight_head: 0,
            latency_est: 100.0,
            degree: 4,
        }
    }

    /// Current miss-latency estimate (cycles), used for timeliness.
    pub fn latency_estimate(&self) -> f64 {
        self.latency_est
    }

    fn slot(ip: u64) -> usize {
        (clip_types::hash64(ip) as usize) % IP_TABLE
    }
}

impl Default for Berti {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Berti {
    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        let line = info.addr.line().raw();
        let ip = info.ip.raw();
        let slot = Self::slot(ip);

        if !info.hit {
            self.inflight[self.inflight_head] = (line, info.cycle);
            self.inflight_head = (self.inflight_head + 1) % LATENCY_RING;
        }

        let latency = self.latency_est as u64;
        let entry = match &mut self.table[slot] {
            Some(e) if e.tag == ip => e,
            e => {
                *e = Some(IpEntry::new(ip));
                e.as_mut().expect("just assigned")
            }
        };

        entry.accesses += 1;

        // Measure which known deltas would have covered this access, and
        // discover new deltas from the history.
        let hist = &entry.history[..entry.hist_len];
        for d in entry.deltas.iter_mut() {
            d.total += 1;
            let wanted = line.wrapping_add_signed(-d.delta);
            if let Some(&(_, c)) = hist.iter().find(|(l, _)| *l == wanted) {
                d.hits += 1;
                if info.cycle.saturating_sub(c) >= latency {
                    d.timely += 1;
                }
            }
            if d.total >= WINDOW {
                d.total /= 2;
                d.timely /= 2;
                d.hits /= 2;
            }
        }
        for &(l, c) in hist {
            let delta = line as i64 - l as i64;
            if delta == 0 || delta.abs() > MAX_DELTA_MAG {
                continue;
            }
            if entry.deltas.iter().any(|d| d.delta == delta) {
                continue;
            }
            let timely = u32::from(info.cycle.saturating_sub(c) >= latency);
            if entry.deltas.len() < MAX_DELTAS {
                entry.deltas.push(DeltaStat {
                    delta,
                    timely,
                    hits: 1,
                    total: 1,
                });
            } else if let Some(worst) = entry.deltas.iter_mut().min_by(|a, b| {
                let ca = a.hits as f64 / a.total.max(1) as f64;
                let cb = b.hits as f64 / b.total.max(1) as f64;
                ca.partial_cmp(&cb).expect("coverage is finite")
            }) {
                if (worst.hits as f64 / worst.total.max(1) as f64) < 0.1 {
                    *worst = DeltaStat {
                        delta,
                        timely,
                        hits: 1,
                        total: 1,
                    };
                }
            }
        }

        entry.push_history(line, info.cycle);

        // Issue from the best-coverage deltas: timely coverage above the
        // high watermark fills to L1; otherwise plain coverage above the
        // low watermark fills to L2 (Berti's fill-level watermarks).
        let mut ranked = [DeltaStat::default(); MAX_DELTAS];
        let mut n = 0;
        for d in entry.deltas.iter().filter(|d| d.total >= 4) {
            ranked[n] = *d;
            n += 1;
        }
        let ranked = &mut ranked[..n];
        ranked.sort_by(|a, b| {
            let ka = (a.timely as f64 * 2.0 + a.hits as f64) / a.total as f64;
            let kb = (b.timely as f64 * 2.0 + b.hits as f64) / b.total as f64;
            kb.partial_cmp(&ka).expect("coverage is finite")
        });
        let mut issued = 0;
        #[allow(clippy::explicit_counter_loop)]
        // `issued` counts emitted candidates, not iterations
        for d in ranked.iter() {
            if issued >= self.degree {
                break;
            }
            let cov_timely = d.timely as f64 / d.total as f64;
            let cov_all = d.hits as f64 / d.total as f64;
            if cov_all < LOW_WATERMARK {
                break;
            }
            let target = line.wrapping_add_signed(d.delta);
            out.push(PrefetchCandidate {
                line: LineAddr::new(target),
                trigger_ip: info.ip,
                fill_l1: cov_timely >= HIGH_WATERMARK,
                engine: 0,
            });
            issued += 1;
        }
    }

    fn on_fill(&mut self, line: LineAddr, cycle: Cycle) {
        let raw = line.raw();
        for (l, c) in self.inflight.iter_mut() {
            if *l == raw {
                let lat = cycle.saturating_sub(*c) as f64;
                self.latency_est = 0.9 * self.latency_est + 0.1 * lat;
                *l = u64::MAX;
                break;
            }
        }
    }

    fn set_level(&mut self, level: u8) {
        self.degree = degree_for_level(4, level);
    }

    fn name(&self) -> &'static str {
        "Berti"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_types::{Addr, Ip};

    fn access(ip: u64, line: u64, cycle: Cycle) -> AccessInfo {
        AccessInfo {
            ip: Ip::new(ip),
            addr: Addr::new(line * 64),
            hit: false,
            is_store: false,
            cycle,
        }
    }

    #[test]
    fn learns_unit_delta_with_l1_fill() {
        let mut pf = Berti::new();
        let mut out = Vec::new();
        for i in 0..100u64 {
            out.clear();
            // Accesses far apart in time: timely.
            pf.on_access(&access(0x400, 1000 + i, i * 300), &mut out);
        }
        assert!(!out.is_empty(), "unit stream must produce prefetches");
        assert!(out.iter().any(|c| c.fill_l1), "high coverage → L1 fill");
        assert_eq!(out[0].line, LineAddr::new(1000 + 99 + 1));
    }

    #[test]
    fn untimely_deltas_demote_to_l2_fill() {
        let mut pf = Berti::new();
        let mut out = Vec::new();
        // Accesses back-to-back (1 cycle apart): never timely vs ~100-cycle
        // latency estimate, so nothing may claim an L1 fill.
        for i in 0..200u64 {
            out.clear();
            pf.on_access(&access(0x400, 2000 + i, i), &mut out);
        }
        assert!(
            out.iter().all(|c| !c.fill_l1),
            "deltas that cannot be timely must not fill the L1: {out:?}"
        );
        assert!(
            !out.is_empty(),
            "high-coverage non-timely deltas still prefetch toward the L2"
        );
    }

    #[test]
    fn random_stream_stays_quiet() {
        let mut pf = Berti::new();
        let mut out = Vec::new();
        let mut total = 0;
        for i in 0..2000u64 {
            out.clear();
            pf.on_access(
                &access(0x400, clip_types::hash64(i) % (1 << 24), i * 200),
                &mut out,
            );
            total += out.len();
        }
        assert!(total < 200, "near-zero coverage on random: {total}");
    }

    #[test]
    fn latency_estimate_adapts() {
        let mut pf = Berti::new();
        let mut out = Vec::new();
        let start = pf.latency_estimate();
        for i in 0..50u64 {
            out.clear();
            pf.on_access(&access(0x500, 5000 + i, i * 1000), &mut out);
            // Fill arrives 400 cycles later.
            pf.on_fill(LineAddr::new(5000 + i), i * 1000 + 400);
        }
        assert!(
            pf.latency_estimate() > start,
            "estimate must move toward 400: {}",
            pf.latency_estimate()
        );
    }

    #[test]
    fn multiple_ips_do_not_interfere() {
        let mut pf = Berti::new();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..80u64 {
            out_a.clear();
            out_b.clear();
            pf.on_access(&access(0xA00, 10_000 + i, i * 300), &mut out_a);
            pf.on_access(&access(0xB00, 90_000 + i * 4, i * 300 + 150), &mut out_b);
        }
        assert!(!out_a.is_empty());
        assert!(!out_b.is_empty());
        // The stride-4 IP prefetches multiples of 4 away.
        assert!(out_b
            .iter()
            .all(|c| (c.line.raw() as i64 - (90_000 + 79 * 4) as i64) % 4 == 0));
    }

    #[test]
    fn degree_bounds_candidates() {
        let mut pf = Berti::new();
        pf.set_level(1); // degree 1
        let mut out = Vec::new();
        for i in 0..100u64 {
            out.clear();
            pf.on_access(&access(0x400, 1000 + i, i * 300), &mut out);
        }
        assert!(out.len() <= 1);
    }
}
