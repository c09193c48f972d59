//! Delta-based reporting: counters are snapshotted at the end of warmup
//! and the measurement-phase report is the difference. Also holds the
//! timeline sampler.

use crate::result::{ClipReport, LatencyReport, MissReport, PrefetchReport, SimResult};
use crate::system::System;
use crate::tile::Tile;
use clip_crit::EvalCounts;
use clip_dram::DramModel;
use clip_stats::energy::EnergyCounts;
use clip_types::Cycle;

/// Snapshot of counters at the end of warmup, for delta-based reporting.
#[derive(Default, Clone)]
pub(crate) struct Snapshot {
    pub(crate) lat: Vec<LatencyReport>,
    cand: Vec<u64>,
    issued: Vec<u64>,
    useful: Vec<u64>,
    useless: Vec<u64>,
    late: Vec<u64>,
    l1_acc: Vec<u64>,
    l1_miss: Vec<u64>,
    l2_acc: Vec<u64>,
    l2_miss: Vec<u64>,
    llc_acc: u64,
    llc_miss: u64,
    dram_reads: u64,
    dram_writes: u64,
    dram_row_hits: u64,
    noc_hops: u64,
    pub(crate) cycle: Cycle,
    clip_eval: Vec<EvalCounts>,
    l1_fills: Vec<u64>,
    l2_fills: Vec<u64>,
    llc_fills: u64,
}

impl System {
    /// Enables timeline sampling every `interval` cycles (0 disables).
    pub fn set_timeline_interval(&mut self, interval: Cycle) {
        self.timeline_interval = interval;
    }

    pub(crate) fn timeline_totals(&self) -> (u64, u64, u64) {
        let retired: u64 = self
            .tiles
            .iter()
            .map(|t| t.core.as_ref().expect("core present").retired())
            .sum();
        let ds = self.engine.dram.total_stats();
        let pf: u64 = self.tiles.iter().map(|t| t.pf_issued).sum();
        (retired, ds.reads + ds.writes, pf)
    }

    pub(crate) fn sample_timeline(&mut self, now: Cycle) {
        let (retired, transfers, prefetches) = self.timeline_totals();
        let interval = self.timeline_interval;
        let d_transfers = transfers - self.tl_prev.1;
        let peak =
            self.cfg.dram.channels as f64 * interval as f64 / self.cfg.dram.burst_cycles as f64;
        self.timeline.push(crate::result::TimelinePoint {
            cycle: now.saturating_sub(self.tl_start),
            retired: retired - self.tl_prev.0,
            dram_transfers: d_transfers,
            bw_util: if peak > 0.0 {
                (d_transfers as f64 / peak).min(1.0)
            } else {
                0.0
            },
            prefetches: prefetches - self.tl_prev.2,
        });
        self.tl_prev = (retired, transfers, prefetches);
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            lat: self.tiles.iter().map(|t| t.lat).collect(),
            cand: self.tiles.iter().map(|t| t.pf_candidates).collect(),
            issued: self.tiles.iter().map(|t| t.pf_issued).collect(),
            useful: self.tiles.iter().map(|t| t.useful()).collect(),
            useless: self.tiles.iter().map(|t| t.useless()).collect(),
            late: self.tiles.iter().map(|t| t.late()).collect(),
            l1_acc: self
                .tiles
                .iter()
                .map(|t| t.l1d.stats().demand_accesses)
                .collect(),
            l1_miss: self
                .tiles
                .iter()
                .map(|t| t.l1d.stats().demand_misses())
                .collect(),
            l2_acc: self
                .tiles
                .iter()
                .map(|t| t.l2.stats().demand_accesses)
                .collect(),
            l2_miss: self
                .tiles
                .iter()
                .map(|t| t.l2.stats().demand_misses())
                .collect(),
            llc_acc: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().demand_accesses)
                .sum(),
            llc_miss: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().demand_misses())
                .sum(),
            dram_reads: self.engine.dram.total_stats().reads,
            dram_writes: self.engine.dram.total_stats().writes,
            dram_row_hits: self.engine.dram.total_stats().row_hits,
            noc_hops: self.engine.noc.flit_hops(),
            cycle: self.engine.now,
            clip_eval: self.tiles.iter().map(|t| t.clip_eval).collect(),
            l1_fills: self.tiles.iter().map(|t| t.l1d.stats().fills).collect(),
            l2_fills: self.tiles.iter().map(|t| t.l2.stats().fills).collect(),
            llc_fills: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().fills)
                .sum(),
        }
    }

    pub(crate) fn assemble(&mut self, snap: Snapshot, measure: u64) -> SimResult {
        let end_cycle = self.engine.now;
        let elapsed = end_cycle.saturating_sub(snap.cycle).max(1);
        let per_core_ipc: Vec<f64> = self
            .tiles
            .iter()
            .map(|t| {
                match t.finish_cycle {
                    Some(f) if f > snap.cycle => measure as f64 / (f - snap.cycle) as f64,
                    _ => {
                        // Unfinished: partial progress.
                        let retired = t.core.as_ref().expect("core present").retired();
                        (retired - t.warmup_retired) as f64 / elapsed as f64
                    }
                }
            })
            .collect();

        let mut lat = LatencyReport::default();
        for (i, t) in self.tiles.iter().enumerate() {
            let mut d = t.lat;
            sub_lat(&mut d, &snap.lat[i]);
            lat.l1_miss.merge(&d.l1_miss);
            lat.by_l2.merge(&d.by_l2);
            lat.by_llc.merge(&d.by_llc);
            lat.by_dram.merge(&d.by_dram);
        }

        let sum = |f: &dyn Fn(&Tile) -> u64, s: &[u64]| -> u64 {
            self.tiles
                .iter()
                .zip(s)
                .map(|(t, &b)| f(t).saturating_sub(b))
                .sum()
        };
        let prefetch = PrefetchReport {
            candidates: sum(&|t| t.pf_candidates, &snap.cand),
            issued: sum(&|t| t.pf_issued, &snap.issued),
            useful: sum(&|t: &Tile| t.useful(), &snap.useful),
            useless: sum(&|t: &Tile| t.useless(), &snap.useless),
            late: sum(&|t: &Tile| t.late(), &snap.late),
        };
        let misses = MissReport {
            l1_accesses: sum(&|t| t.l1d.stats().demand_accesses, &snap.l1_acc),
            l1_misses: sum(&|t| t.l1d.stats().demand_misses(), &snap.l1_miss),
            l2_accesses: sum(&|t| t.l2.stats().demand_accesses, &snap.l2_acc),
            l2_misses: sum(&|t| t.l2.stats().demand_misses(), &snap.l2_miss),
            llc_accesses: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().demand_accesses)
                .sum::<u64>()
                .saturating_sub(snap.llc_acc),
            llc_misses: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().demand_misses())
                .sum::<u64>()
                .saturating_sub(snap.llc_miss),
        };

        let ds = self.engine.dram.total_stats();
        let dram_transfers = (ds.reads + ds.writes) - (snap.dram_reads + snap.dram_writes);
        let dram_row_hits = ds.row_hits - snap.dram_row_hits;
        let peak_transfers =
            self.cfg.dram.channels as f64 * elapsed as f64 / self.cfg.dram.burst_cycles as f64;
        let mut max_ch = 0.0f64;
        for ch in 0..self.cfg.dram.channels {
            let s = self.engine.dram.stats(ch);
            let u =
                (s.reads + s.writes) as f64 / (elapsed as f64 / self.cfg.dram.burst_cycles as f64);
            max_ch = max_ch.max(u);
        }

        let clip = if self.scheme.clip.is_some() {
            let mut eval = EvalCounts::default();
            let mut crit_ips = 0usize;
            let mut dynamic = 0usize;
            let mut with_crit = 0usize;
            for (i, t) in self.tiles.iter().enumerate() {
                let mut e = t.clip_eval;
                sub_eval(&mut e, &snap.clip_eval[i]);
                eval.true_positive += e.true_positive;
                eval.false_positive += e.false_positive;
                eval.false_negative += e.false_negative;
                eval.true_negative += e.true_negative;
                crit_ips += t.clip.as_ref().expect("clip present").critical_ip_count();
                for &(stalls, nonstalls, _) in t.ip_behavior.values() {
                    if stalls > 0 {
                        with_crit += 1;
                        if nonstalls > 0 {
                            dynamic += 1;
                        }
                    }
                }
            }
            let n = self.tiles.len() as f64;
            let dyn_frac = if with_crit == 0 {
                0.0
            } else {
                dynamic as f64 / with_crit as f64
            };
            // IP-set granularity (Figure 13/14): predicted vs actual
            // critical IP sets.
            let mut ip_eval = EvalCounts::default();
            for t in &self.tiles {
                for &(stalls, _, predicted) in t.ip_behavior.values() {
                    let actually = stalls >= clip_crit::evaluate::IP_CRITICAL_STALLS;
                    match (predicted, actually) {
                        (true, true) => ip_eval.true_positive += 1,
                        (true, false) => ip_eval.false_positive += 1,
                        (false, true) => ip_eval.false_negative += 1,
                        (false, false) => ip_eval.true_negative += 1,
                    }
                }
            }
            Some(ClipReport {
                stats: {
                    let mut s = clip_core::ClipStats::default();
                    for t in &self.tiles {
                        let cs = t.clip.as_ref().expect("clip present").stats();
                        s.candidates += cs.candidates;
                        s.allowed_critical += cs.allowed_critical;
                        s.allowed_explore += cs.allowed_explore;
                        s.dropped_not_critical += cs.dropped_not_critical;
                        s.dropped_predicted += cs.dropped_predicted;
                        s.dropped_low_accuracy += cs.dropped_low_accuracy;
                        s.dropped_phase += cs.dropped_phase;
                        s.phase_changes += cs.phase_changes;
                        s.windows += cs.windows;
                    }
                    s
                },
                eval,
                ip_eval,
                critical_ips: crit_ips as f64 / n,
                dynamic_ips: crit_ips as f64 * dyn_frac / n,
                engines: {
                    let mut engines =
                        [crate::result::ClipEngineReport::default(); clip_types::MAX_PF_ENGINES];
                    for t in &self.tiles {
                        let clip = t.clip.as_ref().expect("clip present");
                        if clip.num_engines() == 0 {
                            continue;
                        }
                        for (slot, s) in engines.iter_mut().zip(clip.engine_stats()) {
                            slot.issued += s.issued;
                            slot.hits += s.hits;
                            slot.min_level = if slot.min_level == 0 {
                                s.level
                            } else {
                                slot.min_level.min(s.level)
                            };
                        }
                    }
                    engines
                },
                num_engines: self
                    .tiles
                    .first()
                    .and_then(|t| t.clip.as_ref())
                    .map_or(0, |c| c.num_engines()),
            })
        } else {
            None
        };

        let baseline_evals = if self.scheme.evaluate_baselines {
            let mut out: Vec<(&'static str, EvalCounts)> = Vec::new();
            for t in &self.tiles {
                for ev in &t.evaluators {
                    let c = ev.ip_counts();
                    if let Some(slot) = out.iter_mut().find(|(n, _)| *n == ev.name()) {
                        slot.1.true_positive += c.true_positive;
                        slot.1.false_positive += c.false_positive;
                        slot.1.false_negative += c.false_negative;
                        slot.1.true_negative += c.true_negative;
                    } else {
                        out.push((ev.name(), c));
                    }
                }
            }
            out
        } else {
            Vec::new()
        };

        let energy = EnergyCounts {
            l1_reads: misses.l1_accesses,
            l1_writes: self
                .tiles
                .iter()
                .zip(&snap.l1_fills)
                .map(|(t, &b)| t.l1d.stats().fills - b)
                .sum(),
            l2_reads: misses.l2_accesses,
            l2_writes: self
                .tiles
                .iter()
                .zip(&snap.l2_fills)
                .map(|(t, &b)| t.l2.stats().fills - b)
                .sum(),
            llc_reads: misses.llc_accesses,
            llc_writes: self
                .engine
                .llc
                .slices()
                .iter()
                .map(|c| c.stats().fills)
                .sum::<u64>()
                - snap.llc_fills,
            dram_row_hits,
            dram_row_misses: dram_transfers - dram_row_hits,
            noc_flit_hops: self.engine.noc.flit_hops() - snap.noc_hops,
            clip_lookups: clip.map(|c| c.stats.candidates).unwrap_or(0),
        };

        let timeline = std::mem::take(&mut self.timeline);
        SimResult {
            label: String::new(),
            per_core_ipc,
            cycles: elapsed,
            latency: lat,
            prefetch,
            misses,
            dram_transfers,
            dram_row_hits,
            dram_bw_util: (dram_transfers as f64 / peak_transfers).min(1.0),
            dram_max_channel_util: max_ch.min(1.0),
            noc_flit_hops: energy.noc_flit_hops,
            clip,
            baseline_evals,
            energy,
            timeline,
            fingerprints: std::mem::take(&mut self.fingerprints),
        }
    }
}

fn sub_lat(a: &mut LatencyReport, b: &LatencyReport) {
    a.l1_miss.count -= b.l1_miss.count;
    a.l1_miss.total -= b.l1_miss.total;
    a.by_l2.count -= b.by_l2.count;
    a.by_l2.total -= b.by_l2.total;
    a.by_llc.count -= b.by_llc.count;
    a.by_llc.total -= b.by_llc.total;
    a.by_dram.count -= b.by_dram.count;
    a.by_dram.total -= b.by_dram.total;
}

fn sub_eval(a: &mut EvalCounts, b: &EvalCounts) {
    a.true_positive -= b.true_positive;
    a.false_positive -= b.false_positive;
    a.false_negative -= b.false_negative;
    a.true_negative -= b.true_negative;
}
