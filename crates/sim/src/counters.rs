//! Windowed reporting: [`System::gather`] copies every running total the
//! report reads, whole, at one instant. It runs at the end of warmup, at
//! each timeline sample and at the end of the run, and the report is the
//! difference of two gathers, so every counter covers the same window.
//! Nothing the simulation reads is reset: throttler epochs, DSPatch, the
//! governor, the audits and the fingerprints keep reading live totals.

use crate::result::{
    ClipEngineReport, ClipReport, GovernorReport, LatencyReport, MissReport, PrefetchReport,
    SimResult, TimelinePoint,
};
use crate::system::System;
use crate::tile::Tile;
use clip_cache::CacheStats;
use clip_core::{Clip, ClipStats, EngineStats, Governor};
use clip_crit::EvalCounts;
use clip_dram::{ChannelStats, DramModel};
use clip_stats::energy::EnergyCounts;
use clip_types::{Cycle, MAX_PF_ENGINES};

/// Every running total one tile reports, copied at one instant.
#[derive(Clone)]
pub(crate) struct TileCounters {
    retired: u64,
    lat: LatencyReport,
    pf_candidates: u64,
    pf_issued: u64,
    l1d: CacheStats,
    l2: CacheStats,
    /// Demands merged into an in-flight prefetch at the L1 and L2 MSHRs.
    late: u64,
    clip: ClipStats,
    engines: [EngineStats; MAX_PF_ENGINES],
    clip_eval: EvalCounts,
    bypassed: u64,
}

impl TileCounters {
    fn since(&self, earlier: &TileCounters) -> TileCounters {
        TileCounters {
            retired: self.retired - earlier.retired,
            lat: self.lat.since(&earlier.lat),
            pf_candidates: self.pf_candidates - earlier.pf_candidates,
            pf_issued: self.pf_issued - earlier.pf_issued,
            l1d: self.l1d.since(&earlier.l1d),
            l2: self.l2.since(&earlier.l2),
            late: self.late - earlier.late,
            clip: self.clip.since(&earlier.clip),
            engines: std::array::from_fn(|e| self.engines[e].since(&earlier.engines[e])),
            clip_eval: self.clip_eval.since(&earlier.clip_eval),
            bypassed: self.bypassed - earlier.bypassed,
        }
    }
}

/// Every running total the report reads, copied at one instant.
#[derive(Clone, Default)]
pub(crate) struct Counters {
    pub(crate) cycle: Cycle,
    tiles: Vec<TileCounters>,
    /// Summed over the slices.
    llc: CacheStats,
    /// One entry per DRAM channel.
    dram: Vec<ChannelStats>,
    noc_flit_hops: u64,
    /// The governor's mode switches; 0 without a governor.
    mode_switches: u64,
}

impl Counters {
    /// The counts added since `earlier`, an older gather of the same
    /// system; `cycle` becomes the window's length.
    pub(crate) fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cycle: self.cycle - earlier.cycle,
            tiles: self
                .tiles
                .iter()
                .zip(&earlier.tiles)
                .map(|(t, before)| t.since(before))
                .collect(),
            llc: self.llc.since(&earlier.llc),
            dram: self
                .dram
                .iter()
                .zip(&earlier.dram)
                .map(|(c, before)| c.since(before))
                .collect(),
            noc_flit_hops: self.noc_flit_hops - earlier.noc_flit_hops,
            mode_switches: self.mode_switches - earlier.mode_switches,
        }
    }

    /// Instructions tile `t` had retired when this gather ran.
    pub(crate) fn retired(&self, t: usize) -> u64 {
        self.tiles[t].retired
    }

    fn sum(&self, f: impl Fn(&TileCounters) -> u64) -> u64 {
        self.tiles.iter().map(f).sum()
    }

    fn dram_transfers(&self) -> u64 {
        self.dram.iter().map(|c| c.reads + c.writes).sum()
    }
}

impl Tile {
    fn counters(&self) -> TileCounters {
        let clip = self.clip.as_ref();
        TileCounters {
            retired: self.core.as_ref().expect("core present").retired(),
            lat: self.lat,
            pf_candidates: self.pf_candidates,
            pf_issued: self.pf_issued,
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            late: self.late(),
            clip: clip.map_or_else(ClipStats::default, |c| *c.stats()),
            engines: clip.map_or([EngineStats::default(); MAX_PF_ENGINES], Clip::engine_stats),
            clip_eval: self.clip_eval,
            bypassed: self.clip_bypassed,
        }
    }
}

impl System {
    /// Enables timeline sampling every `interval` cycles (0 disables).
    pub fn set_timeline_interval(&mut self, interval: Cycle) {
        self.timeline_interval = interval;
    }

    /// Copies every counter the report reads.
    pub(crate) fn gather(&self) -> Counters {
        let mut llc = CacheStats::default();
        for slice in self.engine.llc.slices() {
            llc.merge(slice.stats());
        }
        Counters {
            cycle: self.engine.now,
            tiles: self.tiles.iter().map(Tile::counters).collect(),
            llc,
            dram: (0..self.engine.dram.channels())
                .map(|ch| *self.engine.dram.stats(ch))
                .collect(),
            noc_flit_hops: self.engine.noc.flit_hops(),
            mode_switches: self.governor.as_ref().map_or(0, Governor::mode_switches),
        }
    }

    pub(crate) fn sample_timeline(&mut self, now: Cycle) {
        let counters = self.gather();
        let d = counters.since(&self.tl_prev);
        let interval = self.timeline_interval;
        let transfers = d.dram_transfers();
        let peak =
            self.cfg.dram.channels as f64 * interval as f64 / self.cfg.dram.burst_cycles as f64;
        self.timeline.push(TimelinePoint {
            cycle: now.saturating_sub(self.tl_start),
            retired: d.sum(|t| t.retired),
            dram_transfers: transfers,
            bw_util: if peak > 0.0 {
                (transfers as f64 / peak).min(1.0)
            } else {
                0.0
            },
            prefetches: d.sum(|t| t.pf_issued),
        });
        self.tl_prev = counters;
    }

    /// Builds the result from `w`, the counters of the measured window
    /// (the end-of-run gather since the end-of-warmup one).
    pub(crate) fn assemble(&mut self, w: &Counters, measure: u64) -> SimResult {
        let elapsed = w.cycle.max(1);
        let per_core_ipc: Vec<f64> = self
            .tiles
            .iter()
            .zip(&w.tiles)
            .map(|(t, c)| match t.measured_cycles {
                Some(cycles) => measure as f64 / cycles as f64,
                // Unfinished: partial progress.
                None => c.retired as f64 / elapsed as f64,
            })
            .collect();

        let mut lat = LatencyReport::default();
        for c in &w.tiles {
            lat.l1_miss.merge(&c.lat.l1_miss);
            lat.by_l2.merge(&c.lat.by_l2);
            lat.by_llc.merge(&c.lat.by_llc);
            lat.by_dram.merge(&c.lat.by_dram);
        }

        let prefetch = PrefetchReport {
            candidates: w.sum(|c| c.pf_candidates),
            issued: w.sum(|c| c.pf_issued),
            useful: w.sum(|c| c.l1d.useful_prefetches + c.l2.useful_prefetches),
            useless: w.sum(|c| c.l1d.useless_prefetches + c.l2.useless_prefetches),
            late: w.sum(|c| c.late),
        };
        let misses = MissReport {
            l1_accesses: w.sum(|c| c.l1d.demand_accesses),
            l1_misses: w.sum(|c| c.l1d.demand_misses()),
            l2_accesses: w.sum(|c| c.l2.demand_accesses),
            l2_misses: w.sum(|c| c.l2.demand_misses()),
            llc_accesses: w.llc.demand_accesses,
            llc_misses: w.llc.demand_misses(),
        };

        let dram_transfers = w.dram_transfers();
        let dram_row_hits: u64 = w.dram.iter().map(|c| c.row_hits).sum();
        let peak_transfers =
            self.cfg.dram.channels as f64 * elapsed as f64 / self.cfg.dram.burst_cycles as f64;
        let channel_peak = elapsed as f64 / self.cfg.dram.burst_cycles as f64;
        let max_ch = w
            .dram
            .iter()
            .map(|c| (c.reads + c.writes) as f64 / channel_peak)
            .fold(0.0f64, f64::max);

        let clip = if self.scheme.clip.is_some() {
            let mut stats = ClipStats::default();
            let mut eval = EvalCounts::default();
            for c in &w.tiles {
                stats.candidates += c.clip.candidates;
                stats.allowed_critical += c.clip.allowed_critical;
                stats.allowed_explore += c.clip.allowed_explore;
                stats.dropped_not_critical += c.clip.dropped_not_critical;
                stats.dropped_predicted += c.clip.dropped_predicted;
                stats.dropped_low_accuracy += c.clip.dropped_low_accuracy;
                stats.dropped_phase += c.clip.dropped_phase;
                stats.phase_changes += c.clip.phase_changes;
                stats.windows += c.clip.windows;
                eval.true_positive += c.clip_eval.true_positive;
                eval.false_positive += c.clip_eval.false_positive;
                eval.false_negative += c.clip_eval.false_negative;
                eval.true_negative += c.clip_eval.true_negative;
            }
            let mut crit_ips = 0usize;
            let mut dynamic = 0usize;
            let mut with_crit = 0usize;
            for t in &self.tiles {
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
            let mut engines = [ClipEngineReport::default(); MAX_PF_ENGINES];
            for (t, c) in self.tiles.iter().zip(&w.tiles) {
                if t.clip.as_ref().expect("clip present").num_engines() == 0 {
                    continue;
                }
                for (slot, s) in engines.iter_mut().zip(&c.engines) {
                    slot.issued += s.issued;
                    slot.hits += s.hits;
                    slot.min_level = if slot.min_level == 0 {
                        s.level
                    } else {
                        slot.min_level.min(s.level)
                    };
                }
            }
            Some(ClipReport {
                stats,
                eval,
                ip_eval,
                critical_ips: crit_ips as f64 / n,
                dynamic_ips: crit_ips as f64 * dyn_frac / n,
                engines,
                num_engines: self
                    .tiles
                    .first()
                    .and_then(|t| t.clip.as_ref())
                    .map_or(0, |c| c.num_engines()),
                governor: self.governor.as_ref().map(|_| GovernorReport {
                    bypassed: w.sum(|c| c.bypassed),
                    mode_switches: w.mode_switches,
                }),
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
            l1_writes: w.sum(|c| c.l1d.fills),
            l2_reads: misses.l2_accesses,
            l2_writes: w.sum(|c| c.l2.fills),
            llc_reads: misses.llc_accesses,
            llc_writes: w.llc.fills,
            dram_row_hits,
            dram_row_misses: dram_transfers - dram_row_hits,
            noc_flit_hops: w.noc_flit_hops,
            clip_lookups: clip.map_or(0, |c| c.stats.candidates),
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
