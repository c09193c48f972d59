//! CLIP: load-criticality based data prefetch filtering for
//! bandwidth-constrained many-core systems (MICRO '23).
//!
//! CLIP sits between a hardware prefetcher and the L1 MSHRs and decides,
//! per prefetch candidate, whether to issue or drop it. A candidate to
//! address `X` triggered by load IP `P` survives only when
//!
//! 1. **Stage I — criticality**: `P` has stalled the head of the ROB at
//!    least `criticality_count_threshold` times while being serviced by
//!    L2/LLC/DRAM (tracked by the [`filter::CriticalityFilter`]), and the
//!    [`predictor::CriticalityTable`] — indexed by the *critical
//!    signature*, a hashed XOR of `P`, `X`, the global branch history, and
//!    the global criticality history — predicts this dynamic instance
//!    critical; and
//! 2. **Stage II — accuracy**: the underlying prefetcher's measured per-IP
//!    hit rate for `P` (tracked via the [`utility::UtilityBuffer`]) is at
//!    least 90% over the last exploration window.
//!
//! Surviving prefetches carry a criticality flag that grants them demand
//! priority at the NoC and DRAM controller. On an application phase change
//! (detected by [`apc::ApcDetector`]) all structures reset and prefetching
//! pauses for a window. Total storage: 1.56 KB/core (Table 2 —
//! reproduced by [`storage::StorageReport`]).
//!
//! # Examples
//!
//! ```
//! use clip_core::{Clip, ClipConfig, Decision};
//! use clip_types::{Ip, LineAddr};
//!
//! let mut clip = Clip::new(ClipConfig::default());
//! // Untrained: every prefetch is dropped as non-critical.
//! let d = clip.filter_prefetch(LineAddr::new(0x100), Ip::new(0x400));
//! assert_eq!(d, Decision::DropNotCritical);
//! ```

pub mod apc;
pub mod dynamic;
pub mod filter;
pub mod predictor;
pub mod storage;
pub mod utility;

pub use apc::ApcDetector;
pub use dynamic::{ClipMode, DynamicClipConfig, Governor};
pub use filter::CriticalityFilter;
pub use predictor::CriticalityTable;
pub use storage::StorageReport;
pub use utility::UtilityBuffer;

use clip_cpu::LoadOutcome;
use clip_types::{BitHistory, Ip, LineAddr, MAX_PF_ENGINES};

/// Tuning knobs of CLIP. Defaults reproduce the paper's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipConfig {
    /// Criticality filter geometry (32 sets x 4 ways in the paper).
    pub filter_sets: usize,
    /// Filter associativity.
    pub filter_ways: usize,
    /// Criticality predictor geometry (128 sets x 4 ways).
    pub predictor_sets: usize,
    /// Predictor associativity.
    pub predictor_ways: usize,
    /// Saturating-counter width of the predictor (3 bits).
    pub counter_bits: u8,
    /// ROB-stall count before an IP is considered critical (4).
    pub criticality_count_threshold: u8,
    /// Per-IP prefetch hit-rate threshold (0.90).
    pub hit_rate_threshold: f64,
    /// L1D misses per exploration window (1024 — just above the 768 L1D
    /// lines).
    pub exploration_window: u32,
    /// Utility buffer entries (64).
    pub utility_entries: usize,
    /// Issue budget per IP while its accuracy is still unproven within a
    /// window.
    pub explore_issue_cap: u8,
    /// IPs allowed to explore concurrently within one window. Serialising
    /// exploration keeps the 64-entry utility CAM long-lived enough to
    /// measure each explorer's hit rate faithfully.
    pub explore_ip_slots: usize,
    /// APC windows averaged for phase detection (16).
    pub apc_windows: usize,
    /// APC deviation that declares a phase change (0.15).
    pub apc_threshold: f64,
    /// Include the 32-bit global branch history in the signature.
    pub use_branch_history: bool,
    /// Include the 32-bit global criticality history in the signature.
    pub use_crit_history: bool,
    /// Enable Stage II (per-IP accuracy filtering).
    pub use_accuracy_stage: bool,
    /// Enable Stage I (criticality filtering/prediction). Disabling turns
    /// CLIP into a pure accuracy filter (ablation).
    pub use_criticality_stage: bool,
    /// Propagate the criticality flag to the NoC/DRAM (consumed by the
    /// simulator; kept here so ablations are a single switch).
    pub criticality_flag_to_fabric: bool,
    /// Key the criticality filter / accuracy tracker by 4 KiB page instead
    /// of trigger IP — §4.2's fallback for non-IP-based L2 prefetchers
    /// ("the IP hit rate is replaced by the page hit rate").
    pub page_mode: bool,
    /// Number of concurrently running prefetch engines feeding this CLIP
    /// instance (1 for every single prefetcher; the composite ensemble
    /// sets its member count, capped at `clip_types::MAX_PF_ENGINES`).
    /// With more than one engine, CLIP additionally tracks per-engine
    /// accuracy through the utility buffer's engine tags and recomputes
    /// FDP-style per-engine throttle levels at every window boundary —
    /// see [`Clip::engine_levels`].
    pub engines: usize,
}

impl Default for ClipConfig {
    fn default() -> Self {
        ClipConfig {
            filter_sets: 32,
            filter_ways: 4,
            predictor_sets: 128,
            predictor_ways: 4,
            counter_bits: 3,
            criticality_count_threshold: 4,
            hit_rate_threshold: 0.90,
            exploration_window: 1024,
            utility_entries: 64,
            explore_issue_cap: 32,
            explore_ip_slots: 4,
            apc_windows: 16,
            apc_threshold: 0.15,
            use_branch_history: true,
            use_crit_history: true,
            use_accuracy_stage: true,
            use_criticality_stage: true,
            criticality_flag_to_fabric: true,
            page_mode: false,
            engines: 1,
        }
    }
}

impl ClipConfig {
    /// Configuration for client/server and CloudSuite workloads: §4.3
    /// reports that their much larger IP populations (e.g. 32k IPs in
    /// `server_013`) need a 2048-entry criticality predictor to mitigate
    /// aliasing, while 512 entries suffice for SPEC.
    pub fn for_server_workloads() -> Self {
        ClipConfig {
            predictor_sets: 512, // 512 sets x 4 ways = 2048 entries
            ..ClipConfig::default()
        }
    }

    /// Scales both hardware tables by `factor` (0.25, 0.5, 2.0, 4.0 in the
    /// Figure 18 sensitivity study), keeping at least one set each.
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |sets: usize| ((sets as f64 * factor) as usize).max(1).next_power_of_two();
        self.filter_sets = scale(self.filter_sets);
        self.predictor_sets = scale(self.predictor_sets);
        self
    }
}

/// The verdict CLIP renders for one prefetch candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Issue, flagged critical-and-accurate (demand priority at NoC/DRAM).
    AllowCritical,
    /// Issue without the criticality flag (exploration traffic used to
    /// measure per-IP accuracy).
    AllowExplore,
    /// Dropped: the trigger IP is not (yet) critical.
    DropNotCritical,
    /// Dropped: the criticality predictor rated this instance
    /// non-critical.
    DropPredictedNotCritical,
    /// Dropped: the trigger IP's per-IP prefetch accuracy is too low.
    DropLowAccuracy,
    /// Dropped: CLIP paused after a phase change.
    DropPhasePause,
}

impl Decision {
    /// True when the prefetch should be issued.
    pub fn allows(self) -> bool {
        matches!(self, Decision::AllowCritical | Decision::AllowExplore)
    }
}

/// Counters exposed for the evaluation figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClipStats {
    /// Prefetch candidates examined.
    pub candidates: u64,
    /// Issued with the criticality flag.
    pub allowed_critical: u64,
    /// Issued as exploration traffic.
    pub allowed_explore: u64,
    /// Dropped: IP not critical.
    pub dropped_not_critical: u64,
    /// Dropped: predictor said this instance is not critical.
    pub dropped_predicted: u64,
    /// Dropped: low per-IP accuracy.
    pub dropped_low_accuracy: u64,
    /// Dropped: phase-change pause.
    pub dropped_phase: u64,
    /// Phase changes detected.
    pub phase_changes: u64,
    /// Exploration windows completed.
    pub windows: u64,
}

impl ClipStats {
    /// Fraction of candidates dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        let dropped = self.dropped_not_critical
            + self.dropped_predicted
            + self.dropped_low_accuracy
            + self.dropped_phase;
        dropped as f64 / self.candidates as f64
    }

    /// The counts added since `earlier`, a copy of these stats taken
    /// before: every field is a running total.
    pub fn since(&self, earlier: &ClipStats) -> ClipStats {
        ClipStats {
            candidates: self.candidates - earlier.candidates,
            allowed_critical: self.allowed_critical - earlier.allowed_critical,
            allowed_explore: self.allowed_explore - earlier.allowed_explore,
            dropped_not_critical: self.dropped_not_critical - earlier.dropped_not_critical,
            dropped_predicted: self.dropped_predicted - earlier.dropped_predicted,
            dropped_low_accuracy: self.dropped_low_accuracy - earlier.dropped_low_accuracy,
            dropped_phase: self.dropped_phase - earlier.dropped_phase,
            phase_changes: self.phase_changes - earlier.phase_changes,
            windows: self.windows - earlier.windows,
        }
    }
}

/// Cumulative per-engine accuracy counters for one engine of a composite
/// ensemble (all zero/default for single-engine prefetchers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Prefetches CLIP let through that were tagged with this engine.
    pub issued: u64,
    /// Demand hits the utility buffer credited to this engine.
    pub hits: u64,
    /// The engine's current arbitration level (1..=5; 0 = unused slot).
    pub level: u8,
}

impl EngineStats {
    /// Hits per issued prefetch (0 when nothing was issued).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.hits as f64 / self.issued as f64
        }
    }

    /// The counts added since `earlier`, a copy taken before; `level` is
    /// state, not a count, so it keeps this copy's value. A cancelled
    /// prefetch takes its issue back ([`Clip::cancel_prefetch_tagged`]),
    /// so `issued` saturates at zero for a window that issued nothing
    /// but cancelled a prefetch issued before it.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            issued: self.issued.saturating_sub(earlier.issued),
            hits: self.hits - earlier.hits,
            level: self.level,
        }
    }
}

/// Issued prefetches an engine must accumulate within the (decayed)
/// window before its accuracy verdict moves its arbitration level.
const ENGINE_MIN_SAMPLE: u64 = 32;
/// Windowed accuracy below which an engine is demoted one level.
const ENGINE_ACC_LOW: f64 = 0.30;
/// Windowed accuracy at or above which an engine is promoted one level.
const ENGINE_ACC_HIGH: f64 = 0.60;

/// The CLIP mechanism for one core. See the crate docs for the two-stage
/// pipeline.
#[derive(Debug, Clone)]
pub struct Clip {
    cfg: ClipConfig,
    filter: CriticalityFilter,
    predictor: CriticalityTable,
    utility: UtilityBuffer,
    apc: ApcDetector,
    branch_hist: BitHistory,
    crit_hist: BitHistory,
    misses_in_window: u32,
    paused_windows: u32,
    /// IPs holding an exploration slot this window.
    exploring: Vec<u64>,
    stats: ClipStats,
    /// Per-engine arbitration levels (1..=5), recomputed each window when
    /// `cfg.engines > 1`; otherwise stays pinned at 5 (no starvation).
    engine_levels: [u8; MAX_PF_ENGINES],
    /// Decayed per-window issue counters driving the level decisions.
    engine_win_issued: [u64; MAX_PF_ENGINES],
    /// Decayed per-window hit counters driving the level decisions.
    engine_win_hits: [u64; MAX_PF_ENGINES],
    /// Monotone cumulative issue counters (reporting surface).
    engine_tot_issued: [u64; MAX_PF_ENGINES],
    /// Monotone cumulative hit counters (reporting surface).
    engine_tot_hits: [u64; MAX_PF_ENGINES],
}

impl Clip {
    /// Creates CLIP with the given configuration.
    pub fn new(cfg: ClipConfig) -> Self {
        Clip {
            filter: CriticalityFilter::new(cfg.filter_sets, cfg.filter_ways),
            predictor: CriticalityTable::new(
                cfg.predictor_sets,
                cfg.predictor_ways,
                cfg.counter_bits,
            ),
            utility: UtilityBuffer::new(cfg.utility_entries),
            apc: ApcDetector::new(cfg.apc_windows, cfg.apc_threshold),
            branch_hist: BitHistory::new(32),
            crit_hist: BitHistory::new(32),
            misses_in_window: 0,
            paused_windows: 0,
            exploring: Vec::new(),
            stats: ClipStats::default(),
            engine_levels: [5; MAX_PF_ENGINES],
            engine_win_issued: [0; MAX_PF_ENGINES],
            engine_win_hits: [0; MAX_PF_ENGINES],
            engine_tot_issued: [0; MAX_PF_ENGINES],
            engine_tot_hits: [0; MAX_PF_ENGINES],
            cfg,
        }
    }

    /// Engines this CLIP instance arbitrates between: `cfg.engines` capped
    /// at `MAX_PF_ENGINES` when composite (> 1), else 0 — single-engine
    /// CLIP has no arbitration surface and reports none.
    pub fn num_engines(&self) -> usize {
        if self.cfg.engines > 1 {
            self.cfg.engines.min(MAX_PF_ENGINES)
        } else {
            0
        }
    }

    /// Current per-engine arbitration levels (1..=5). Pushed into the
    /// composite prefetcher at every window boundary; slots past
    /// [`Clip::num_engines`] stay at their initial 5.
    pub fn engine_levels(&self) -> [u8; MAX_PF_ENGINES] {
        self.engine_levels
    }

    /// Cumulative per-engine accuracy counters plus the current level.
    pub fn engine_stats(&self) -> [EngineStats; MAX_PF_ENGINES] {
        let mut out = [EngineStats::default(); MAX_PF_ENGINES];
        for (e, slot) in out.iter_mut().enumerate() {
            *slot = EngineStats {
                issued: self.engine_tot_issued[e],
                hits: self.engine_tot_hits[e],
                level: self.engine_levels[e],
            };
        }
        out
    }

    /// The active configuration.
    pub fn config(&self) -> &ClipConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ClipStats {
        &self.stats
    }

    /// Storage accounting (Table 2).
    pub fn storage_report(&self) -> StorageReport {
        StorageReport::for_config(&self.cfg)
    }

    /// The key the filter and accuracy tracker are indexed by: the trigger
    /// IP, or the 4 KiB page in page mode (non-IP L2 prefetchers).
    fn track_key(&self, ip: Ip, line: LineAddr) -> Ip {
        if self.cfg.page_mode {
            Ip::new(line.page())
        } else {
            ip
        }
    }

    /// The critical signature: hashed XOR of trigger IP, virtual address,
    /// branch history, and criticality history (§4.2).
    ///
    /// Two folds make the 512-entry table behave the way §4.3 describes
    /// (constructive aliasing for loads of one IP within a loop):
    ///
    /// * the virtual address contributes only its low page bits, so loop
    ///   iterations marching through memory share signatures instead of
    ///   scattering across the table;
    /// * the criticality history contributes its *density* (population
    ///   count bucket) rather than its raw bits — raw bits never repeat
    ///   under queueing jitter, which would make every lookup a compulsory
    ///   miss. Branch history stays exact: in loops it is periodic, and it
    ///   is the signal that separates control-flow contexts.
    fn signature(&self, ip: Ip, line: LineAddr) -> u64 {
        let mut sig = ip.raw() ^ ((line.page() & 0x7) << 17);
        if self.cfg.use_branch_history {
            // Exact recent control flow (last 4 outcomes) plus the density
            // of the older history: discriminates the contexts that matter
            // while staying stable when distant branches are noisy.
            let bits = self.branch_hist.bits();
            let folded = (bits & 0xF) | (((bits.count_ones() >> 2) as u64) << 4);
            sig ^= clip_types::hash64(folded).rotate_left(29);
        }
        if self.cfg.use_crit_history {
            let density = (self.crit_hist.bits().count_ones() >> 2) as u64;
            sig ^= clip_types::hash64(density ^ 0xC11F).rotate_left(47);
        }
        clip_types::hash64(sig)
    }

    /// Records a resolved conditional branch (feeds the signature).
    pub fn on_branch(&mut self, taken: bool) {
        self.branch_hist.push(taken);
    }

    /// Records a completed demand load: trains the criticality filter and
    /// predictor, and pushes the criticality history bit.
    pub fn on_load_complete(&mut self, o: &LoadOutcome) {
        let critical = o.stalled_head && o.level.is_beyond_l1();
        let sig = self.signature(o.ip, o.addr.line());
        if critical {
            let key = self.track_key(o.ip, o.addr.line());
            self.filter.record_stall(key);
            self.predictor.train(sig, true);
        } else {
            // L1 hit, or a miss that did not stall the head.
            self.predictor.train(sig, false);
        }
        self.crit_hist.push(critical);
    }

    /// Records a demand access at the L1D (drives the utility-buffer CAM
    /// probe, the per-IP hit counts, and per-engine hit credit).
    pub fn on_demand_access(&mut self, line: LineAddr) {
        if let Some((trigger_ip, engine)) = self.utility.probe_tagged(line) {
            self.filter.record_prefetch_hit(trigger_ip);
            let e = (engine as usize).min(MAX_PF_ENGINES - 1);
            self.engine_win_hits[e] += 1;
            self.engine_tot_hits[e] += 1;
        }
    }

    /// Records an L1D miss (advances the exploration window) and returns
    /// `true` when a window boundary was crossed.
    pub fn on_l1_miss(&mut self) -> bool {
        self.misses_in_window += 1;
        if self.misses_in_window >= self.cfg.exploration_window {
            self.misses_in_window = 0;
            self.end_window();
            true
        } else {
            false
        }
    }

    fn end_window(&mut self) {
        self.stats.windows += 1;
        self.filter.end_window(
            self.cfg.criticality_count_threshold,
            self.cfg.hit_rate_threshold,
        );
        self.exploring.clear();
        if self.paused_windows > 0 {
            self.paused_windows -= 1;
        }
        // Per-engine arbitration (composite only): demote engines whose
        // windowed accuracy fell below the low mark, promote the accurate
        // ones back toward full aggression. Halving (instead of zeroing)
        // the counters keeps a decayed history for hysteresis, FDP-style.
        if self.cfg.engines > 1 {
            for e in 0..self.cfg.engines.min(MAX_PF_ENGINES) {
                let issued = self.engine_win_issued[e];
                if issued >= ENGINE_MIN_SAMPLE {
                    let acc = self.engine_win_hits[e] as f64 / issued as f64;
                    if acc < ENGINE_ACC_LOW {
                        self.engine_levels[e] = self.engine_levels[e].saturating_sub(1).max(1);
                    } else if acc >= ENGINE_ACC_HIGH {
                        self.engine_levels[e] = (self.engine_levels[e] + 1).min(5);
                    }
                }
                self.engine_win_issued[e] /= 2;
                self.engine_win_hits[e] /= 2;
            }
        }
    }

    /// Feeds one APC sample (accesses and cycles since the last sample).
    /// On a detected phase change, resets all structures and pauses
    /// prefetching for one window.
    pub fn on_apc_sample(&mut self, accesses: u64, cycles: u64) {
        if self.apc.sample(accesses, cycles) {
            self.stats.phase_changes += 1;
            self.filter.reset();
            self.predictor.reset();
            self.utility.reset();
            self.exploring.clear();
            self.paused_windows = 1;
            // New phase: every engine starts over at full aggression.
            self.engine_levels = [5; MAX_PF_ENGINES];
            self.engine_win_issued = [0; MAX_PF_ENGINES];
            self.engine_win_hits = [0; MAX_PF_ENGINES];
        }
    }

    /// Books an allowed prefetch into the utility buffer and the
    /// per-engine issue counters.
    fn issue_tagged(&mut self, line: LineAddr, key: Ip, engine: u8) {
        self.filter.record_issue(key);
        self.utility.push_tagged(line, key, engine);
        let e = (engine as usize).min(MAX_PF_ENGINES - 1);
        self.engine_win_issued[e] += 1;
        self.engine_tot_issued[e] += 1;
    }

    /// The gate: decides whether a prefetch candidate survives. Untagged
    /// entry point — candidates from a single-engine prefetcher
    /// (engine 0).
    pub fn filter_prefetch(&mut self, line: LineAddr, trigger_ip: Ip) -> Decision {
        self.filter_prefetch_tagged(line, trigger_ip, 0)
    }

    /// The gate, with the candidate's engine tag: decides whether a
    /// prefetch candidate survives and attributes the issue (and any
    /// later demand hit) to the originating engine of a composite
    /// ensemble.
    pub fn filter_prefetch_tagged(
        &mut self,
        line: LineAddr,
        trigger_ip: Ip,
        engine: u8,
    ) -> Decision {
        self.stats.candidates += 1;
        if self.paused_windows > 0 {
            self.stats.dropped_phase += 1;
            return Decision::DropPhasePause;
        }

        let key = self.track_key(trigger_ip, line);
        let Some(view) = self.filter.lookup(key) else {
            if self.cfg.use_criticality_stage {
                self.stats.dropped_not_critical += 1;
                return Decision::DropNotCritical;
            }
            // Accuracy-only ablation: unknown IPs explore.
            self.filter.record_stall(key);
            self.issue_tagged(line, key, engine);
            self.stats.allowed_explore += 1;
            return Decision::AllowExplore;
        };

        if self.cfg.use_criticality_stage
            && view.crit_count
                < CriticalityFilter::clamp_threshold(self.cfg.criticality_count_threshold)
        {
            self.stats.dropped_not_critical += 1;
            return Decision::DropNotCritical;
        }

        // Stage II: per-IP accuracy.
        let accuracy_ok = if !self.cfg.use_accuracy_stage || view.is_critical_accurate {
            true
        } else if view.issue_count < self.cfg.explore_issue_cap {
            // Still exploring this window: let it through to measure, but
            // only if the IP can get (or holds) an exploration slot.
            let ip_raw = key.raw();
            let has_slot = self.exploring.contains(&ip_raw)
                || if self.exploring.len() < self.cfg.explore_ip_slots {
                    self.exploring.push(ip_raw);
                    true
                } else {
                    false
                };
            if has_slot {
                self.issue_tagged(line, key, engine);
                self.stats.allowed_explore += 1;
                return Decision::AllowExplore;
            }
            false
        } else {
            false
        };
        if !accuracy_ok {
            self.stats.dropped_low_accuracy += 1;
            return Decision::DropLowAccuracy;
        }

        // Stage I prediction: the dynamic (per-instance) criticality.
        if self.cfg.use_criticality_stage {
            let sig = self.signature(trigger_ip, line);
            match self.predictor.predict(sig) {
                Some(true) => {}
                Some(false) => {
                    self.stats.dropped_predicted += 1;
                    return Decision::DropPredictedNotCritical;
                }
                None => {
                    // Unseen signature: allocate (so the pattern can be
                    // learned) and drop this instance, per §4.2.
                    self.predictor.allocate(sig);
                    self.stats.dropped_predicted += 1;
                    return Decision::DropPredictedNotCritical;
                }
            }
        }

        self.issue_tagged(line, key, engine);
        self.stats.allowed_critical += 1;
        if self.cfg.criticality_flag_to_fabric {
            Decision::AllowCritical
        } else {
            Decision::AllowExplore
        }
    }

    /// Cancels the accounting of a previously allowed prefetch that the
    /// hierarchy dropped before fetching (e.g. MSHR admission control):
    /// removes the utility-buffer entry and releases the issue credit so
    /// the per-IP hit rate is not diluted by prefetches that never
    /// happened. The candidate's engine tag also releases the per-engine
    /// issue credit, so a cancelled prefetch does not depress (or inflate
    /// the denominator of) its engine's accuracy.
    pub fn cancel_prefetch_tagged(&mut self, line: LineAddr, trigger_ip: Ip, engine: u8) {
        let key = self.track_key(trigger_ip, line);
        if self.utility.remove(line) {
            self.filter.cancel_issue(key);
            let e = (engine as usize).min(MAX_PF_ENGINES - 1);
            self.engine_win_issued[e] = self.engine_win_issued[e].saturating_sub(1);
            self.engine_tot_issued[e] = self.engine_tot_issued[e].saturating_sub(1);
        }
    }

    /// CLIP's own criticality prediction for a load instance — the metric
    /// of Figures 13/14 (accuracy/coverage of critical-load prediction).
    pub fn predict_critical(&self, ip: Ip, line: LineAddr) -> bool {
        let Some(view) = self.filter.lookup(self.track_key(ip, line)) else {
            return false;
        };
        if view.crit_count
            < CriticalityFilter::clamp_threshold(self.cfg.criticality_count_threshold)
        {
            return false;
        }
        let sig = self.signature(ip, line);
        self.predictor.predict(sig).unwrap_or(false)
    }

    /// Number of IPs currently marked critical-and-accurate, split into
    /// (static, dynamic) by whether the predictor has seen both outcomes
    /// for the IP's signatures (Figure 15).
    pub fn critical_ip_count(&self) -> usize {
        self.filter.critical_accurate_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_types::{Addr, MemLevel};

    fn outcome(ip: u64, addr: u64, stalled: bool, level: MemLevel) -> LoadOutcome {
        LoadOutcome {
            ip: Ip::new(ip),
            addr: Addr::new(addr),
            level,
            stalled_head: stalled,
            stall_cycles: if stalled { 60 } else { 0 },
            rob_occupancy: 256,
            outstanding_loads: 2,
            done_cycle: 0,
            latency: 150,
        }
    }

    /// Train CLIP until `ip` is critical-and-accurate for addresses around
    /// `base`.
    fn train_critical(clip: &mut Clip, ip: u64, base: u64) {
        for i in 0..8 {
            clip.on_load_complete(&outcome(ip, base + i * 64, true, MemLevel::Dram));
        }
        // Exploration prefetches establish accuracy: issue, then demand-hit
        // the utility buffer.
        for round in 0..2 {
            for i in 0..24u64 {
                let line = LineAddr::new((base >> 6) + 100 + round * 100 + i);
                let d = clip.filter_prefetch(line, Ip::new(ip));
                if d.allows() {
                    clip.on_demand_access(line);
                }
            }
            // Close the window.
            for _ in 0..1024 {
                clip.on_l1_miss();
            }
        }
    }

    #[test]
    fn untrained_clip_drops_everything() {
        let mut clip = Clip::new(ClipConfig::default());
        for i in 0..100u64 {
            let d = clip.filter_prefetch(LineAddr::new(i), Ip::new(0x400));
            assert!(!d.allows());
        }
        assert_eq!(clip.stats().drop_rate(), 1.0);
    }

    #[test]
    fn critical_accurate_ip_gets_prefetches_through() {
        let mut clip = Clip::new(ClipConfig::default());
        train_critical(&mut clip, 0x400, 1 << 20);
        // Load activity creates predictor entries for this (ip, region,
        // history) signature; prefetches to the same region now survive.
        clip.on_load_complete(&outcome(0x400, 1 << 20, true, MemLevel::Dram));
        let line = Addr::new((1 << 20) + 64).line();
        let d1 = clip.filter_prefetch(line, Ip::new(0x400));
        let d2 = clip.filter_prefetch(line, Ip::new(0x400));
        assert!(
            d1.allows() || d2.allows(),
            "trained critical+accurate IP must prefetch: {d1:?}/{d2:?}"
        );
    }

    #[test]
    fn non_critical_ip_stays_dropped() {
        let mut clip = Clip::new(ClipConfig::default());
        // Loads that never stall: IP never enters the filter.
        for i in 0..100 {
            clip.on_load_complete(&outcome(0x500, i * 64, false, MemLevel::L2));
        }
        let d = clip.filter_prefetch(LineAddr::new(5000), Ip::new(0x500));
        assert_eq!(d, Decision::DropNotCritical);
    }

    #[test]
    fn low_accuracy_ip_is_cut_off_after_exploration() {
        let mut clip = Clip::new(ClipConfig::default());
        for i in 0..8 {
            clip.on_load_complete(&outcome(0x600, i * 64, true, MemLevel::Dram));
        }
        // Exploration prefetches that never get demand hits.
        let mut explored = 0;
        let mut cut_off = false;
        for i in 0..200u64 {
            match clip.filter_prefetch(LineAddr::new(10_000 + i), Ip::new(0x600)) {
                Decision::AllowExplore => explored += 1,
                Decision::DropLowAccuracy => {
                    cut_off = true;
                    break;
                }
                d => panic!("unexpected decision {d:?}"),
            }
        }
        assert!(explored > 0, "exploration must be allowed");
        assert!(cut_off, "inaccurate IP must be cut off");
        // And after the window ends, it is still not critical+accurate.
        for _ in 0..1024 {
            clip.on_l1_miss();
        }
        assert_eq!(clip.critical_ip_count(), 0);
    }

    #[test]
    fn phase_change_resets_and_pauses() {
        let mut clip = Clip::new(ClipConfig::default());
        train_critical(&mut clip, 0x700, 1 << 21);
        // Feed stable APC samples, then a big jump.
        for _ in 0..16 {
            clip.on_apc_sample(1000, 10_000);
        }
        clip.on_apc_sample(5000, 10_000);
        assert_eq!(clip.stats().phase_changes, 1);
        let d = clip.filter_prefetch(LineAddr::new((1 << 15) + 1), Ip::new(0x700));
        assert_eq!(d, Decision::DropPhasePause);
        // After a window passes, the pause lifts (but training restarts).
        for _ in 0..1024 {
            clip.on_l1_miss();
        }
        let d2 = clip.filter_prefetch(LineAddr::new((1 << 15) + 2), Ip::new(0x700));
        assert_ne!(d2, Decision::DropPhasePause);
    }

    #[test]
    fn predictor_separates_contexts_by_branch_history() {
        // The same IP+region is critical under one branch history and not
        // under another; the signature must separate them.
        let mut clip = Clip::new(ClipConfig::default());
        let ip = 0x800u64;
        let base = 1u64 << 22;
        // Make the IP pass the filter + accuracy stages quickly.
        train_critical(&mut clip, ip, base);
        // Context A: history ...111 → critical loads.
        // Context B: history ...000 → non-critical loads.
        for _ in 0..40 {
            for _ in 0..32 {
                clip.on_branch(true);
            }
            clip.on_load_complete(&outcome(ip, base, true, MemLevel::Dram));
            for _ in 0..32 {
                clip.on_branch(false);
            }
            clip.on_load_complete(&outcome(ip, base, false, MemLevel::L1));
        }
        for _ in 0..32 {
            clip.on_branch(true);
        }
        let in_a = clip.predict_critical(Ip::new(ip), Addr::new(base).line());
        for _ in 0..32 {
            clip.on_branch(false);
        }
        let in_b = clip.predict_critical(Ip::new(ip), Addr::new(base).line());
        assert!(in_a, "context A must predict critical");
        assert!(!in_b, "context B must predict non-critical");
    }

    #[test]
    fn ablation_disable_criticality_stage_allows_unknown_ips() {
        let cfg = ClipConfig {
            use_criticality_stage: false,
            ..ClipConfig::default()
        };
        let mut clip = Clip::new(cfg);
        let d = clip.filter_prefetch(LineAddr::new(1), Ip::new(0x900));
        assert!(d.allows(), "accuracy-only CLIP explores unknown IPs");
    }

    #[test]
    fn ablation_disable_accuracy_stage_skips_hit_rate_gate() {
        let cfg = ClipConfig {
            use_accuracy_stage: false,
            ..ClipConfig::default()
        };
        let mut clip = Clip::new(cfg);
        for i in 0..8 {
            clip.on_load_complete(&outcome(0xA00, i * 64, true, MemLevel::Dram));
        }
        // Prefetch to the trained region: predictor has entries there.
        let d1 = clip.filter_prefetch(Addr::new(0).line(), Ip::new(0xA00));
        let d2 = clip.filter_prefetch(Addr::new(0).line(), Ip::new(0xA00));
        assert!(
            d1.allows() || d2.allows(),
            "criticality-only CLIP must not require accuracy: {d1:?}/{d2:?}"
        );
    }

    #[test]
    fn page_mode_tracks_pages_not_ips() {
        let cfg = ClipConfig {
            page_mode: true,
            ..ClipConfig::default()
        };
        let mut clip = Clip::new(cfg);
        // Two different IPs touching the same page accumulate criticality
        // under one filter entry.
        for ip in [0x400u64, 0x500, 0x600, 0x700] {
            clip.on_load_complete(&outcome(ip, 0x5000, true, MemLevel::Dram));
        }
        // A prefetch into that page by yet another IP sees the page's
        // criticality (it is past the count threshold).
        let d = clip.filter_prefetch(Addr::new(0x5040).line(), Ip::new(0x999));
        assert_ne!(d, Decision::DropNotCritical, "page entry must be critical");
        // A prefetch to an untouched page is still dropped.
        let d2 = clip.filter_prefetch(Addr::new(0x50_0000).line(), Ip::new(0x999));
        assert_eq!(d2, Decision::DropNotCritical);
    }

    #[test]
    fn server_preset_has_2048_predictor_entries() {
        let c = ClipConfig::for_server_workloads();
        assert_eq!(c.predictor_sets * c.predictor_ways, 2048);
        // The filter keeps its SPEC geometry.
        assert_eq!(c.filter_sets * c.filter_ways, 128);
    }

    #[test]
    fn scaled_config_changes_table_sizes() {
        let c = ClipConfig::default().scaled(0.25);
        assert_eq!(c.filter_sets, 8);
        assert_eq!(c.predictor_sets, 32);
        let c4 = ClipConfig::default().scaled(4.0);
        assert_eq!(c4.filter_sets, 128);
        assert_eq!(c4.predictor_sets, 512);
    }

    /// Satellite of Issue 10: `Clip::new` reads the APC operating point
    /// (and everything else) from the config — pin the defaults to the
    /// paper's Table 2 values so `sens_clip`-style sweeps have a fixed
    /// anchor and doc examples can't silently drift from `Clip::new`.
    #[test]
    fn default_config_pins_the_papers_operating_point() {
        let c = ClipConfig::default();
        assert_eq!(c.apc_windows, 16);
        assert_eq!(c.apc_threshold, 0.15);
        assert_eq!(c.exploration_window, 1024);
        assert_eq!(c.utility_entries, 64);
        assert_eq!(c.hit_rate_threshold, 0.90);
        assert_eq!(c.criticality_count_threshold, 4);
        assert_eq!(c.filter_sets * c.filter_ways, 128);
        assert_eq!(c.predictor_sets * c.predictor_ways, 512);
        assert_eq!(c.counter_bits, 3);
        assert_eq!(c.engines, 1, "single engine unless composite opts in");
        // The detector really is constructed from those fields.
        let clip = Clip::new(c.clone());
        assert_eq!(clip.config(), &c);
        assert_eq!(clip.num_engines(), 0, "no arbitration surface at engines=1");
    }

    #[test]
    fn composite_engines_demote_on_low_windowed_accuracy() {
        // Accuracy-only CLIP with three engines: engine 0 issues through
        // IP A and every prefetch is vindicated by a demand hit; engine 1
        // issues junk through IP B that never hits. The per-engine
        // arbitration must walk engine 1 down the levels while leaving
        // engine 0 at full aggression.
        let cfg = ClipConfig {
            use_criticality_stage: false,
            engines: 3,
            ..ClipConfig::default()
        };
        let mut clip = Clip::new(cfg);
        assert_eq!(clip.num_engines(), 3);
        assert_eq!(clip.engine_levels()[..3], [5, 5, 5]);
        let mut line = 1_000u64;
        for _window in 0..3 {
            for _ in 0..40 {
                line += 1;
                let good = LineAddr::new(line);
                if clip
                    .filter_prefetch_tagged(good, Ip::new(0xA00), 0)
                    .allows()
                {
                    clip.on_demand_access(good);
                }
                line += 1;
                let junk = LineAddr::new(line);
                let _ = clip.filter_prefetch_tagged(junk, Ip::new(0xB00), 1);
            }
            for _ in 0..1024 {
                clip.on_l1_miss();
            }
        }
        let levels = clip.engine_levels();
        assert_eq!(levels[0], 5, "accurate engine keeps full aggression");
        assert!(
            levels[1] <= 3,
            "inaccurate engine must be demoted: {levels:?}"
        );
        let stats = clip.engine_stats();
        assert!(stats[0].issued > 0 && stats[1].issued > 0, "{stats:?}");
        assert!(
            stats[0].accuracy() > stats[1].accuracy(),
            "per-engine accuracy must separate: {stats:?}"
        );
    }

    #[test]
    fn stats_account_for_every_candidate() {
        let mut clip = Clip::new(ClipConfig::default());
        train_critical(&mut clip, 0xB00, 1 << 23);
        for i in 0..500u64 {
            let _ = clip.filter_prefetch(
                LineAddr::new(i * 7),
                Ip::new(if i % 2 == 0 { 0xB00 } else { 0xC00 }),
            );
        }
        let s = clip.stats();
        let sum = s.allowed_critical
            + s.allowed_explore
            + s.dropped_not_critical
            + s.dropped_predicted
            + s.dropped_low_accuracy
            + s.dropped_phase;
        assert_eq!(sum, s.candidates);
    }
}
