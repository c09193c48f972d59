//! Prediction accuracy / coverage evaluation (Figure 4's metrics).
//!
//! For every completed load serviced beyond the L1, the evaluator samples
//! the predictor *before* training it, then scores:
//!
//! * **accuracy** — of the instances predicted critical, how many truly
//!   stalled the ROB head (TP / (TP + FP));
//! * **coverage** — of the truly critical instances, how many were
//!   predicted (TP / (TP + FN)).

use crate::CriticalityPredictor;
use clip_cpu::LoadOutcome;

/// Confusion counts over dynamic load instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounts {
    /// Predicted critical, was critical.
    pub true_positive: u64,
    /// Predicted critical, was not.
    pub false_positive: u64,
    /// Not predicted, was critical.
    pub false_negative: u64,
    /// Not predicted, was not critical.
    pub true_negative: u64,
}

impl EvalCounts {
    /// Prediction accuracy (precision). 1.0 when nothing was predicted.
    pub fn accuracy(&self) -> f64 {
        let p = self.true_positive + self.false_positive;
        if p == 0 {
            1.0
        } else {
            self.true_positive as f64 / p as f64
        }
    }

    /// Prediction coverage (recall). 1.0 when nothing was critical.
    pub fn coverage(&self) -> f64 {
        let c = self.true_positive + self.false_negative;
        if c == 0 {
            1.0
        } else {
            self.true_positive as f64 / c as f64
        }
    }

    /// Total events scored.
    pub fn total(&self) -> u64 {
        self.true_positive + self.false_positive + self.false_negative + self.true_negative
    }
}

/// Wraps a predictor, scoring each event before training on it.
///
/// Two granularities are tracked:
///
/// * **instance-level** ([`PredictorEvaluator::counts`]) — every dynamic
///   load beyond the L1 is scored;
/// * **IP-set level** ([`PredictorEvaluator::ip_counts`]) — the paper's
///   Figure 4 metric: the set of IPs ever predicted critical against the
///   set of IPs that ever stalled the ROB head while serviced beyond L1.
pub struct PredictorEvaluator {
    predictor: Box<dyn CriticalityPredictor>,
    counts: EvalCounts,
    /// Per-IP record: (head-stall count, predicted-critical at least once).
    ips: std::collections::HashMap<u64, (u32, bool)>,
}

/// Head-of-ROB stalls before an IP counts as *actually* critical at the
/// IP-set granularity — aligned with CLIP's own criticality-count
/// threshold (§4.2), so rare incidental stallers do not make every
/// over-tagging predictor look accurate.
pub const IP_CRITICAL_STALLS: u32 = 4;

impl std::fmt::Debug for PredictorEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorEvaluator")
            .field("predictor", &self.predictor.name())
            .field("counts", &self.counts)
            .finish()
    }
}

impl PredictorEvaluator {
    /// Wraps `predictor` for evaluation.
    pub fn new(predictor: Box<dyn CriticalityPredictor>) -> Self {
        PredictorEvaluator {
            predictor,
            counts: EvalCounts::default(),
            ips: std::collections::HashMap::new(),
        }
    }

    /// Scores and then trains on a completed load. Only loads serviced
    /// beyond the L1 are scored (an L1 prefetcher cannot help L1 hits —
    /// §4 of the paper).
    pub fn observe(&mut self, outcome: &LoadOutcome) {
        if outcome.level.is_beyond_l1() {
            let predicted = self.predictor.predict(outcome.ip, outcome.addr);
            let actual = outcome.stalled_head;
            match (predicted, actual) {
                (true, true) => self.counts.true_positive += 1,
                (true, false) => self.counts.false_positive += 1,
                (false, true) => self.counts.false_negative += 1,
                (false, false) => self.counts.true_negative += 1,
            }
            let rec = self.ips.entry(outcome.ip.raw()).or_insert((0, false));
            if actual {
                rec.0 += 1;
            }
            if predicted {
                rec.1 = true;
            }
        }
        self.predictor.on_load_complete(outcome);
    }

    /// IP-set confusion counts (the Figure 4 granularity): an IP is
    /// *actually* critical when it stalled the ROB head at least
    /// [`IP_CRITICAL_STALLS`] times.
    pub fn ip_counts(&self) -> EvalCounts {
        let mut c = EvalCounts::default();
        for &(stalls, predicted) in self.ips.values() {
            match (predicted, stalls >= IP_CRITICAL_STALLS) {
                (true, true) => c.true_positive += 1,
                (true, false) => c.false_positive += 1,
                (false, true) => c.false_negative += 1,
                (false, false) => c.true_negative += 1,
            }
        }
        c
    }

    /// The wrapped predictor's name.
    pub fn name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Scores so far.
    pub fn counts(&self) -> EvalCounts {
        self.counts
    }

    /// Direct access to the wrapped predictor (e.g. to gate prefetching).
    pub fn predictor(&self) -> &dyn CriticalityPredictor {
        self.predictor.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, BaselineKind};
    use clip_types::{Addr, Ip, MemLevel};

    fn outcome(ip: u64, level: MemLevel, stalled: bool) -> LoadOutcome {
        LoadOutcome {
            ip: Ip::new(ip),
            addr: Addr::new(0x40),
            level,
            stalled_head: stalled,
            stall_cycles: if stalled { 50 } else { 0 },
            rob_occupancy: 400,
            outstanding_loads: 1,
            done_cycle: 0,
            latency: 150,
        }
    }

    #[test]
    fn counts_partition_events() {
        let mut ev = PredictorEvaluator::new(build(BaselineKind::Fvp));
        for i in 0..100u64 {
            ev.observe(&outcome(0x20, MemLevel::Dram, i % 2 == 0));
        }
        assert_eq!(ev.counts().total(), 100);
    }

    #[test]
    fn static_overpredictor_has_high_coverage_low_accuracy() {
        // FVP tags the IP after the first event; afterwards every instance
        // is predicted critical even though only half are.
        let mut ev = PredictorEvaluator::new(build(BaselineKind::Fvp));
        for i in 0..1000u64 {
            ev.observe(&outcome(0x30, MemLevel::Dram, i % 2 == 0));
        }
        let c = ev.counts();
        assert!(c.coverage() > 0.95, "coverage {}", c.coverage());
        assert!(c.accuracy() < 0.6, "accuracy {}", c.accuracy());
    }

    #[test]
    fn l1_hits_are_not_scored() {
        let mut ev = PredictorEvaluator::new(build(BaselineKind::Fp));
        for _ in 0..50 {
            ev.observe(&outcome(0x40, MemLevel::L1, false));
        }
        assert_eq!(ev.counts().total(), 0);
    }

    #[test]
    fn empty_counts_have_unit_metrics() {
        let c = EvalCounts::default();
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.coverage(), 1.0);
    }
}
