//! Human-readable reports over [`SimResult`]s: the formatting used by the
//! `clipsim` CLI and handy for ad-hoc analysis in tests and notebooks.

use crate::result::SimResult;
use clip_stats::normalized_weighted_speedup;
use std::fmt;

/// A side-by-side comparison of a scheme against its no-prefetch baseline.
#[derive(Debug, Clone)]
pub struct ComparisonReport<'a> {
    /// Scheme label shown in the header.
    pub label: String,
    /// The scheme's result.
    pub result: &'a SimResult,
    /// The no-prefetch baseline on the same platform and mix.
    pub baseline: &'a SimResult,
}

impl<'a> ComparisonReport<'a> {
    /// Builds a comparison report.
    pub fn new(label: impl Into<String>, result: &'a SimResult, baseline: &'a SimResult) -> Self {
        ComparisonReport {
            label: label.into(),
            result,
            baseline,
        }
    }

    /// Normalized weighted speedup vs the baseline.
    pub fn normalized_ws(&self) -> f64 {
        normalized_weighted_speedup(&self.result.per_core_ipc, &self.baseline.per_core_ipc)
    }
}

impl fmt::Display for ComparisonReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.result;
        let b = self.baseline;
        writeln!(f, "scheme              : {}", self.label)?;
        writeln!(
            f,
            "normalized WS       : {:.3}  (no-prefetch = 1.000)",
            self.normalized_ws()
        )?;
        writeln!(
            f,
            "mean IPC            : {:.3} (baseline {:.3})",
            r.mean_ipc(),
            b.mean_ipc()
        )?;
        writeln!(
            f,
            "L1 miss latency     : {:.0} cycles (baseline {:.0})",
            r.latency.l1_miss.avg(),
            b.latency.l1_miss.avg()
        )?;
        writeln!(
            f,
            "  by service level  : L2 {:.0} / LLC {:.0} / DRAM {:.0} cycles",
            r.latency.by_l2.avg(),
            r.latency.by_llc.avg(),
            r.latency.by_dram.avg()
        )?;
        writeln!(
            f,
            "demand misses       : L1 {} / L2 {} / LLC {} (baseline {} / {} / {})",
            r.misses.l1_misses,
            r.misses.l2_misses,
            r.misses.llc_misses,
            b.misses.l1_misses,
            b.misses.l2_misses,
            b.misses.llc_misses
        )?;
        writeln!(
            f,
            "prefetches          : {} issued, {:.1}% accurate, {:.1}% late",
            r.prefetch.issued,
            r.prefetch.accuracy() * 100.0,
            r.prefetch.lateness() * 100.0
        )?;
        write!(
            f,
            "DRAM                : {} transfers ({} baseline), {:.0}% bandwidth utilization",
            r.dram_transfers,
            b.dram_transfers,
            r.dram_bw_util * 100.0
        )?;
        if let Some(c) = &r.clip {
            writeln!(f)?;
            // A governor that bypassed all window long leaves CLIP no
            // candidate to drop, and a 0% drop rate would misread as
            // CLIP passing everything it saw.
            let gate = if c.stats.candidates == 0 {
                "no candidate examined".to_string()
            } else {
                format!("{:.0}% of candidates dropped", c.stats.drop_rate() * 100.0)
            };
            write!(
                f,
                "CLIP                : {gate}, {:.1} critical IPs/core ({:.1} dynamic)",
                c.critical_ips, c.dynamic_ips
            )?;
            // DynCLIP: the candidates the governor passed unexamined are
            // not in the drop rate.
            if let Some(g) = c.governor {
                write!(
                    f,
                    "; governor bypassed {} candidates, {} mode switches",
                    g.bypassed, g.mode_switches
                )?;
            }
            writeln!(f)?;
            write!(
                f,
                "CLIP prediction     : {:.0}% accuracy / {:.0}% coverage (critical IPs)",
                c.ip_eval.accuracy() * 100.0,
                c.ip_eval.coverage() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{MissReport, PrefetchReport};

    fn result(ipc: f64) -> SimResult {
        SimResult {
            per_core_ipc: vec![ipc; 4],
            misses: MissReport {
                l1_accesses: 1000,
                l1_misses: 100,
                ..MissReport::default()
            },
            prefetch: PrefetchReport {
                issued: 50,
                useful: 40,
                useless: 10,
                ..PrefetchReport::default()
            },
            dram_transfers: 120,
            ..SimResult::default()
        }
    }

    #[test]
    fn normalized_ws_matches_ratio() {
        let r = result(0.5);
        let b = result(0.4);
        let rep = ComparisonReport::new("Berti", &r, &b);
        assert!((rep.normalized_ws() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn display_has_every_section() {
        let r = result(0.5);
        let b = result(0.4);
        let s = ComparisonReport::new("Berti", &r, &b).to_string();
        for needle in [
            "scheme",
            "normalized WS",
            "L1 miss latency",
            "prefetches",
            "DRAM",
        ] {
            assert!(s.contains(needle), "missing section {needle}: {s}");
        }
        assert!(
            !s.contains("CLIP prediction"),
            "no CLIP section without CLIP"
        );
    }

    #[test]
    fn display_includes_clip_when_present() {
        let clip_line = |r: &SimResult| {
            let s = ComparisonReport::new("Berti+CLIP", r, &result(0.4)).to_string();
            assert!(s.contains("CLIP prediction"));
            let line = s.lines().find(|l| l.starts_with("CLIP   "));
            line.expect("CLIP line").to_string()
        };
        let mut r = result(0.6);
        let mut clip = crate::result::ClipReport::default();
        clip.stats.candidates = 8;
        clip.stats.dropped_not_critical = 2;
        r.clip = Some(clip);
        assert_eq!(
            clip_line(&r),
            "CLIP                : 25% of candidates dropped, 0.0 critical IPs/core (0.0 dynamic)",
            "no governor counts without one"
        );

        // A governor that bypassed the whole window left CLIP nothing to
        // examine: no drop rate is printed.
        r.clip = Some(crate::result::ClipReport {
            governor: Some(crate::result::GovernorReport {
                bypassed: 9002,
                mode_switches: 1,
            }),
            ..crate::result::ClipReport::default()
        });
        assert_eq!(
            clip_line(&r),
            "CLIP                : no candidate examined, 0.0 critical IPs/core (0.0 dynamic); \
             governor bypassed 9002 candidates, 1 mode switches"
        );
    }
}
