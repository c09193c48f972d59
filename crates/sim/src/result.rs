//! Simulation results: everything the figure harness consumes.

use clip_core::ClipStats;
use clip_crit::EvalCounts;
use clip_stats::energy::EnergyCounts;
use clip_stats::{Json, LatencyStat};
use clip_types::{Cycle, MAX_PF_ENGINES};

fn lat_stat_json(s: &LatencyStat) -> Json {
    Json::object([
        ("count", Json::from(s.count)),
        ("total", Json::from(s.total)),
    ])
}

fn eval_counts_json(c: &EvalCounts) -> Json {
    Json::object([
        ("true_positive", Json::from(c.true_positive)),
        ("false_positive", Json::from(c.false_positive)),
        ("false_negative", Json::from(c.false_negative)),
        ("true_negative", Json::from(c.true_negative)),
    ])
}

fn clip_report_json(c: &ClipReport) -> Json {
    let mut fields = vec![
        (
            "stats",
            Json::object([
                ("candidates", Json::from(c.stats.candidates)),
                ("allowed_critical", Json::from(c.stats.allowed_critical)),
                ("allowed_explore", Json::from(c.stats.allowed_explore)),
                (
                    "dropped_not_critical",
                    Json::from(c.stats.dropped_not_critical),
                ),
                ("dropped_predicted", Json::from(c.stats.dropped_predicted)),
                (
                    "dropped_low_accuracy",
                    Json::from(c.stats.dropped_low_accuracy),
                ),
                ("dropped_phase", Json::from(c.stats.dropped_phase)),
                ("phase_changes", Json::from(c.stats.phase_changes)),
                ("windows", Json::from(c.stats.windows)),
            ]),
        ),
        ("eval", eval_counts_json(&c.eval)),
        ("ip_eval", eval_counts_json(&c.ip_eval)),
        ("critical_ips", Json::Float(c.critical_ips)),
        ("dynamic_ips", Json::Float(c.dynamic_ips)),
    ];
    // Per-engine counters exist only for composite ensembles; the key is
    // omitted entirely otherwise so single-engine artifacts (and their
    // committed goldens) are byte-identical to the pre-composite schema.
    if c.num_engines > 0 {
        fields.push((
            "engines",
            Json::array(
                c.engines[..c.num_engines.min(MAX_PF_ENGINES)]
                    .iter()
                    .map(|e| {
                        Json::object([
                            ("issued", Json::from(e.issued)),
                            ("hits", Json::from(e.hits)),
                            ("min_level", Json::from(u64::from(e.min_level))),
                        ])
                    }),
            ),
        ));
    }
    if let Some(g) = c.governor {
        fields.push((
            "governor",
            Json::object([
                ("bypassed", Json::from(g.bypassed)),
                ("mode_switches", Json::from(g.mode_switches)),
            ]),
        ));
    }
    Json::object(fields)
}

/// Per-level demand latency aggregation for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyReport {
    /// Latency of demand loads that missed the L1 (all outstanding txns).
    pub l1_miss: LatencyStat,
    /// Demand loads serviced by the L2.
    pub by_l2: LatencyStat,
    /// Demand loads serviced by an LLC slice.
    pub by_llc: LatencyStat,
    /// Demand loads serviced by DRAM.
    pub by_dram: LatencyStat,
}

impl LatencyReport {
    /// The observations added since `earlier`, a copy of this report
    /// taken before.
    pub(crate) fn since(&self, earlier: &LatencyReport) -> LatencyReport {
        LatencyReport {
            l1_miss: self.l1_miss.since(&earlier.l1_miss),
            by_l2: self.by_l2.since(&earlier.by_l2),
            by_llc: self.by_llc.since(&earlier.by_llc),
            by_dram: self.by_dram.since(&earlier.by_dram),
        }
    }
}

/// Prefetch effectiveness aggregates across a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchReport {
    /// Candidates produced by the prefetcher(s) before any gating.
    pub candidates: u64,
    /// Prefetch transactions actually sent into the hierarchy.
    pub issued: u64,
    /// Prefetched lines touched by demand (useful).
    pub useful: u64,
    /// Prefetched lines evicted untouched (useless).
    pub useless: u64,
    /// Demands that merged into an in-flight prefetch (late prefetches).
    pub late: u64,
}

impl PrefetchReport {
    /// Prefetch accuracy: useful / resolved.
    pub fn accuracy(&self) -> f64 {
        let resolved = self.useful + self.useless;
        if resolved == 0 {
            1.0
        } else {
            self.useful as f64 / resolved as f64
        }
    }

    /// Lateness: late / (late + useful on time). Late prefetches are also
    /// useful by the paper's definition.
    pub fn lateness(&self) -> f64 {
        let useful_any = self.useful + self.late;
        if useful_any == 0 {
            0.0
        } else {
            self.late as f64 / useful_any as f64
        }
    }
}

/// Per-cache-level demand-miss counts (for the miss-coverage figure).
#[derive(Debug, Clone, Copy, Default)]
pub struct MissReport {
    /// Demand accesses / misses at L1D.
    pub l1_accesses: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L2 demand accesses.
    pub l2_accesses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// LLC demand accesses.
    pub llc_accesses: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
}

/// CLIP's view of one engine of a composite ensemble, aggregated over
/// all cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClipEngineReport {
    /// Prefetches CLIP let through for this engine (all cores).
    pub issued: u64,
    /// Demand hits the utility buffers credited to this engine.
    pub hits: u64,
    /// Lowest arbitration level (1..=5) any core ended the run at — the
    /// most-starved view of the engine.
    pub min_level: u8,
}

/// The §5.3 bandwidth governor's side of a DynCLIP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorReport {
    /// Candidates passed while the governor bypassed CLIP. CLIP never
    /// examined them, so they are not in [`ClipReport::stats`].
    pub bypassed: u64,
    /// Times the governor switched between filtering and bypassing.
    pub mode_switches: u64,
}

/// CLIP-specific outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClipReport {
    /// Gate statistics (candidates, drops by reason).
    pub stats: ClipStats,
    /// Critical-load prediction confusion counts at instance granularity.
    pub eval: EvalCounts,
    /// Critical-load prediction confusion counts at IP-set granularity —
    /// the metric of Figures 4/13/14 ("predicting critical load IPs").
    pub ip_eval: EvalCounts,
    /// Critical-and-accurate IPs at the end of the run, averaged per core.
    pub critical_ips: f64,
    /// IPs that flipped predicted criticality at least once
    /// (dynamic-critical, Figure 15), averaged per core.
    pub dynamic_ips: f64,
    /// Per-engine accuracy counters (composite ensembles only; slots past
    /// `num_engines` stay zero).
    pub engines: [ClipEngineReport; MAX_PF_ENGINES],
    /// Engines CLIP arbitrated between; 0 for single-engine runs, which
    /// also suppresses the `engines` key in the JSON artifact.
    pub num_engines: usize,
    /// The governor's counts (DynCLIP only; `None` also suppresses the
    /// `governor` key in the JSON artifact).
    pub governor: Option<GovernorReport>,
}

/// The complete result of simulating one mix under one scheme.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Label (scheme + mix).
    pub label: String,
    /// Per-core IPC over the measured window.
    pub per_core_ipc: Vec<f64>,
    /// Cycles in the measured window (to global completion).
    pub cycles: Cycle,
    /// Demand latency aggregation.
    pub latency: LatencyReport,
    /// Prefetch effectiveness.
    pub prefetch: PrefetchReport,
    /// Demand miss counts by level.
    pub misses: MissReport,
    /// DRAM reads + writes serviced.
    pub dram_transfers: u64,
    /// DRAM row hits among those.
    pub dram_row_hits: u64,
    /// Overall DRAM bandwidth utilization in \[0,1\].
    pub dram_bw_util: f64,
    /// Maximum single-channel utilization (what DSPatch samples).
    pub dram_max_channel_util: f64,
    /// NoC flit-hops (energy).
    pub noc_flit_hops: u64,
    /// CLIP outputs when CLIP was enabled.
    pub clip: Option<ClipReport>,
    /// Baseline criticality predictor evaluations (Figure 4), when
    /// requested: (name, counts).
    pub baseline_evals: Vec<(&'static str, EvalCounts)>,
    /// Energy event counts for the energy model.
    pub energy: EnergyCounts,
    /// Per-window state fingerprints, captured at every enabled check
    /// level (empty with audits off; see [`crate::fingerprint`]).
    /// Deliberately excluded from [`SimResult::to_json`] — artifacts stay
    /// byte-identical whether or not fingerprints were captured — so they
    /// do not survive a disk-cache round trip. Cross-run persistence goes through the
    /// separate `clip-bench` fingerprint-baseline store (`target/clip-fp/`,
    /// gated by `CLIP_FP_BASELINE`), which serializes this stream via
    /// [`crate::fingerprint::stream_to_json`] instead.
    pub fingerprints: Vec<crate::fingerprint::WindowFingerprint>,
}

impl SimResult {
    /// Serializes the result as a JSON object whose keys mirror the
    /// struct fields exactly (what a derive-based serializer would emit),
    /// so external consumers can rely on the Rust names.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("label", Json::from(self.label.as_str())),
            (
                "per_core_ipc",
                Json::array(self.per_core_ipc.iter().map(|&x| Json::Float(x))),
            ),
            ("cycles", Json::from(self.cycles)),
            (
                "latency",
                Json::object([
                    ("l1_miss", lat_stat_json(&self.latency.l1_miss)),
                    ("by_l2", lat_stat_json(&self.latency.by_l2)),
                    ("by_llc", lat_stat_json(&self.latency.by_llc)),
                    ("by_dram", lat_stat_json(&self.latency.by_dram)),
                ]),
            ),
            (
                "prefetch",
                Json::object([
                    ("candidates", Json::from(self.prefetch.candidates)),
                    ("issued", Json::from(self.prefetch.issued)),
                    ("useful", Json::from(self.prefetch.useful)),
                    ("useless", Json::from(self.prefetch.useless)),
                    ("late", Json::from(self.prefetch.late)),
                ]),
            ),
            (
                "misses",
                Json::object([
                    ("l1_accesses", Json::from(self.misses.l1_accesses)),
                    ("l1_misses", Json::from(self.misses.l1_misses)),
                    ("l2_accesses", Json::from(self.misses.l2_accesses)),
                    ("l2_misses", Json::from(self.misses.l2_misses)),
                    ("llc_accesses", Json::from(self.misses.llc_accesses)),
                    ("llc_misses", Json::from(self.misses.llc_misses)),
                ]),
            ),
            ("dram_transfers", Json::from(self.dram_transfers)),
            ("dram_row_hits", Json::from(self.dram_row_hits)),
            ("dram_bw_util", Json::Float(self.dram_bw_util)),
            (
                "dram_max_channel_util",
                Json::Float(self.dram_max_channel_util),
            ),
            ("noc_flit_hops", Json::from(self.noc_flit_hops)),
            (
                "clip",
                match &self.clip {
                    Some(c) => clip_report_json(c),
                    None => Json::Null,
                },
            ),
            (
                "baseline_evals",
                Json::array(self.baseline_evals.iter().map(|(name, counts)| {
                    Json::object([
                        ("name", Json::from(*name)),
                        ("counts", eval_counts_json(counts)),
                    ])
                })),
            ),
            (
                "energy",
                Json::object([
                    ("l1_reads", Json::from(self.energy.l1_reads)),
                    ("l1_writes", Json::from(self.energy.l1_writes)),
                    ("l2_reads", Json::from(self.energy.l2_reads)),
                    ("l2_writes", Json::from(self.energy.l2_writes)),
                    ("llc_reads", Json::from(self.energy.llc_reads)),
                    ("llc_writes", Json::from(self.energy.llc_writes)),
                    ("dram_row_hits", Json::from(self.energy.dram_row_hits)),
                    ("dram_row_misses", Json::from(self.energy.dram_row_misses)),
                    ("noc_flit_hops", Json::from(self.energy.noc_flit_hops)),
                    ("clip_lookups", Json::from(self.energy.clip_lookups)),
                ]),
            ),
        ])
    }

    /// Parses a result back from the [`SimResult::to_json`] schema.
    ///
    /// Returns `None` on any shape mismatch — callers (the on-disk
    /// baseline cache) treat that as a cache miss and recompute. Finite
    /// floats round-trip exactly; a result containing non-finite floats
    /// (rendered as `null`) does not parse back.
    pub fn from_json(v: &Json) -> Option<SimResult> {
        let f = |node: &Json, key: &str| node.get(key)?.as_f64();
        let u = |node: &Json, key: &str| node.get(key)?.as_u64();
        let lat = |node: &Json, key: &str| -> Option<LatencyStat> {
            let s = node.get(key)?;
            Some(LatencyStat {
                count: u(s, "count")?,
                total: u(s, "total")?,
            })
        };
        let eval = |node: &Json| -> Option<EvalCounts> {
            Some(EvalCounts {
                true_positive: u(node, "true_positive")?,
                false_positive: u(node, "false_positive")?,
                false_negative: u(node, "false_negative")?,
                true_negative: u(node, "true_negative")?,
            })
        };

        let latency = v.get("latency")?;
        let prefetch = v.get("prefetch")?;
        let misses = v.get("misses")?;
        let energy = v.get("energy")?;

        let clip = match v.get("clip")? {
            Json::Null => None,
            c => {
                let s = c.get("stats")?;
                Some(ClipReport {
                    stats: ClipStats {
                        candidates: u(s, "candidates")?,
                        allowed_critical: u(s, "allowed_critical")?,
                        allowed_explore: u(s, "allowed_explore")?,
                        dropped_not_critical: u(s, "dropped_not_critical")?,
                        dropped_predicted: u(s, "dropped_predicted")?,
                        dropped_low_accuracy: u(s, "dropped_low_accuracy")?,
                        dropped_phase: u(s, "dropped_phase")?,
                        phase_changes: u(s, "phase_changes")?,
                        windows: u(s, "windows")?,
                    },
                    eval: eval(c.get("eval")?)?,
                    ip_eval: eval(c.get("ip_eval")?)?,
                    critical_ips: f(c, "critical_ips")?,
                    dynamic_ips: f(c, "dynamic_ips")?,
                    // The `engines` key is optional (absent for every
                    // single-engine run and for artifacts written before
                    // the composite schema existed).
                    engines: {
                        let mut engines = [ClipEngineReport::default(); MAX_PF_ENGINES];
                        if let Some(arr) = c.get("engines").and_then(|e| e.as_array()) {
                            for (slot, entry) in engines.iter_mut().zip(arr) {
                                *slot = ClipEngineReport {
                                    issued: u(entry, "issued")?,
                                    hits: u(entry, "hits")?,
                                    min_level: u8::try_from(u(entry, "min_level")?).ok()?,
                                };
                            }
                        }
                        engines
                    },
                    num_engines: match c.get("engines").and_then(|e| e.as_array()) {
                        Some(arr) => arr.len().min(MAX_PF_ENGINES),
                        None => 0,
                    },
                    // Present for DynCLIP runs only.
                    governor: match c.get("governor") {
                        Some(g) => Some(GovernorReport {
                            bypassed: u(g, "bypassed")?,
                            mode_switches: u(g, "mode_switches")?,
                        }),
                        None => None,
                    },
                })
            }
        };

        let mut baseline_evals = Vec::new();
        for entry in v.get("baseline_evals")?.as_array()? {
            // Names are interned against the known predictor set: the
            // field is `&'static str` in the live struct.
            let name = intern_predictor_name(entry.get("name")?.as_str()?)?;
            baseline_evals.push((name, eval(entry.get("counts")?)?));
        }

        Some(SimResult {
            label: v.get("label")?.as_str()?.to_owned(),
            per_core_ipc: v
                .get("per_core_ipc")?
                .as_array()?
                .iter()
                .map(|x| x.as_f64())
                .collect::<Option<Vec<f64>>>()?,
            cycles: u(v, "cycles")?,
            latency: LatencyReport {
                l1_miss: lat(latency, "l1_miss")?,
                by_l2: lat(latency, "by_l2")?,
                by_llc: lat(latency, "by_llc")?,
                by_dram: lat(latency, "by_dram")?,
            },
            prefetch: PrefetchReport {
                candidates: u(prefetch, "candidates")?,
                issued: u(prefetch, "issued")?,
                useful: u(prefetch, "useful")?,
                useless: u(prefetch, "useless")?,
                late: u(prefetch, "late")?,
            },
            misses: MissReport {
                l1_accesses: u(misses, "l1_accesses")?,
                l1_misses: u(misses, "l1_misses")?,
                l2_accesses: u(misses, "l2_accesses")?,
                l2_misses: u(misses, "l2_misses")?,
                llc_accesses: u(misses, "llc_accesses")?,
                llc_misses: u(misses, "llc_misses")?,
            },
            dram_transfers: u(v, "dram_transfers")?,
            dram_row_hits: u(v, "dram_row_hits")?,
            dram_bw_util: f(v, "dram_bw_util")?,
            dram_max_channel_util: f(v, "dram_max_channel_util")?,
            noc_flit_hops: u(v, "noc_flit_hops")?,
            clip,
            baseline_evals,
            energy: EnergyCounts {
                l1_reads: u(energy, "l1_reads")?,
                l1_writes: u(energy, "l1_writes")?,
                l2_reads: u(energy, "l2_reads")?,
                l2_writes: u(energy, "l2_writes")?,
                llc_reads: u(energy, "llc_reads")?,
                llc_writes: u(energy, "llc_writes")?,
                dram_row_hits: u(energy, "dram_row_hits")?,
                dram_row_misses: u(energy, "dram_row_misses")?,
                noc_flit_hops: u(energy, "noc_flit_hops")?,
                clip_lookups: u(energy, "clip_lookups")?,
            },
            // Never serialized (see the field docs): a cache round trip
            // yields a result without fingerprints.
            fingerprints: Vec::new(),
        })
    }

    /// Mean IPC across cores.
    pub fn mean_ipc(&self) -> f64 {
        if self.per_core_ipc.is_empty() {
            return 0.0;
        }
        self.per_core_ipc.iter().sum::<f64>() / self.per_core_ipc.len() as f64
    }
}

/// Maps a parsed predictor name back to its `&'static str` (the live
/// struct stores static names). Unknown names fail the whole parse.
fn intern_predictor_name(name: &str) -> Option<&'static str> {
    clip_crit::BaselineKind::all()
        .into_iter()
        .map(|k| clip_crit::build(k).name())
        .find(|&n| n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_report_metrics() {
        let p = PrefetchReport {
            candidates: 100,
            issued: 80,
            useful: 60,
            useless: 20,
            late: 15,
        };
        assert!((p.accuracy() - 0.75).abs() < 1e-12);
        assert!((p.lateness() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_reports_are_neutral() {
        let p = PrefetchReport::default();
        assert_eq!(p.accuracy(), 1.0);
        assert_eq!(p.lateness(), 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let r = SimResult {
            label: "berti/mix0".into(),
            per_core_ipc: vec![1.25, 0.5],
            cycles: 1234,
            latency: LatencyReport {
                l1_miss: LatencyStat {
                    count: 3,
                    total: 99,
                },
                ..LatencyReport::default()
            },
            prefetch: PrefetchReport {
                candidates: 10,
                issued: 8,
                useful: 5,
                useless: 2,
                late: 1,
            },
            dram_transfers: 77,
            dram_bw_util: 0.375,
            clip: Some(ClipReport {
                critical_ips: 4.5,
                engines: {
                    let mut e = [ClipEngineReport::default(); MAX_PF_ENGINES];
                    e[0] = ClipEngineReport {
                        issued: 40,
                        hits: 30,
                        min_level: 5,
                    };
                    e[1] = ClipEngineReport {
                        issued: 12,
                        hits: 1,
                        min_level: 2,
                    };
                    e
                },
                num_engines: 2,
                governor: Some(GovernorReport {
                    bypassed: 9,
                    mode_switches: 3,
                }),
                ..ClipReport::default()
            }),
            baseline_evals: vec![(
                "FVP",
                EvalCounts {
                    true_positive: 7,
                    ..EvalCounts::default()
                },
            )],
            ..SimResult::default()
        };
        let text = r.to_json().render();
        let back = SimResult::from_json(&Json::parse(&text).expect("parses")).expect("roundtrips");
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.per_core_ipc, r.per_core_ipc);
        assert_eq!(back.baseline_evals[0].0, "FVP");
        let clip = back.clip.expect("clip present");
        assert_eq!(clip.num_engines, 2);
        assert_eq!(clip.engines[1].hits, 1);
        assert_eq!(clip.engines[2], ClipEngineReport::default());
        assert_eq!(
            clip.governor,
            Some(GovernorReport {
                bypassed: 9,
                mode_switches: 3
            })
        );

        // Single-engine reports without a governor omit both keys,
        // keeping plain-CLIP artifacts byte-identical to the schema
        // before either existed.
        let solo = SimResult {
            clip: Some(ClipReport::default()),
            ..SimResult::default()
        };
        let solo_text = solo.to_json().render();
        assert!(!solo_text.contains("\"engines\""));
        assert!(!solo_text.contains("\"governor\""));
        let solo_back =
            SimResult::from_json(&Json::parse(&solo_text).expect("parses")).expect("roundtrips");
        let solo_clip = solo_back.clip.expect("clip present");
        assert_eq!(solo_clip.num_engines, 0);
        assert_eq!(solo_clip.governor, None);

        // Unknown predictor names must fail the parse, not alias.
        let bad = text.replace("\"FVP\"", "\"NOPE\"");
        assert!(SimResult::from_json(&Json::parse(&bad).expect("parses")).is_none());
    }

    #[test]
    fn mean_ipc() {
        let r = SimResult {
            per_core_ipc: vec![1.0, 3.0],
            ..SimResult::default()
        };
        assert!((r.mean_ipc() - 2.0).abs() < 1e-12);
    }
}
