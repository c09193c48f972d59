//! The figure/table registry: the one list of the paper's figures and
//! tables, each entry a spec builder.
//!
//! Each entry maps a name (`fig01` … `table3`, `summary`, `probe`) to a
//! function producing its [`Experiment`] specs; the `all_figures` binary
//! runs the whole `in_all` sweep, or the entries named on its command
//! line (`all_figures fig02`). Adding a figure is one entry here. Titles,
//! headers, and cell formatting reproduce the historical per-figure
//! output byte for byte.

use crate::experiment::{
    CellSpec, Experiment, ExperimentData, Normalization, Render, RowSpec, TableBody,
};
use crate::{fmt, place, scaled_channels, Scale};
use clip_core::ClipConfig;
use clip_crit::{BaselineKind, EvalCounts};
use clip_sim::{NocChoice, RunOptions, Scheme};
use clip_stats::geomean;
use clip_throttle::ThrottlerKind;
use clip_trace::Mix;
use clip_types::{DramConfig, DramKind, PrefetcherKind, SimConfig};
use std::collections::HashMap;

/// One registered figure or table.
pub struct FigureEntry {
    /// Name on the `all_figures` command line and in `index.json`.
    pub name: &'static str,
    /// Included in the `all_figures` sweep (the EXPERIMENTS.md set)?
    pub in_all: bool,
    /// Builds the specs this entry runs, in print order.
    pub build: fn(&Scale) -> Vec<Experiment>,
}

/// Every figure and table, in `all_figures` order (the two
/// development harnesses, `summary` and `probe`, come last and are
/// excluded from the sweep).
pub fn registry() -> Vec<FigureEntry> {
    let e = |name: &'static str, in_all: bool, build: fn(&Scale) -> Vec<Experiment>| FigureEntry {
        name,
        in_all,
        build,
    };
    vec![
        e("table3", true, table3),
        e("table2", true, table2),
        e("fig01", true, fig01),
        e("fig02", true, fig02),
        e("fig03", true, fig03),
        e("fig04", true, fig04),
        e("fig05", true, fig05),
        e("fig06", true, fig06),
        e("fig09", true, fig09),
        e("fig10", true, fig10),
        e("fig11", true, fig11),
        e("fig12", true, fig12),
        e("fig13", true, fig13),
        e("fig14", true, fig14),
        e("fig15", true, fig15),
        e("fig16", true, fig16),
        e("fig17", true, fig17),
        e("fig18", true, fig18),
        e("fig19", true, fig19),
        e("fig20", true, fig20),
        e("fig21", true, fig21),
        e("energy", true, energy),
        e("sens_cores", true, sens_cores),
        e("sens_llc", true, sens_llc),
        e("ablation", true, ablation),
        e("dynclip", true, dynclip),
        e("backends", true, backends),
        e("composite", true, composite),
        e("summary", false, summary),
        e("probe", false, probe),
    ]
}

// ----------------------------------------------------------------------
// Shared builders.
// ----------------------------------------------------------------------

const KINDS: [PrefetcherKind; 4] = [
    PrefetcherKind::Berti,
    PrefetcherKind::Ipcp,
    PrefetcherKind::Bingo,
    PrefetcherKind::SppPpf,
];

fn kind_cfg(scale: &Scale, channels: usize, kind: PrefetcherKind) -> SimConfig {
    let (l1, l2) = place(kind);
    scale.config(channels, l1, l2)
}

fn berti_cell(scale: &Scale, channels: usize, scheme: Scheme) -> CellSpec {
    CellSpec {
        cfg: kind_cfg(scale, channels, PrefetcherKind::Berti),
        scheme,
    }
}

fn cols(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn all_mixes(scale: &Scale) -> Vec<Mix> {
    let mut mixes = scale.sample_homogeneous();
    mixes.extend(scale.sample_heterogeneous());
    mixes
}

/// Figures 1/2: the four prefetchers vs channel count, geomean WS.
fn prefetcher_sweep(scale: &Scale, mixes: Vec<Mix>, name: &str, title: String) -> Experiment {
    Experiment {
        name: name.to_string(),
        title,
        columns: cols(&[
            "channels(paper)",
            "channels(run)",
            "Berti",
            "IPCP",
            "Bingo",
            "SPP-PPF",
        ]),
        rows: [4usize, 8, 16, 32, 64]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string(), ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: KINDS
                        .into_iter()
                        .map(|kind| CellSpec {
                            cfg: kind_cfg(scale, ch, kind),
                            scheme: Scheme::plain(),
                        })
                        .collect(),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

/// Figures 5/6/21 share this shape: Berti plus scheme variants at
/// 4/8/16-channel-equivalents.
fn berti_scheme_sweep(
    scale: &Scale,
    mixes: &[Mix],
    name: String,
    title: String,
    columns: Vec<String>,
    schemes: Vec<Scheme>,
) -> Experiment {
    Experiment {
        name,
        title,
        columns,
        rows: [4usize, 8, 16]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string()],
                    extra: vec![],
                    mixes: mixes.to_vec(),
                    cells: schemes
                        .iter()
                        .map(|s| berti_cell(scale, ch, s.clone()))
                        .collect(),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

/// Figures 10-16 and energy: one row per sampled homogeneous mix at the
/// 8-channel-equivalent, with the given cells.
fn per_mix_rows(scale: &Scale, cells: Vec<CellSpec>) -> Vec<RowSpec> {
    scale
        .sample_homogeneous()
        .into_iter()
        .map(|mix| RowSpec {
            labels: vec![mix.name.clone()],
            extra: vec![],
            mixes: vec![mix],
            cells: cells.clone(),
        })
        .collect()
}

fn berti_clip_cells(scale: &Scale, channels: usize) -> Vec<CellSpec> {
    vec![
        berti_cell(scale, channels, Scheme::plain()),
        berti_cell(scale, channels, Scheme::with_clip()),
    ]
}

// ----------------------------------------------------------------------
// Tables.
// ----------------------------------------------------------------------

/// Table 2: storage overhead of CLIP (1.56 KB per core), derived from the
/// live configuration.
fn table2(scale: &Scale) -> Vec<Experiment> {
    fn body(_d: &ExperimentData) -> TableBody {
        let cfg = ClipConfig::default();
        let r = clip_core::StorageReport::for_config(&cfg);
        TableBody {
            rows: vec![],
            notes: vec![
                format!("{r}"),
                String::new(),
                format!(
                    "paper reports 1.56 KB/core; this configuration: {:.2} KB/core",
                    r.total_kib()
                ),
            ],
        }
    }
    vec![Experiment {
        name: "table2".into(),
        title: "# Table 2: CLIP storage overhead".into(),
        columns: vec![],
        rows: vec![],
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Table 3: simulation parameters of the baseline system.
fn table3(scale: &Scale) -> Vec<Experiment> {
    fn body(_d: &ExperimentData) -> TableBody {
        let c = SimConfig::baseline_64core();
        let rows = vec![
            vec![
                "cores".into(),
                format!(
                    "{} OoO, {}-issue, {}-retire, {}-entry ROB",
                    c.cores, c.core.issue_width, c.core.retire_width, c.core.rob_entries
                ),
            ],
            vec![
                "L1D".into(),
                format!(
                    "{} KB, {}-way, {} cycles, {} MSHRs",
                    c.l1d.capacity_bytes / 1024,
                    c.l1d.ways,
                    c.l1d.latency,
                    c.l1d.mshrs
                ),
            ],
            vec![
                "L2".into(),
                format!(
                    "{} KB, {}-way, {} cycles, {} MSHRs, {:?}",
                    c.l2.capacity_bytes / 1024,
                    c.l2.ways,
                    c.l2.latency,
                    c.l2.mshrs,
                    c.l2.replacement
                ),
            ],
            vec![
                "LLC".into(),
                format!(
                    "{} MB/core, {}-way, {} cycles, {} MSHRs, {:?}",
                    c.llc_slice.capacity_bytes / (1024 * 1024),
                    c.llc_slice.ways,
                    c.llc_slice.latency,
                    c.llc_slice.mshrs,
                    c.llc_slice.replacement
                ),
            ],
            vec![
                "NoC".into(),
                format!(
                    "{}x{} mesh, {} VCs, {}-flit buffers, {}-flit data packets, {}-stage routers",
                    c.noc.mesh_cols,
                    c.noc.mesh_rows,
                    c.noc.virtual_channels,
                    c.noc.vc_buffer_flits,
                    c.noc.data_packet_flits,
                    c.noc.router_stages
                ),
            ],
            vec![
                "DRAM".into(),
                format!(
                    "{} channels, {} banks/ch, {} B rows, tRP/tRCD/CAS {}/{}/{} cycles, {}-cycle bursts, RQ/WQ {}/{}, watermark {}/{}",
                    c.dram.channels,
                    c.dram.banks_per_channel,
                    c.dram.row_bytes,
                    c.dram.t_rp,
                    c.dram.t_rcd,
                    c.dram.t_cas,
                    c.dram.burst_cycles,
                    c.dram.read_queue,
                    c.dram.write_queue,
                    c.dram.write_watermark.0,
                    c.dram.write_watermark.1
                ),
            ],
            vec![
                "peak DRAM bandwidth".into(),
                format!(
                    "{:.1} B/cycle ({:.1} GB/s at 4 GHz)",
                    c.dram_peak_bytes_per_cycle(),
                    c.dram_peak_bytes_per_cycle() * 4.0
                ),
            ],
        ];
        TableBody {
            rows,
            notes: vec![],
        }
    }
    vec![Experiment {
        name: "table3".into(),
        title: "# Table 3: baseline system parameters".into(),
        columns: vec![],
        rows: vec![],
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

// ----------------------------------------------------------------------
// Motivation figures (1-6).
// ----------------------------------------------------------------------

/// Figure 1: normalized weighted speedup of the four state-of-the-art
/// prefetchers vs DRAM channel count, 45 homogeneous SPEC CPU2017 mixes.
///
/// Paper shape: every prefetcher loses at 4-8 channels and wins at 64
/// (Berti reaching ~1.35); channel counts here are scaled to preserve the
/// channels-per-core ratio at the configured core count.
fn fig01(scale: &Scale) -> Vec<Experiment> {
    let mixes = scale.sample_homogeneous();
    let title = format!(
        "# Figure 1: prefetcher WS vs DRAM channels (homogeneous, {} cores, {} mixes)",
        scale.cores,
        mixes.len()
    );
    vec![prefetcher_sweep(scale, mixes, "fig01", title)]
}

/// Figure 2: normalized weighted speedup of the four prefetchers vs DRAM
/// channel count, heterogeneous SPEC CPU2017 + GAP mixes.
fn fig02(scale: &Scale) -> Vec<Experiment> {
    let mixes = scale.sample_heterogeneous();
    let title = format!(
        "# Figure 2: prefetcher WS vs DRAM channels (heterogeneous, {} cores, {} mixes)",
        scale.cores,
        mixes.len()
    );
    vec![prefetcher_sweep(scale, mixes, "fig02", title)]
}

/// Figure 3: increase in L1/L2/L3 demand miss latencies with Berti,
/// normalized to no prefetching, vs DRAM channel count.
///
/// Paper shape: >1.9x inflation of L2/L3-serviced latencies at 4-8
/// channels, converging toward 1.0 at 64.
fn fig03(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        for r in 0..d.rows() {
            let mut ratios = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
            for m in 0..d.mixes(r) {
                let pf = d.result(r, 0, m);
                let base = d.baseline(r, 0, m);
                let pairs = [
                    (pf.latency.by_l2.avg(), base.latency.by_l2.avg()),
                    (pf.latency.by_llc.avg(), base.latency.by_llc.avg()),
                    (pf.latency.by_dram.avg(), base.latency.by_dram.avg()),
                    (pf.latency.l1_miss.avg(), base.latency.l1_miss.avg()),
                ];
                for (i, (p, b)) in pairs.into_iter().enumerate() {
                    if b > 0.0 && p > 0.0 {
                        ratios[i].push(p / b);
                    }
                }
            }
            let cell = |v: &Vec<f64>| {
                if v.is_empty() {
                    // No load of this class was serviced at this level in
                    // the sampled window (e.g. every L2 lookup missed).
                    "-".to_string()
                } else {
                    fmt(geomean(v))
                }
            };
            let mut row = d.spec.rows[r].labels.clone();
            row.extend(ratios.iter().map(cell));
            rows.push(row);
        }
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let mixes = all_mixes(scale);
    vec![Experiment {
        name: "fig03".into(),
        title: format!(
            "# Figure 3: demand miss latency with Berti normalized to NoPF ({} cores, {} mixes)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&[
            "channels(paper)",
            "channels(run)",
            "L2-serviced",
            "LLC-serviced",
            "DRAM-serviced",
            "L1-miss(all)",
        ]),
        rows: [4usize, 8, 16, 32, 64]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string(), ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: vec![berti_cell(scale, ch, Scheme::plain())],
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

fn eval_scheme() -> Scheme {
    Scheme {
        evaluate_baselines: true,
        ..Scheme::plain()
    }
}

/// Figure 4: load criticality prediction accuracy and coverage of the six
/// baseline predictors (CRISP, CATCH, FP, FVP, CBP, ROBO), averaged over
/// homogeneous + heterogeneous mixes running Berti.
///
/// Paper shape: CATCH/FVP near-100% coverage with poor accuracy; the best
/// accuracy is ~41%.
fn fig04(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut agg: HashMap<&'static str, EvalCounts> = HashMap::new();
        for m in 0..d.mixes(0) {
            for (name, c) in &d.result(0, 0, m).baseline_evals {
                let e = agg.entry(name).or_default();
                e.true_positive += c.true_positive;
                e.false_positive += c.false_positive;
                e.false_negative += c.false_negative;
                e.true_negative += c.true_negative;
            }
        }
        let rows = ["CRISP", "CATCH", "FP", "FVP", "CBP", "ROBO"]
            .into_iter()
            .map(|name| {
                let c = agg.get(name).copied().unwrap_or_default();
                vec![name.to_string(), fmt(c.accuracy()), fmt(c.coverage())]
            })
            .collect();
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let mixes = all_mixes(scale);
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig04".into(),
        title: format!(
            "# Figure 4: baseline criticality predictor accuracy/coverage ({} cores, {} mixes, IP-set granularity)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&["predictor", "accuracy", "coverage"]),
        rows: vec![RowSpec {
            labels: vec![],
            extra: vec![],
            mixes,
            cells: vec![berti_cell(scale, ch, eval_scheme())],
        }],
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Figure 5: Berti combined with each baseline criticality predictor
/// (prefetches gated on predicted-critical trigger IPs), normalized
/// weighted speedup at 4/8/16-channel-equivalents, homogeneous and
/// heterogeneous mixes.
///
/// Paper shape: none of the baselines rescues Berti under constrained
/// bandwidth.
fn fig05(scale: &Scale) -> Vec<Experiment> {
    let columns = cols(&[
        "channels(paper)",
        "Berti",
        "+CRISP",
        "+CATCH",
        "+FP",
        "+FVP",
        "+CBP",
        "+ROBO",
    ]);
    let mut schemes = vec![Scheme::plain()];
    schemes.extend(BaselineKind::all().into_iter().map(Scheme::with_crit_gate));
    [
        ("fig05_homo", "homogeneous", scale.sample_homogeneous()),
        (
            "fig05_hetero",
            "heterogeneous",
            scale.sample_heterogeneous(),
        ),
    ]
    .into_iter()
    .map(|(name, label, mixes)| {
        berti_scheme_sweep(
            scale,
            &mixes,
            name.into(),
            format!("# Figure 5 ({label}): Berti + baseline criticality gates"),
            columns.clone(),
            schemes.clone(),
        )
    })
    .collect()
}

/// Figure 6: Berti combined with the epoch-level prefetch throttlers
/// (FDP, HPAC, SPAC, NST) at 4/8/16-channel-equivalents.
///
/// Paper shape: marginal improvements only; large slowdowns remain under
/// constrained bandwidth.
fn fig06(scale: &Scale) -> Vec<Experiment> {
    let columns = cols(&["channels(paper)", "Berti", "+FDP", "+HPAC", "+SPAC", "+NST"]);
    let mut schemes = vec![Scheme::plain()];
    schemes.extend(ThrottlerKind::all().into_iter().map(Scheme::with_throttler));
    [
        ("fig06_homo", "homogeneous", scale.sample_homogeneous()),
        (
            "fig06_hetero",
            "heterogeneous",
            scale.sample_heterogeneous(),
        ),
    ]
    .into_iter()
    .map(|(name, label, mixes)| {
        berti_scheme_sweep(
            scale,
            &mixes,
            name.into(),
            format!("# Figure 6 ({label}): Berti + prefetch throttlers"),
            columns.clone(),
            schemes.clone(),
        )
    })
    .collect()
}

// ----------------------------------------------------------------------
// Main results (9-16).
// ----------------------------------------------------------------------

/// Figure 9: CLIP with the four state-of-the-art prefetchers on the
/// 8-channel-equivalent system, homogeneous and heterogeneous mixes.
///
/// Paper shape: CLIP lifts every prefetcher; Berti+CLIP gains 24%
/// (homogeneous) and 9% (heterogeneous) over Berti.
fn fig09(scale: &Scale) -> Vec<Experiment> {
    let ch = scaled_channels(8, scale.cores);
    [
        ("fig09_homo", "homogeneous", scale.sample_homogeneous()),
        (
            "fig09_hetero",
            "heterogeneous",
            scale.sample_heterogeneous(),
        ),
    ]
    .into_iter()
    .map(|(name, label, mixes)| Experiment {
        name: name.into(),
        title: format!("# Figure 9 ({label}): CLIP with each prefetcher, {ch} channels"),
        columns: cols(&["prefetcher", "plain", "+CLIP"]),
        rows: KINDS
            .into_iter()
            .map(|kind| RowSpec {
                labels: vec![kind.name().to_string()],
                extra: vec![],
                mixes: mixes.clone(),
                cells: vec![
                    CellSpec {
                        cfg: kind_cfg(scale, ch, kind),
                        scheme: Scheme::plain(),
                    },
                    CellSpec {
                        cfg: kind_cfg(scale, ch, kind),
                        scheme: Scheme::with_clip(),
                    },
                ],
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    })
    .collect()
}

/// Figure 10: per-mix normalized weighted speedup, Berti vs Berti+CLIP,
/// on the 8-channel-equivalent system.
///
/// Paper shape: Berti slows most mixes down (16% average slowdown); CLIP
/// turns that into an 8% average improvement, leaving only a few mixes
/// below 1.0.
fn fig10(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let (mut b, mut c) = (Vec::new(), Vec::new());
        for r in 0..d.rows() {
            let (wb, wc) = (d.ws(r, 0, 0), d.ws(r, 1, 0));
            rows.push(vec![d.spec.rows[r].labels[0].clone(), fmt(wb), fmt(wc)]);
            b.push(wb);
            c.push(wc);
        }
        rows.push(vec!["GEOMEAN".into(), fmt(geomean(&b)), fmt(geomean(&c))]);
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig10".into(),
        title: format!("# Figure 10: per-mix WS, Berti vs Berti+CLIP ({ch} channels)"),
        columns: cols(&["mix", "Berti", "Berti+CLIP"]),
        rows: per_mix_rows(scale, berti_clip_cells(scale, ch)),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

/// Figure 11: per-mix average L1 miss latency (cycles), Berti vs
/// Berti+CLIP, on the 8-channel-equivalent system.
///
/// Paper shape: CLIP reduces the average from 168 to 132 cycles at the
/// paper's scale; the per-mix ordering (lbm worst) should hold.
fn fig11(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let (mut b, mut c) = (Vec::new(), Vec::new());
        for r in 0..d.rows() {
            let lb = d.result(r, 0, 0).latency.l1_miss.avg();
            let lc = d.result(r, 1, 0).latency.l1_miss.avg();
            rows.push(vec![
                d.spec.rows[r].labels[0].clone(),
                format!("{lb:.0}"),
                format!("{lc:.0}"),
            ]);
            b.push(lb);
            c.push(lc);
        }
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        rows.push(vec![
            "MEAN".into(),
            format!("{:.0}", mean(&b)),
            format!("{:.0}", mean(&c)),
        ]);
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig11".into(),
        title: format!("# Figure 11: per-mix avg L1 miss latency ({ch} channels)"),
        columns: cols(&["mix", "Berti", "Berti+CLIP"]),
        rows: per_mix_rows(scale, berti_clip_cells(scale, ch)),
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Figure 12: L1/L2/LLC demand miss coverage of Berti and Berti+CLIP
/// (fraction of the no-prefetch system's demand misses removed).
///
/// Paper shape: CLIP costs ~7% coverage at L1 and 2-3% at L2/LLC.
fn fig12(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let misses =
            |r: &clip_sim::SimResult| [r.misses.l1_misses, r.misses.l2_misses, r.misses.llc_misses];
        let mut rows = Vec::new();
        for (i, level) in ["L1", "L2", "LLC"].into_iter().enumerate() {
            let sum = |f: &dyn Fn(usize) -> u64| (0..d.rows()).map(f).sum::<u64>();
            let base = sum(&|r| misses(d.baseline(r, 0, 0))[i]);
            let berti = sum(&|r| misses(d.result(r, 0, 0))[i]);
            let clip = sum(&|r| misses(d.result(r, 1, 0))[i]);
            let cov = |x: u64| {
                if base == 0 {
                    0.0
                } else {
                    (1.0 - x as f64 / base as f64).max(0.0) * 100.0
                }
            };
            rows.push(vec![
                level.to_string(),
                format!("{:.1}", cov(berti)),
                format!("{:.1}", cov(clip)),
            ]);
        }
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig12".into(),
        title: format!("# Figure 12: demand miss coverage (%) ({ch} channels)"),
        columns: cols(&["level", "Berti", "Berti+CLIP"]),
        rows: per_mix_rows(scale, berti_clip_cells(scale, ch)),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

/// Figure 13: per-mix critical-load prediction accuracy of Berti+CLIP
/// (IP-set granularity) against the best prior predictor.
///
/// Paper shape: CLIP averages 93% (up to 100%); the best prior predictor
/// averages 41%.
fn fig13(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let (mut clip_all, mut prior_all) = (Vec::new(), Vec::new());
        for r in 0..d.rows() {
            let cr = d.result(r, 0, 0).clip.as_ref().expect("clip report");
            let acc = cr.ip_eval.accuracy();
            let best = d
                .result(r, 1, 0)
                .baseline_evals
                .iter()
                .map(|(_, c)| c.accuracy())
                .fold(0.0f64, f64::max);
            rows.push(vec![d.spec.rows[r].labels[0].clone(), fmt(acc), fmt(best)]);
            clip_all.push(acc);
            prior_all.push(best);
        }
        rows.push(vec![
            "MEAN".into(),
            fmt(geomean(&clip_all)),
            fmt(geomean(&prior_all)),
        ]);
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    let cells = vec![
        berti_cell(scale, ch, Scheme::with_clip()),
        berti_cell(scale, ch, eval_scheme()),
    ];
    vec![Experiment {
        name: "fig13".into(),
        title: format!("# Figure 13: critical-load prediction accuracy per mix ({ch} channels)"),
        columns: cols(&["mix", "CLIP(critical-signature)", "best-prior"]),
        rows: per_mix_rows(scale, cells),
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Figure 14: per-mix critical-load prediction coverage of Berti+CLIP
/// (IP-set granularity).
///
/// Paper shape: 76% average coverage.
fn fig14(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let mut all = Vec::new();
        for r in 0..d.rows() {
            let cov = d
                .result(r, 0, 0)
                .clip
                .as_ref()
                .expect("clip report")
                .ip_eval
                .coverage();
            rows.push(vec![d.spec.rows[r].labels[0].clone(), fmt(cov)]);
            all.push(cov);
        }
        rows.push(vec!["MEAN".into(), fmt(geomean(&all))]);
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig14".into(),
        title: format!("# Figure 14: critical-load prediction coverage per mix ({ch} channels)"),
        columns: cols(&["mix", "coverage"]),
        rows: per_mix_rows(scale, vec![berti_cell(scale, ch, Scheme::with_clip())]),
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Figure 15: number of critical-and-accurate IPs per core selected by
/// CLIP, split into static-critical and dynamic-critical.
///
/// Paper shape: tens of IPs per mix; ~50% are dynamic-critical.
fn fig15(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        for r in 0..d.rows() {
            let cr = d.result(r, 0, 0).clip.as_ref().expect("clip report");
            let stat = (cr.critical_ips - cr.dynamic_ips).max(0.0);
            rows.push(vec![
                d.spec.rows[r].labels[0].clone(),
                format!("{stat:.1}"),
                format!("{:.1}", cr.dynamic_ips),
                format!("{:.1}", cr.critical_ips),
            ]);
        }
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig15".into(),
        title: format!("# Figure 15: critical IPs per core (static vs dynamic) ({ch} channels)"),
        columns: cols(&["mix", "static", "dynamic", "total"]),
        rows: per_mix_rows(scale, vec![berti_cell(scale, ch, Scheme::with_clip())]),
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

/// Figure 16: reduction in prefetch requests with Berti+CLIP, normalized
/// to Berti, plus the overall prefetch accuracy improvement.
///
/// Paper shape: ~50% average traffic reduction (up to 90% for cactuBSSN);
/// Berti's accuracy improves from 82.9% to 94.2%.
fn fig16(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let (mut ratios, mut acc_b, mut acc_c) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..d.rows() {
            let berti = d.result(r, 0, 0);
            let clip = d.result(r, 1, 0);
            let ratio = if berti.prefetch.issued == 0 {
                1.0
            } else {
                clip.prefetch.issued as f64 / berti.prefetch.issued as f64
            };
            let (ab, ac) = (berti.prefetch.accuracy(), clip.prefetch.accuracy());
            rows.push(vec![
                d.spec.rows[r].labels[0].clone(),
                fmt(ratio),
                fmt(ab),
                fmt(ac),
            ]);
            ratios.push(ratio);
            acc_b.push(ab);
            acc_c.push(ac);
        }
        rows.push(vec![
            "MEAN".into(),
            fmt(geomean(&ratios)),
            fmt(geomean(&acc_b)),
            fmt(geomean(&acc_c)),
        ]);
        TableBody {
            rows,
            notes: vec![],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "fig16".into(),
        title: format!(
            "# Figure 16: prefetch traffic with CLIP normalized to Berti ({ch} channels)"
        ),
        columns: cols(&["mix", "traffic-ratio", "acc(Berti)", "acc(Berti+CLIP)"]),
        rows: per_mix_rows(scale, berti_clip_cells(scale, ch)),
        opts: scale.options(),
        normalization: Normalization::None,
        render: Render::Table(body),
    }]
}

// ----------------------------------------------------------------------
// Sensitivity and comparison figures (17-21) and the extras.
// ----------------------------------------------------------------------

/// Figure 17: CloudSuite and CVP 64-core homogeneous workloads vs channel
/// count, with and without CLIP.
///
/// Paper shape: prefetchers gain <10% even with abundant bandwidth (hard-
/// to-predict access streams), so the constrained-bandwidth problem — and
/// CLIP's upside — is smaller than for SPEC.
fn fig17(scale: &Scale) -> Vec<Experiment> {
    let mixes = clip_trace::mix::cloud_cvp_mixes(scale.cores);
    vec![Experiment {
        name: "fig17".into(),
        title: format!(
            "# Figure 17: CloudSuite + CVP homogeneous workloads ({} cores, {} mixes)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&["channels(paper)", "Berti", "Berti+CLIP"]),
        rows: [4usize, 8, 16, 32, 64]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: berti_clip_cells(scale, ch),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// Figure 18: sensitivity to the CLIP hardware table sizes (0.25x to 4x of
/// the proposed 128-entry filter and 512-entry predictor).
///
/// Paper shape: 2x/4x give marginal gains; 0.5x/0.25x lose >7%.
fn fig18(scale: &Scale) -> Vec<Experiment> {
    let ch = scaled_channels(8, scale.cores);
    let mixes = all_mixes(scale);
    vec![Experiment {
        name: "fig18".into(),
        title: format!(
            "# Figure 18: CLIP table-size sensitivity ({ch} channels, {} mixes)",
            mixes.len()
        ),
        columns: cols(&["scale", "normalized-WS", "storage-KB/core"]),
        rows: [0.25f64, 0.5, 1.0, 2.0, 4.0]
            .into_iter()
            .map(|factor| {
                let cfg = ClipConfig::default().scaled(factor);
                let storage = clip_core::StorageReport::for_config(&cfg).total_kib();
                RowSpec {
                    labels: vec![format!("{factor}x")],
                    extra: vec![format!("{storage:.2}")],
                    mixes: mixes.clone(),
                    cells: vec![berti_cell(
                        scale,
                        ch,
                        Scheme {
                            clip: Some(cfg),
                            ..Scheme::plain()
                        },
                    )],
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// Figures 19/20: all four prefetchers, with and without CLIP, across
/// channel counts.
fn clip_grid(scale: &Scale, mixes: Vec<Mix>, name: &str, title: String) -> Experiment {
    Experiment {
        name: name.to_string(),
        title,
        columns: cols(&[
            "channels(paper)",
            "Berti",
            "Berti+CLIP",
            "IPCP",
            "IPCP+CLIP",
            "Bingo",
            "Bingo+CLIP",
            "SPP-PPF",
            "SPP-PPF+CLIP",
        ]),
        rows: [4usize, 8, 16]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: KINDS
                        .into_iter()
                        .flat_map(|kind| {
                            [Scheme::plain(), Scheme::with_clip()].map(|scheme| CellSpec {
                                cfg: kind_cfg(scale, ch, kind),
                                scheme,
                            })
                        })
                        .collect(),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

/// Figure 19: CLIP with each prefetcher across channel counts,
/// homogeneous mixes.
///
/// Paper shape: large CLIP gains at 4-8 channels, marginal at 16.
fn fig19(scale: &Scale) -> Vec<Experiment> {
    let mixes = scale.sample_homogeneous();
    let title = format!(
        "# Figure 19: CLIP x prefetchers x channels (homogeneous, {} mixes)",
        mixes.len()
    );
    vec![clip_grid(scale, mixes, "fig19", title)]
}

/// Figure 20: CLIP with each prefetcher across channel counts,
/// heterogeneous mixes.
fn fig20(scale: &Scale) -> Vec<Experiment> {
    let mixes = scale.sample_heterogeneous();
    let title = format!(
        "# Figure 20: CLIP x prefetchers x channels (heterogeneous, {} mixes)",
        mixes.len()
    );
    vec![clip_grid(scale, mixes, "fig20", title)]
}

/// Figure 21: Hermes, DSPatch, and CLIP with Berti at 4/8/16-channel-
/// equivalents, homogeneous and heterogeneous mixes.
///
/// Paper shape: CLIP wins at 4-8 channels; Hermes wins at 16 (ample
/// bandwidth); DSPatch performs poorly under constrained bandwidth
/// (coverage mode).
fn fig21(scale: &Scale) -> Vec<Experiment> {
    let columns = cols(&["channels(paper)", "Berti", "+Hermes", "+DSPatch", "+CLIP"]);
    let schemes = vec![
        Scheme::plain(),
        Scheme::with_hermes(),
        Scheme::with_dspatch(),
        Scheme::with_clip(),
    ];
    [
        ("fig21_homo", "homogeneous", scale.sample_homogeneous()),
        (
            "fig21_hetero",
            "heterogeneous",
            scale.sample_heterogeneous(),
        ),
    ]
    .into_iter()
    .map(|(name, label, mixes)| {
        berti_scheme_sweep(
            scale,
            &mixes,
            name.into(),
            format!("# Figure 21 ({label}): Hermes / DSPatch / CLIP with Berti"),
            columns.clone(),
            schemes.clone(),
        )
    })
    .collect()
}

/// §5.1 energy results: dynamic energy of the memory hierarchy with Berti
/// and Berti+CLIP normalized to no prefetching.
///
/// Paper shape: CLIP improves dynamic energy by 18.21% over Berti for
/// homogeneous mixes (<7% for heterogeneous), driven by the ~50% prefetch
/// traffic reduction. CLIP's own structures are included.
fn energy(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let model = clip_stats::EnergyModel::new();
        let mut totals = [0.0f64; 3];
        for r in 0..d.rows() {
            let runs = [d.baseline(r, 0, 0), d.result(r, 0, 0), d.result(r, 1, 0)];
            for (i, run) in runs.into_iter().enumerate() {
                totals[i] += model.evaluate(&run.energy).total_nj();
            }
        }
        let rows = ["NoPF", "Berti", "Berti+CLIP"]
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                vec![
                    l.to_string(),
                    format!("{:.0}", totals[i]),
                    fmt(totals[i] / totals[0]),
                    fmt(totals[i] / totals[1]),
                ]
            })
            .collect();
        TableBody {
            rows,
            notes: vec![format!(
                "CLIP vs Berti dynamic-energy improvement: {:.1}%",
                (1.0 - totals[2] / totals[1]) * 100.0
            )],
        }
    }
    let ch = scaled_channels(8, scale.cores);
    vec![Experiment {
        name: "energy".into(),
        title: format!("# Energy: memory-hierarchy dynamic energy ({ch} channels, homogeneous)"),
        columns: cols(&["scheme", "total-nJ", "vs-NoPF", "vs-Berti"]),
        rows: per_mix_rows(scale, berti_clip_cells(scale, ch)),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

/// §5.2 core-count sensitivity: CLIP's effectiveness across system sizes
/// at a fixed one-channel-per-eight-cores ratio.
///
/// Paper shape: CLIP's benefit holds across 8..128 cores, fading when
/// there is at least one channel per 2-4 cores.
fn sens_cores(base: &Scale) -> Vec<Experiment> {
    vec![Experiment {
        name: "sens_cores".into(),
        title: "# Core-count sensitivity (1 channel per 8 cores)".into(),
        columns: cols(&["cores", "channels", "Berti", "Berti+CLIP"]),
        rows: [8usize, 16, 32]
            .into_iter()
            .map(|cores| {
                let scale = Scale {
                    cores,
                    ..base.clone()
                };
                let channels = (cores / 8).max(1);
                RowSpec {
                    labels: vec![cores.to_string(), channels.to_string()],
                    extra: vec![],
                    mixes: scale.sample_homogeneous(),
                    cells: berti_clip_cells(&scale, channels),
                }
            })
            .collect(),
        opts: base.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// §5.2 LLC-capacity sensitivity: Berti and Berti+CLIP with 0.5/1/2/4 MB
/// LLC per core at the 8-channel-equivalent.
///
/// Paper shape: smaller LLCs worsen Berti's slowdown (29% at 512 KB/core);
/// CLIP keeps prefetching profitable at every capacity.
fn sens_llc(scale: &Scale) -> Vec<Experiment> {
    let ch = scaled_channels(8, scale.cores);
    let mixes = scale.sample_homogeneous();
    vec![Experiment {
        name: "sens_llc".into(),
        title: format!("# LLC-capacity sensitivity ({ch} channels)"),
        columns: cols(&["LLC-KB/core", "Berti", "Berti+CLIP"]),
        rows: [512usize, 1024, 2048, 4096]
            .into_iter()
            .map(|kb| {
                let cfg = SimConfig::builder()
                    .cores(scale.cores)
                    .dram_channels(ch)
                    .llc_slice_bytes(kb * 1024)
                    .l1_prefetcher(PrefetcherKind::Berti)
                    .build()
                    .expect("valid config");
                RowSpec {
                    labels: vec![kb.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: vec![
                        CellSpec {
                            cfg: cfg.clone(),
                            scheme: Scheme::plain(),
                        },
                        CellSpec {
                            cfg,
                            scheme: Scheme::with_clip(),
                        },
                    ],
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// Ablation study of CLIP's design choices (DESIGN.md §4): criticality
/// stage only, accuracy stage only, no branch history, no criticality
/// history, and no criticality-conscious NoC/DRAM flag.
///
/// Paper attributions: 77.5% of the benefit from criticality filtering +
/// prediction, the rest from accuracy filtering; criticality-conscious
/// NoC/DRAM contributes 2.8 points of the 24%.
fn ablation(scale: &Scale) -> Vec<Experiment> {
    let ch = scaled_channels(8, scale.cores);
    let mixes = scale.sample_homogeneous();
    let variants: Vec<(&str, Option<ClipConfig>)> = vec![
        ("Berti (no CLIP)", None),
        ("full CLIP", Some(ClipConfig::default())),
        (
            "criticality-only (no accuracy stage)",
            Some(ClipConfig {
                use_accuracy_stage: false,
                ..ClipConfig::default()
            }),
        ),
        (
            "accuracy-only (no criticality stage)",
            Some(ClipConfig {
                use_criticality_stage: false,
                ..ClipConfig::default()
            }),
        ),
        (
            "no branch history in signature",
            Some(ClipConfig {
                use_branch_history: false,
                ..ClipConfig::default()
            }),
        ),
        (
            "no criticality history in signature",
            Some(ClipConfig {
                use_crit_history: false,
                ..ClipConfig::default()
            }),
        ),
        (
            "no criticality flag at NoC/DRAM",
            Some(ClipConfig {
                criticality_flag_to_fabric: false,
                ..ClipConfig::default()
            }),
        ),
    ];
    vec![Experiment {
        name: "ablation".into(),
        title: format!("# CLIP ablations ({ch} channels, {} mixes)", mixes.len()),
        columns: cols(&["variant", "normalized-WS"]),
        rows: variants
            .into_iter()
            .map(|(name, clip)| RowSpec {
                labels: vec![name.to_string()],
                extra: vec![],
                mixes: mixes.clone(),
                cells: vec![berti_cell(
                    scale,
                    ch,
                    Scheme {
                        clip,
                        ..Scheme::plain()
                    },
                )],
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// Dynamic CLIP (§5.3 future work): compares plain CLIP against the
/// bandwidth-governed variant across channel counts.
///
/// Expected shape: identical under constrained bandwidth (the governor
/// stays in filtering mode), and recovering the plain prefetcher's upside
/// when bandwidth is plentiful (the governor bypasses CLIP).
fn dynclip(scale: &Scale) -> Vec<Experiment> {
    let mixes = scale.sample_homogeneous();
    vec![Experiment {
        name: "dynclip".into(),
        title: format!(
            "# Dynamic CLIP: plain Berti vs CLIP vs DynCLIP ({} cores, {} mixes)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&["channels(paper)", "Berti", "Berti+CLIP", "Berti+DynCLIP"]),
        rows: [4usize, 8, 16, 64]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: [
                        Scheme::plain(),
                        Scheme::with_clip(),
                        Scheme::with_dynamic_clip(),
                    ]
                    .into_iter()
                    .map(|s| berti_cell(scale, ch, s))
                    .collect(),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }]
}

/// Fabric x memory backend grid: one experiment per NoC topology (mesh,
/// chiplet), one row per DRAM backend (DDR4, HBM), comparing plain Berti
/// against CLIP and the FDP throttler. Channel counts follow each
/// backend's preset (HBM doubles channels at half the per-channel
/// bandwidth), so rows compare channel structure at equal aggregate peak.
fn backends(scale: &Scale) -> Vec<Experiment> {
    fn backend_cfg(scale: &Scale, kind: DramKind) -> SimConfig {
        let ch = scaled_channels(DramConfig::preset(kind).channels, scale.cores);
        SimConfig::builder()
            .cores(scale.cores)
            .dram_backend(kind)
            .dram_channels(ch)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid experiment config")
    }
    let mixes = all_mixes(scale);
    [
        ("backends_mesh", "mesh", NocChoice::Mesh),
        ("backends_chiplet", "chiplet", NocChoice::Chiplet),
    ]
    .into_iter()
    .map(|(name, label, noc)| Experiment {
        name: name.into(),
        title: format!(
            "# Backends ({label} fabric): Berti vs CLIP vs FDP on DDR4/HBM ({} cores, {} mixes)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&["dram", "Berti", "+CLIP", "+FDP"]),
        rows: [DramKind::Ddr4, DramKind::Hbm]
            .into_iter()
            .map(|kind| RowSpec {
                labels: vec![kind.name().to_string()],
                extra: vec![],
                mixes: mixes.clone(),
                cells: [
                    Scheme::plain(),
                    Scheme::with_clip(),
                    Scheme::with_throttler(ThrottlerKind::Fdp),
                ]
                .into_iter()
                .map(|scheme| CellSpec {
                    cfg: backend_cfg(scale, kind),
                    scheme,
                })
                .collect(),
            })
            .collect(),
        opts: RunOptions {
            noc,
            ..scale.options()
        },
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    })
    .collect()
}

/// Composite ensemble (Berti + SPP-PPF + next-line under a shared degree
/// budget) against the best single engine, with and without CLIP. Under
/// CLIP the utility buffer tracks per-engine accuracy and the filter
/// demotes whichever member goes inaccurate, so the +CLIP columns show
/// arbitration between sources rather than gating of one stream. The
/// body is the usual geomean-WS grid plus one note per row carrying the
/// Composite+CLIP cell's per-engine accuracy counters (summed over
/// mixes), so the JSON artifact exposes the arbitration outcome.
fn composite(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let mut rows = Vec::new();
        let mut notes = Vec::new();
        for r in 0..d.rows() {
            let mut cells = d.spec.rows[r].labels.clone();
            for c in 0..d.cells(r) {
                cells.push(fmt(d.geomean_ws(r, c)));
            }
            rows.push(cells);
            // Cell 3 is Composite+CLIP; engine order matches the
            // ensemble's fixed priority list.
            let names = ["berti", "spp-ppf", "next-line"];
            let mut agg = [(0u64, 0u64, 5u8); 3];
            for m in 0..d.mixes(r) {
                let clip = d.result(r, 3, m).clip.as_ref().expect("clip report");
                for (e, slot) in agg.iter_mut().enumerate().take(clip.num_engines.min(3)) {
                    slot.0 += clip.engines[e].issued;
                    slot.1 += clip.engines[e].hits;
                    slot.2 = slot.2.min(clip.engines[e].min_level);
                }
            }
            let fields: Vec<String> = names
                .iter()
                .zip(agg)
                .map(|(n, (issued, hits, level))| {
                    format!("{n} issued={issued} hits={hits} min_level={level}")
                })
                .collect();
            notes.push(format!(
                "engines@{}ch: {}",
                d.spec.rows[r].labels[0],
                fields.join(" | ")
            ));
        }
        TableBody { rows, notes }
    }
    let mixes = all_mixes(scale);
    let kinds = [PrefetcherKind::Berti, PrefetcherKind::Composite];
    vec![Experiment {
        name: "composite".into(),
        title: format!(
            "# Composite: ensemble vs best-single, with/without CLIP ({} cores, {} mixes)",
            scale.cores,
            mixes.len()
        ),
        columns: cols(&[
            "channels(paper)",
            "Berti",
            "Berti+CLIP",
            "Composite",
            "Composite+CLIP",
        ]),
        rows: [4usize, 8, 16]
            .into_iter()
            .map(|paper_ch| {
                let ch = scaled_channels(paper_ch, scale.cores);
                RowSpec {
                    labels: vec![paper_ch.to_string()],
                    extra: vec![],
                    mixes: mixes.clone(),
                    cells: kinds
                        .into_iter()
                        .flat_map(|kind| {
                            [Scheme::plain(), Scheme::with_clip()].map(|scheme| CellSpec {
                                cfg: kind_cfg(scale, ch, kind),
                                scheme,
                            })
                        })
                        .collect(),
                }
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

// ----------------------------------------------------------------------
// Development harnesses (not part of the all_figures sweep).
// ----------------------------------------------------------------------

/// One-page reproduction summary: the paper's headline claims, each
/// checked live and marked reproduced / not. A fast smoke covering the
/// whole stack — run this first.
fn summary(scale: &Scale) -> Vec<Experiment> {
    fn verdict(ok: bool) -> &'static str {
        if ok {
            "REPRODUCED"
        } else {
            "NOT REPRODUCED"
        }
    }
    fn body(d: &ExperimentData) -> TableBody {
        let mut ws_low = Vec::new();
        let mut ws_high = Vec::new();
        let mut ws_clip = Vec::new();
        let mut traffic_ratio = Vec::new();
        let mut lat_ratio = Vec::new();
        let mut clip_acc = Vec::new();
        let mut clip_cov = Vec::new();
        for r in 0..d.rows() {
            let rl = d.result(r, 0, 0);
            let rc = d.result(r, 2, 0);
            let base = d.baseline(r, 0, 0);
            ws_low.push(d.ws(r, 0, 0));
            ws_high.push(d.ws(r, 1, 0));
            ws_clip.push(d.ws(r, 2, 0));
            if rl.prefetch.issued > 0 {
                traffic_ratio.push(rc.prefetch.issued as f64 / rl.prefetch.issued as f64);
            }
            if base.latency.l1_miss.avg() > 0.0 {
                lat_ratio.push(rl.latency.l1_miss.avg() / base.latency.l1_miss.avg());
            }
            if let Some(c) = &rc.clip {
                clip_acc.push(c.ip_eval.accuracy());
                clip_cov.push(c.ip_eval.coverage());
            }
        }
        let g = crate::mean_ws;
        let berti_low = g(&ws_low);
        let berti_high = g(&ws_high);
        let clip_low = g(&ws_clip);
        let traffic = g(&traffic_ratio);
        let lat = g(&lat_ratio);
        let acc = g(&clip_acc);
        let cov = g(&clip_cov);
        TableBody {
            rows: vec![],
            notes: vec![
                String::new(),
                format!(
                    "1. Berti loses under constrained bandwidth (paper: 0.84 at 8ch) : WS {berti_low:.3}  [{}]",
                    verdict(berti_low < 1.0)
                ),
                format!(
                    "2. Berti wins with ample bandwidth (paper: ~1.35 at 64ch)       : WS {berti_high:.3}  [{}]",
                    verdict(berti_high > 1.0)
                ),
                format!(
                    "3. CLIP recovers the constrained case (paper: 0.84 -> 1.08)     : WS {clip_low:.3}  [{}]",
                    verdict(clip_low > berti_low)
                ),
                format!(
                    "4. CLIP halves prefetch traffic (paper: ~0.50x)                 : {traffic:.2}x  [{}]",
                    verdict(traffic < 0.7)
                ),
                format!(
                    "5. Prefetching inflates miss latency when constrained (Fig. 3)  : {lat:.2}x  [{}]",
                    verdict(lat > 1.2)
                ),
                format!(
                    "6. CLIP's critical-IP prediction (paper: 93% acc / 76% cov)     : {:.0}% / {:.0}%  [{}]",
                    acc * 100.0,
                    cov * 100.0,
                    verdict(acc > 0.8 && cov > 0.5)
                ),
            ],
        }
    }
    let ch_low = scaled_channels(8, scale.cores);
    let ch_high = scaled_channels(64, scale.cores);
    let mixes = scale.sample_homogeneous();
    let cells = vec![
        berti_cell(scale, ch_low, Scheme::plain()),
        berti_cell(scale, ch_high, Scheme::plain()),
        berti_cell(scale, ch_low, Scheme::with_clip()),
    ];
    vec![Experiment {
        name: "summary".into(),
        title: format!(
            "# Reproduction summary ({} cores, {} mixes, {}/{} channels for the 8/64-channel points)",
            scale.cores,
            mixes.len(),
            ch_low,
            ch_high
        ),
        columns: vec![],
        rows: mixes
            .into_iter()
            .map(|mix| RowSpec {
                labels: vec![mix.name.clone()],
                extra: vec![],
                mixes: vec![mix],
                cells: cells.clone(),
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}

/// Calibration probe: checks the headline shape — Berti loses at low
/// channel counts, wins with abundant bandwidth, and CLIP recovers the
/// constrained case. Not a paper figure; a development sanity harness.
///
/// Each channel count's summary line follows one line per mix with that
/// mix's CLIP breakdown: candidates, where each was allowed or dropped,
/// and the IP-set prediction accuracy and coverage.
fn probe(scale: &Scale) -> Vec<Experiment> {
    fn body(d: &ExperimentData) -> TableBody {
        let sweep_rows = d.rows() / 2;
        let mut notes = Vec::new();
        for i in 0..sweep_rows {
            let channels = &d.spec.rows[i].labels[0];
            let mut ws_berti = Vec::new();
            let mut ws_clip = Vec::new();
            let mut drop_rates = Vec::new();
            let mut acc = Vec::new();
            let mut lat_base = Vec::new();
            let mut lat_pf = Vec::new();
            for m in 0..d.mixes(i) {
                let r = d.result(i, 0, m);
                let b = d.baseline(i, 0, m);
                ws_berti.push(d.ws(i, 0, m));
                acc.push(r.prefetch.accuracy());
                lat_pf.push(r.latency.l1_miss.avg());
                lat_base.push(b.latency.l1_miss.avg());
                let r2 = d.result(i, 1, m);
                ws_clip.push(d.ws(i, 1, m));
                if let Some(c) = &r2.clip {
                    drop_rates.push(c.stats.drop_rate());
                    notes.push(format!(
                        "    {}: cand={} critical={} explore={} d_notcrit={} d_pred={} d_acc={} d_phase={} | eval acc={:.2} cov={:.2} critIPs={:.1}",
                        d.spec.rows[i].mixes[m].name,
                        c.stats.candidates,
                        c.stats.allowed_critical,
                        c.stats.allowed_explore,
                        c.stats.dropped_not_critical,
                        c.stats.dropped_predicted,
                        c.stats.dropped_low_accuracy,
                        c.stats.dropped_phase,
                        c.ip_eval.accuracy(),
                        c.ip_eval.coverage(),
                        c.critical_ips,
                    ));
                }
            }
            notes.push(format!(
                "ch={channels}: Berti WS={:.3} CLIP WS={:.3} | acc={:.2} drop={:.2} | lat base={:.0} berti={:.0}",
                geomean(&ws_berti),
                geomean(&ws_clip),
                geomean(&acc),
                geomean(&drop_rates),
                geomean(&lat_base),
                geomean(&lat_pf),
            ));
            // Detailed diagnostics on one streaming mix.
            let li = sweep_rows + i;
            let (r, b) = (d.result(li, 0, 0), d.baseline(li, 0, 0));
            notes.push(format!(
                "  lbm: ws={:.3} cand={} issued={} useful={} useless={} late={} | l1miss pf={} base={} | bw={:.2} lat pf={:.0} base={:.0}",
                d.ws(li, 0, 0),
                r.prefetch.candidates,
                r.prefetch.issued,
                r.prefetch.useful,
                r.prefetch.useless,
                r.prefetch.late,
                r.misses.l1_misses,
                b.misses.l1_misses,
                r.dram_bw_util,
                r.latency.l1_miss.avg(),
                b.latency.l1_miss.avg(),
            ));
        }
        TableBody {
            rows: vec![],
            notes,
        }
    }
    let mixes = scale.sample_homogeneous();
    let lbm = Mix::homogeneous(
        &clip_trace::catalog::by_name("619.lbm_s-4268B").expect("known"),
        scale.cores,
    );
    let channels = [1usize, 2, 8];
    let mut rows: Vec<RowSpec> = channels
        .into_iter()
        .map(|ch| RowSpec {
            labels: vec![ch.to_string()],
            extra: vec![],
            mixes: mixes.clone(),
            cells: vec![
                berti_cell(scale, ch, Scheme::plain()),
                berti_cell(scale, ch, Scheme::with_clip()),
            ],
        })
        .collect();
    rows.extend(channels.into_iter().map(|ch| RowSpec {
        labels: vec![ch.to_string()],
        extra: vec![],
        mixes: vec![lbm.clone()],
        cells: vec![berti_cell(scale, ch, Scheme::plain())],
    }));
    vec![Experiment {
        name: "probe".into(),
        title: format!(
            "probe: {} cores, {} instrs, {} mixes",
            scale.cores,
            scale.instrs,
            mixes.len()
        ),
        columns: vec![],
        rows,
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::Table(body),
    }]
}
