//! Spec-expansion tests: the declarative figure registry produces the
//! grids the historical binaries ran, without simulating anything.

use clip_bench::experiment::{
    clear_result_cache, execute_experiment, CellSpec, Experiment, Normalization, Render, RowSpec,
};
use clip_bench::figures::registry;
use clip_bench::Scale;
use clip_sim::{CheckLevel, FaultKind, FaultSpec, NocChoice, RunOptions, Scheme};
use clip_trace::Mix;
use clip_types::{DramKind, PrefetcherKind, SimConfig};

fn scale() -> Scale {
    Scale {
        cores: 4,
        instrs: 200,
        warmup: 50,
        homo_mixes: 3,
        hetero_mixes: 2,
        noc: NocChoice::Analytic,
        dram: DramKind::Ddr4,
    }
}

fn build(name: &str) -> Vec<Experiment> {
    let entry = registry()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} not registered"));
    (entry.build)(&scale())
}

#[test]
fn registry_covers_every_binary_in_sweep_order() {
    let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        [
            "table3",
            "table2",
            "fig01",
            "fig02",
            "fig03",
            "fig04",
            "fig05",
            "fig06",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "energy",
            "sens_cores",
            "sens_llc",
            "ablation",
            "dynclip",
            "backends",
            "composite",
            "summary",
            "probe",
        ]
    );
    for e in registry() {
        let dev_harness = e.name == "summary" || e.name == "probe";
        assert_eq!(e.in_all, !dev_harness, "{} sweep membership", e.name);
    }
}

#[test]
fn fig01_expands_the_channel_by_prefetcher_grid() {
    let exps = build("fig01");
    assert_eq!(exps.len(), 1);
    let e = &exps[0];
    assert_eq!(e.normalization, Normalization::NoPrefetch);
    assert_eq!(e.columns.len(), 6);
    assert_eq!(e.rows.len(), 5, "one row per paper channel count");
    let first: Vec<&str> = e.rows.iter().map(|r| r.labels[0].as_str()).collect();
    assert_eq!(first, ["4", "8", "16", "32", "64"], "label order");
    for row in &e.rows {
        assert_eq!(row.labels.len(), 2, "paper + run channel labels");
        assert_eq!(row.cells.len(), 4, "one cell per prefetcher");
        assert_eq!(row.mixes.len(), 3, "sampled homogeneous mixes");
    }
}

#[test]
fn fig05_expands_homogeneous_and_heterogeneous_sets() {
    let exps = build("fig05");
    let names: Vec<&str> = exps.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["fig05_homo", "fig05_hetero"]);
    for e in &exps {
        assert_eq!(e.rows.len(), 3);
        for row in &e.rows {
            assert_eq!(row.cells.len(), 7, "Berti + six criticality gates");
        }
    }
    assert_eq!(exps[0].rows[0].mixes.len(), 3);
    assert_eq!(exps[1].rows[0].mixes.len(), 2);
}

#[test]
fn backends_expands_the_fabric_by_memory_grid() {
    let exps = build("backends");
    let names: Vec<&str> = exps.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["backends_mesh", "backends_chiplet"]);
    assert_eq!(exps[0].opts.noc, NocChoice::Mesh);
    assert_eq!(exps[1].opts.noc, NocChoice::Chiplet);
    for e in &exps {
        let labels: Vec<&str> = e.rows.iter().map(|r| r.labels[0].as_str()).collect();
        assert_eq!(labels, ["ddr4", "hbm"], "one row per DRAM backend");
        for row in &e.rows {
            assert_eq!(row.cells.len(), 3, "Berti, +CLIP, +FDP");
            assert_eq!(row.mixes.len(), 5, "homogeneous + heterogeneous mixes");
        }
        // Channel counts follow each backend's preset through the usual
        // core-count scaling (at 4 cores both floor at one channel).
        let ddr = &e.rows[0].cells[0].cfg.dram;
        let hbm = &e.rows[1].cells[0].cfg.dram;
        assert_eq!(ddr.kind, DramKind::Ddr4);
        assert_eq!(hbm.kind, DramKind::Hbm);
        assert_eq!(ddr.channels, clip_bench::scaled_channels(8, 4));
        assert_eq!(hbm.channels, clip_bench::scaled_channels(16, 4));
        assert!(hbm.banks_per_channel > ddr.banks_per_channel);
    }
}

#[test]
fn composite_expands_the_ensemble_versus_best_single_grid() {
    let exps = build("composite");
    assert_eq!(exps.len(), 1);
    let e = &exps[0];
    assert_eq!(e.normalization, Normalization::NoPrefetch);
    assert_eq!(
        e.columns,
        [
            "channels(paper)",
            "Berti",
            "Berti+CLIP",
            "Composite",
            "Composite+CLIP"
        ]
    );
    let labels: Vec<&str> = e.rows.iter().map(|r| r.labels[0].as_str()).collect();
    assert_eq!(labels, ["4", "8", "16"], "one row per paper channel count");
    for row in &e.rows {
        assert_eq!(row.cells.len(), 4, "two kinds x plain/CLIP");
        assert_eq!(row.mixes.len(), 5, "homogeneous + heterogeneous mixes");
        // The ensemble trains at L1, so it occupies the L1 slot like
        // Berti; the CLIP cells differ only in scheme.
        for (i, cell) in row.cells.iter().enumerate() {
            let kind = if i < 2 {
                PrefetcherKind::Berti
            } else {
                PrefetcherKind::Composite
            };
            assert_eq!(cell.cfg.l1_prefetcher, kind);
            assert_eq!(cell.cfg.l2_prefetcher, PrefetcherKind::None);
            assert_eq!(cell.scheme.clip.is_some(), i % 2 == 1);
        }
    }
}

#[test]
fn fig18_rows_carry_the_static_storage_column() {
    let exps = build("fig18");
    let e = &exps[0];
    let labels: Vec<&str> = e.rows.iter().map(|r| r.labels[0].as_str()).collect();
    assert_eq!(labels, ["0.25x", "0.5x", "1x", "2x", "4x"]);
    for row in &e.rows {
        assert_eq!(row.extra.len(), 1, "storage KB/core column");
        assert!(row.extra[0].parse::<f64>().unwrap() > 0.0);
        assert_eq!(row.cells.len(), 1);
    }
}

#[test]
fn per_mix_figures_keep_mix_order_in_row_labels() {
    let s = scale();
    let mixes = s.sample_homogeneous();
    let exps = build("fig10");
    let labels: Vec<&str> = exps[0].rows.iter().map(|r| r.labels[0].as_str()).collect();
    let expected: Vec<&str> = mixes.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(labels, expected);
    for row in &exps[0].rows {
        assert_eq!(row.mixes.len(), 1, "one mix per row");
        assert_eq!(row.cells.len(), 2, "Berti and Berti+CLIP");
    }
}

#[test]
fn static_tables_execute_without_simulation_and_render_artifacts() {
    for name in ["table2", "table3"] {
        let exps = build(name);
        let (text, artifact) = execute_experiment(&exps[0]);
        assert!(text.starts_with("# Table"), "{name} title line");
        assert_eq!(artifact.get("name").and_then(|v| v.as_str()), Some(name));
        let notes_or_rows = artifact
            .get("rows")
            .and_then(|v| v.as_array())
            .map(|a| a.len())
            .unwrap_or(0)
            + artifact
                .get("notes")
                .and_then(|v| v.as_array())
                .map(|a| a.len())
                .unwrap_or(0);
        assert!(notes_or_rows > 0, "{name} artifact has content");
    }
}

/// One failing cell must not abort the sweep: it renders as `ERR`, the
/// artifact gains structured error objects, and healthy cells still
/// render their numbers. Clean experiments must not grow an `errors`
/// key at all (golden artifacts diff byte-for-byte).
#[test]
fn failing_cell_renders_err_and_structured_error_objects() {
    let cfg = SimConfig::builder()
        .cores(2)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::None)
        .build()
        .expect("valid config");
    let workload = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
    let row = |label: &str, mix_cores: usize| RowSpec {
        labels: vec![label.to_string()],
        extra: Vec::new(),
        mixes: vec![Mix::homogeneous(&workload, mix_cores)],
        cells: vec![CellSpec {
            cfg: cfg.clone(),
            scheme: Scheme::plain(),
        }],
    };
    let exp = |rows: Vec<RowSpec>| Experiment {
        name: "err-isolation".to_string(),
        title: "# ERR isolation".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows,
        opts: RunOptions {
            warmup_instrs: 100,
            sim_instrs: 500,
            seed: 5,
            noc: NocChoice::Analytic,
            ..RunOptions::default()
        },
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    };

    // The 4-core mix cannot run on the 2-core platform: that row's job
    // (and its baseline) panic inside the simulator.
    let (text, artifact) = execute_experiment(&exp(vec![row("good", 2), row("bad", 4)]));
    assert!(text.contains("good\t1.000"), "healthy cell renders: {text}");
    assert!(text.contains("bad\tERR"), "failed cell renders ERR: {text}");
    assert!(
        text.contains("simulation(s) failed"),
        "notes list errors: {text}"
    );

    let errors = artifact
        .get("errors")
        .and_then(|v| v.as_array())
        .expect("artifact carries an errors array");
    assert_eq!(errors.len(), 2, "result + baseline failure records");
    for e in errors {
        assert_eq!(e.get("row").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(e.get("cell").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(e.get("kind").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(e.get("component").and_then(|v| v.as_str()), Some("job"));
        let detail = e.get("detail").and_then(|v| v.as_str()).unwrap_or("");
        assert!(detail.contains("mix must match core count"), "{detail}");
    }

    let (_, clean) = execute_experiment(&exp(vec![row("good", 2)]));
    assert!(
        clean.get("errors").is_none(),
        "clean artifacts must not grow an errors key"
    );
}

/// An integrity failure flows through the executor with its audit
/// diagnostic intact: an injected conservation fault renders as `ERR`,
/// and its error object names the audit kind and the component.
#[test]
fn audit_failure_renders_err_with_its_diagnostic() {
    let cfg = SimConfig::builder()
        .cores(2)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::None)
        .build()
        .expect("valid config");
    let workload = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
    let exp = Experiment {
        name: "audit-err".to_string(),
        title: "# Audit failure renders ERR".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows: vec![RowSpec {
            labels: vec!["faulted".to_string()],
            extra: Vec::new(),
            mixes: vec![Mix::homogeneous(&workload, 2)],
            cells: vec![CellSpec {
                cfg,
                scheme: Scheme::plain(),
            }],
        }],
        opts: RunOptions {
            warmup_instrs: 500,
            sim_instrs: 3_000,
            seed: 7,
            noc: NocChoice::Analytic,
            check: Some(CheckLevel::Cheap),
            check_cadence: 64,
            fault: Some(FaultSpec {
                kind: FaultKind::DropFlit,
                at: 1_000,
            }),
            ..RunOptions::default()
        },
        normalization: Normalization::None,
        render: Render::GeomeanWs,
    };

    let (text, artifact) = execute_experiment(&exp);
    assert!(
        text.contains("faulted\tERR"),
        "faulted cell renders ERR: {text}"
    );
    let errors = artifact
        .get("errors")
        .and_then(|v| v.as_array())
        .expect("artifact carries an errors array");
    assert_eq!(errors.len(), 1);
    assert_eq!(
        errors[0].get("kind").and_then(|v| v.as_str()),
        Some("conservation violation"),
        "the audit failure keeps its kind"
    );
    assert_eq!(
        errors[0].get("component").and_then(|v| v.as_str()),
        Some("noc")
    );
}

/// Cross-run fingerprint baselines, end to end through the executor: a
/// clean full-check run records its state-hash stream, the same
/// revision re-verifies clean, and an armed criticality flip (standing
/// in for a behavioural code change — it is conserved, so no audit sees
/// it) fails verification and renders the cell as `DIV` with a
/// structured `state divergence` error naming window and component.
#[test]
fn fp_baseline_verify_renders_div_for_behavioural_regressions() {
    let dir = std::env::temp_dir().join(format!("clip-fp-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CLIP_FP_DIR", &dir);
    // Keep the run hermetic: a disk-cache hit would skip the fresh
    // simulation the baseline store records from.
    std::env::set_var("CLIP_CACHE", "0");

    let cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let workload = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
    let exp = |fault: Option<FaultSpec>| Experiment {
        name: "fp-div".to_string(),
        title: "# Fingerprint baseline DIV".to_string(),
        columns: vec!["mix".to_string(), "ws".to_string()],
        rows: vec![RowSpec {
            labels: vec!["flip".to_string()],
            extra: Vec::new(),
            mixes: vec![Mix::homogeneous(&workload, 4)],
            cells: vec![CellSpec {
                cfg: cfg.clone(),
                scheme: Scheme::plain(),
            }],
        }],
        opts: RunOptions {
            warmup_instrs: 500,
            sim_instrs: 3_000,
            seed: 7,
            noc: NocChoice::Analytic,
            check: Some(CheckLevel::Full),
            check_cadence: 16,
            fault,
            ..RunOptions::default()
        },
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    };

    // Record a known-good baseline from a clean full-check run.
    std::env::set_var("CLIP_FP_BASELINE", "record");
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp(None));
    assert!(
        artifact.get("errors").is_none(),
        "record run is clean: {text}"
    );

    // The same revision verifies clean against its own baseline.
    std::env::set_var("CLIP_FP_BASELINE", "verify");
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp(None));
    assert!(
        artifact.get("errors").is_none(),
        "same revision re-verifies clean: {text}"
    );

    // The fp key strips the fault, so the faulted run is diffed against
    // the clean baseline recorded above (the memo key keeps the fault,
    // so the job really re-simulates).
    clear_result_cache();
    let (text, artifact) = execute_experiment(&exp(Some(FaultSpec {
        kind: FaultKind::FlipCriticality,
        at: 1_000,
    })));
    std::env::remove_var("CLIP_FP_BASELINE");
    std::env::remove_var("CLIP_FP_DIR");

    assert!(
        text.contains("flip\tDIV"),
        "divergent cell renders DIV, not ERR: {text}"
    );
    // The Berti run must diverge; the faulted no-prefetch baseline run
    // may or may not (no prefetches means no criticality to flip), so
    // only the kind of every failure is pinned, not the count.
    let errors = artifact
        .get("errors")
        .and_then(|v| v.as_array())
        .expect("artifact carries an errors array");
    assert!(!errors.is_empty());
    for e in errors {
        assert_eq!(
            e.get("kind").and_then(|v| v.as_str()),
            Some("state divergence")
        );
        let component = e.get("component").and_then(|v| v.as_str()).unwrap_or("");
        assert!(
            component == "llc" || component == "txns" || component.starts_with("tile"),
            "the error names the divergent component: {component:?}"
        );
        let detail = e.get("detail").and_then(|v| v.as_str()).unwrap_or("");
        assert!(
            detail.contains("first divergent window"),
            "the error localizes the first divergent window: {detail}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
