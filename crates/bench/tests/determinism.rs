//! The executor renders identical output whether the job batch runs
//! serially or across threads (the simulator and `run_jobs_checked`
//! guarantee bit-identical results; this pins the whole pipeline:
//! expansion order, dedup, normalization, rendering).
//!
//! Kept as a single `#[test]` in its own integration binary because it
//! mutates `CLIP_THREADS`/`CLIP_CACHE` for the whole process.

use clip_bench::experiment::{clear_result_cache, execute_experiment, CellSpec, Experiment};
use clip_bench::experiment::{Normalization, Render, RowSpec};
use clip_bench::figures::registry;
use clip_bench::Scale;
use clip_sim::{NocChoice, Scheme};
use clip_types::{DramKind, PrefetcherKind};

fn scale() -> Scale {
    Scale {
        cores: 2,
        instrs: 200,
        warmup: 50,
        homo_mixes: 2,
        hetero_mixes: 1,
        noc: NocChoice::Analytic,
        dram: DramKind::Ddr4,
    }
}

/// A small simulated grid: two mixes, Berti with and without CLIP,
/// normalized against the no-prefetch baseline.
fn small_grid(scale: &Scale) -> Experiment {
    let cfg = scale.config(1, PrefetcherKind::Berti, PrefetcherKind::None);
    Experiment {
        name: "determinism_smoke".into(),
        title: "# determinism smoke".into(),
        columns: vec!["mix".into(), "Berti".into(), "Berti+CLIP".into()],
        rows: scale
            .sample_homogeneous()
            .into_iter()
            .map(|mix| RowSpec {
                labels: vec![mix.name.clone()],
                extra: vec![],
                mixes: vec![mix],
                cells: vec![
                    CellSpec {
                        cfg: cfg.clone(),
                        scheme: Scheme::plain(),
                    },
                    CellSpec {
                        cfg: cfg.clone(),
                        scheme: Scheme::with_clip(),
                    },
                ],
            })
            .collect(),
        opts: scale.options(),
        normalization: Normalization::NoPrefetch,
        render: Render::GeomeanWs,
    }
}

#[test]
fn serial_and_parallel_executions_render_identically() {
    std::env::set_var("CLIP_CACHE", "0");
    let scale = scale();
    let table2 = registry()
        .into_iter()
        .find(|e| e.name == "table2")
        .expect("table2 registered");
    let run_everything = |threads: &str| -> String {
        std::env::set_var("CLIP_THREADS", threads);
        clear_result_cache();
        let mut out = String::new();
        for exp in (table2.build)(&scale) {
            out.push_str(&execute_experiment(&exp).0);
        }
        let (text, artifact) = execute_experiment(&small_grid(&scale));
        out.push_str(&text);
        out.push_str(&artifact.render());
        out
    };
    let serial = run_everything("1");
    let parallel = run_everything("2");
    assert_eq!(
        serial, parallel,
        "rendered output must not depend on thread count"
    );
    assert!(serial.contains("# Table 2"));
    assert!(serial.contains("# determinism smoke"));
}
