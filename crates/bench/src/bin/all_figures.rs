//! The entry point for every figure and table: runs entries of the spec
//! registry ([`clip_bench::figures::registry`]) in-process.
//!
//! With no arguments it runs the sweep that produced EXPERIMENTS.md:
//! every `in_all` entry in registry order, each under a banner line. The
//! in-process result cache is shared across all figures (every
//! no-prefetch baseline and every repeated (config, scheme, mix) cell
//! runs exactly once). Besides the tables on stdout, each experiment
//! writes its JSON artifact under `target/experiments/`, plus an
//! `index.json` mapping entry names to their artifacts.
//!
//! With names, it runs exactly those entries in the given order (the
//! development harnesses `summary` and `probe` included): tables on
//! stdout and one artifact per experiment, without banners or
//! `index.json`. An unknown name is rejected before anything runs; the
//! valid names go to stderr and the exit code is failure.
//!
//! Usage: `cargo run -p clip-bench --release --bin all_figures [-- <name>...]`,
//! with the `CLIP_*` environment variables controlling scale.

use clip_bench::experiment::{artifact_dir, run_experiment};
use clip_bench::figures::{registry, FigureEntry};
use clip_bench::Scale;
use clip_stats::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let entries = registry();
    let mut picked = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(entry) = entries.iter().find(|e| e.name == name) else {
            eprintln!("error: unknown figure {name:?}; known figures:");
            for e in &entries {
                eprintln!("  {}", e.name);
            }
            return ExitCode::FAILURE;
        };
        picked.push(entry);
    }
    let scale = Scale::from_env();
    if picked.is_empty() {
        let sweep: Vec<&FigureEntry> = entries.iter().filter(|e| e.in_all).collect();
        run_sweep(&sweep, &scale);
    } else {
        for entry in picked {
            for exp in (entry.build)(&scale) {
                run_experiment(&exp);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs `entries` under banner lines and writes `index.json`.
fn run_sweep(entries: &[&FigureEntry], scale: &Scale) {
    let mut index = Vec::new();
    for entry in entries {
        println!(
            "\n===================== {} =====================",
            entry.name
        );
        let mut artifacts = Vec::new();
        for exp in (entry.build)(scale) {
            let name = exp.name.clone();
            run_experiment(&exp);
            artifacts.push(Json::from(name));
        }
        index.push(Json::object([
            ("bin", Json::from(entry.name)),
            ("artifacts", Json::array(artifacts)),
        ]));
    }
    let dir = artifact_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("index.json"), Json::array(index).render());
    }
}
