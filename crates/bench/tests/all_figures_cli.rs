//! The `all_figures` command line: an unknown name is rejected before
//! anything runs, a mistyped gate knob stops the run naming the words
//! it accepts, and a named entry prints and writes exactly what its
//! specs render, without the sweep's `index.json`.

use clip_bench::experiment::execute_experiment;
use clip_bench::figures::registry;
use clip_bench::Scale;
use clip_sim::NocChoice;
use clip_types::DramKind;
use std::path::{Path, PathBuf};
use std::process::Output;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("clip-all-figures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs `all_figures` at smoke scale with its artifacts under `dir`.
fn all_figures(dir: &Path, args: &[&str]) -> Output {
    all_figures_with(dir, args, &[])
}

/// [`all_figures`] with extra environment variables.
fn all_figures_with(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(args)
        .envs(env.iter().copied())
        .env("CLIP_ARTIFACT_DIR", dir)
        .env("CLIP_CACHE", "0")
        .env("CLIP_CORES", "4")
        .env("CLIP_INSTRS", "300")
        .env("CLIP_WARMUP", "100")
        .env("CLIP_MIXES", "2")
        .env("CLIP_NOC", "analytic")
        .env("CLIP_DRAM", "ddr4")
        .output()
        .expect("all_figures starts")
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn unknown_name_fails_listing_the_valid_names() {
    let dir = temp_dir("unknown");
    let out = all_figures(&dir, &["table3", "fig99"]);
    assert!(!out.status.success(), "an unknown name must fail");
    assert!(out.stdout.is_empty(), "nothing ran before the check");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("\"fig99\""),
        "names the bad entry: {stderr}"
    );
    for entry in registry() {
        assert!(
            stderr.lines().any(|l| l.trim() == entry.name),
            "{} listed: {stderr}",
            entry.name
        );
    }
    assert!(files_in(&dir).is_empty(), "no artifact written");
}

/// `knob=typo` must stop a fig02 run with status 2 before anything is
/// printed or written, naming the knob, the value and `words`.
fn gate_stops_the_run(knob: &str, typo: &str, words: &str) {
    let dir = temp_dir(&format!("gate-{typo}"));
    let out = all_figures_with(&dir, &["fig02"], &[(knob, typo)]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{knob}={typo}: {stderr}");
    assert!(out.stdout.is_empty(), "no table printed");
    assert!(
        stderr.contains(&format!("{knob}=\"{typo}\"")),
        "names the value: {stderr}"
    );
    assert!(stderr.contains(words), "names the accepted words: {stderr}");
    assert!(files_in(&dir).is_empty(), "no artifact written");
}

#[test]
fn a_mistyped_fp_baseline_stops_the_run() {
    // `require` is the retired strict mode; `verfy` a typo of `verify`.
    // Either used to read as `off`: a gate that checked nothing.
    for typo in ["require", "verfy"] {
        gate_stops_the_run("CLIP_FP_BASELINE", typo, "record, verify, off, 0");
    }
}

#[test]
fn a_mistyped_check_level_stops_the_run() {
    gate_stops_the_run("CLIP_CHECK", "ful", "off, 0, cheap, 1, full, 2");
}

#[test]
fn a_mistyped_tick_mode_stops_the_run() {
    // A typo of `step` used to run the wheel: a step-vs-wheel diff that
    // compared the wheel against itself.
    gate_stops_the_run("CLIP_TICK", "stpe", "step, wheel");
}

#[test]
fn a_named_table_prints_and_writes_only_its_artifact() {
    let dir = temp_dir("table3");
    let out = all_figures(&dir, &["table3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let scale = Scale {
        cores: 4,
        instrs: 300,
        warmup: 100,
        homo_mixes: 2,
        hetero_mixes: 2,
        noc: NocChoice::Analytic,
        dram: DramKind::Ddr4,
    };
    let entry = registry()
        .into_iter()
        .find(|e| e.name == "table3")
        .expect("table3 is registered");
    let exp = (entry.build)(&scale).remove(0);
    let (text, artifact) = execute_experiment(&exp);

    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), text);
    assert_eq!(files_in(&dir), ["table3.json"], "no index.json");
    let written = std::fs::read_to_string(dir.join("table3.json")).expect("artifact");
    assert_eq!(written, artifact.render());
    let _ = std::fs::remove_dir_all(&dir);
}
