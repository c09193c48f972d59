//! End-to-end tests of the command-line binaries.

use std::process::Command;

#[test]
fn clipsim_lists_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .arg("--list-workloads")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("605.mcf_s-1554B"));
    assert!(stdout.contains("cloudsuite.cassandra"));
    assert!(stdout.lines().count() >= 45 + 6 + 10);
}

#[test]
fn clipsim_runs_a_tiny_simulation() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .args([
            "--workload",
            "603.bwaves_s-891B",
            "--cores",
            "2",
            "--channels",
            "1",
            "--prefetcher",
            "berti",
            "--clip",
            "--instrs",
            "800",
            "--warmup",
            "200",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("normalized WS"));
    assert!(stdout.contains("CLIP"));
}

#[test]
fn clipsim_rejects_unknown_flags() {
    // Malformed input, and what the first stderr line must name. Every
    // row is refused while parsing, before any simulation starts.
    let rows: &[(&[&str], &str)] = &[
        (&["--frobnicate"], "unknown flag: --frobnicate"),
        (&["--prefetcher", "warp-drive"], "warp-drive"),
        (&["--throttler", "brake"], "brake"),
        (&["--noc", "torus"], "torus"),
        (&["--dram", "ddr9"], "ddr9"),
        (&["--cores", "many"], "--cores: invalid value \"many\""),
        (&["--seed", "-5"], "--seed: invalid value \"-5\""),
        (&["--cores", "4", "--instrs"], "--instrs needs a value"),
    ];
    for (args, named) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
            .args(*args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or("");
        assert!(
            first.starts_with("error: ") && first.contains(named),
            "{args:?}: first stderr line must name {named:?}, got {first:?}"
        );
    }
}

#[test]
fn clipsim_rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .args(["--workload", "not-a-workload", "--instrs", "100"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn trace_info_reports_a_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_clip-trace-info"))
        .arg("605.mcf_s-1554B")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MPKI"));
    assert!(stdout.contains("chase loads"));
}
