//! Runs the built benchmark in `--smoke` mode over every workload, each
//! in its own child process as a full run does, and checks the merged
//! record: every metric `BENCHMARK.json` names is reported for every
//! workload with a finite value, no operation failed, and the merged
//! spans form one tree.

use clip_stats::Json;
use std::process::Command;

#[test]
fn smoke_run_reports_every_benchmark_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let line = Json::parse(stdout.lines().last().expect("result line")).expect("JSON");
    assert_eq!(line.get("correct"), Some(&Json::from(true)), "{stdout}");
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));

    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let names = |key: &str| -> Vec<String> {
        let list = spec.get(key).and_then(Json::as_array).expect(key);
        list.iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let metrics = line.get("metrics").expect("metrics");
    for w in names("workloads") {
        for m in names("end_to_end").iter().chain(&names("per_layer")) {
            let key = format!("{w}/{m}");
            let v = metrics
                .get(&key)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{key} = {v:?}");
        }
    }

    let read = |file: &str| {
        Json::parse(&std::fs::read_to_string(out.join(file)).expect(file)).expect(file)
    };
    let bench = read("BENCH.json");
    let recorded = bench.get("workloads").expect("workloads");
    assert_eq!(recorded.keys(), names("workloads"));
    let spans = read("TRACE.json");
    let spans = spans.get("spans").and_then(Json::as_array).expect("spans");
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.get("id").and_then(Json::as_u64), Some(i as u64));
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            assert!(p < i as u64, "span {i} has parent {p}");
        }
    }
}
