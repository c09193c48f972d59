//! `perfbench`: the simulator's host-speed benchmark.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! perfbench compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! ```
//!
//! A run measures each selected workload (see [`workloads`]) for
//! `--seconds` with tracing off (`--trace 0`: the end-to-end metrics),
//! then dissects one of its simulations in a traced pass (`--trace 1`:
//! the per-layer metrics); without `--trace` it does both. With several
//! workloads, each runs in a child process. Every simulation and sweep
//! pass is checked while it is measured. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics with their units. `--out DIR` also writes the full record,
//! `BENCH.json`, and the traced spans, `TRACE.json`. The process exits 1
//! when any check failed and 2 on a usage error.

mod compare;
mod host;
mod measure;
mod metrics;
mod profile;
mod workloads;

use clip_stats::Json;
use measure::{E2e, Ops};
use metrics::Summary;
use profile::{Job, Layers, Tracer};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Plan;

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n       perfbench compare BASE.json NEW.json [--bounds BENCHMARK.json]";

/// Seconds each workload is measured for, unless `--seconds` says
/// otherwise (`BENCHMARK.json` passes the same value).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: traced pass only;
    /// `None`: both.
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
}

enum Command {
    Run(Args),
    Compare {
        base: PathBuf,
        new: PathBuf,
        bounds: PathBuf,
    },
}

fn parse(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let files: Vec<&String> = argv[1..].iter().filter(|a| !a.starts_with("--")).collect();
        let bounds = match argv.iter().position(|a| a == "--bounds") {
            Some(i) => argv.get(i + 1).ok_or("--bounds needs a file")?.into(),
            None => PathBuf::from("BENCHMARK.json"),
        };
        let files: Vec<&String> = files.into_iter().filter(|f| bounds != **f).collect();
        let [base, new] = files[..] else {
            return Err("compare takes two BENCH.json files".to_string());
        };
        return Ok(Command::Compare {
            base: base.into(),
            new: new.into(),
            bounds,
        });
    }
    let mut args = Args {
        workloads: workloads::NAMES.to_vec(),
        seed: 1,
        seconds: f64::NAN,
        trace: None,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let name = workloads::NAMES
                    .iter()
                    .find(|n| *n == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => args.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 0.0 } else { DEFAULT_SECONDS };
    }
    Ok(Command::Run(args))
}

/// One workload's measurements.
struct Report {
    name: &'static str,
    e2e: Option<E2e>,
    layers: Option<Layers>,
    ops: Ops,
    tracer: Tracer,
}

/// Spec builds per set-up batch of a sweep (a batch runs about every
/// second); `setup_s` is the median over all of them.
fn setup_reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        10
    }
}

/// Measures one workload: the end-to-end loop, then the traced pass.
fn run(name: &'static str, args: &Args) -> std::io::Result<Report> {
    let scratch = host::Scratch::new()?;
    let mut ops = Ops::default();
    let mut tracer = Tracer::new();
    let plan = workloads::plan(name, args.seed, args.smoke).expect("names come from the list");
    let e2e = (args.trace != Some(true)).then(|| match &plan {
        Plan::Sim(p) => measure::sim_e2e(p, args.seconds, &mut ops),
        Plan::Sweep(p) => measure::sweep_e2e(
            p,
            scratch.path(),
            args.seconds,
            setup_reps(args.smoke),
            &mut ops,
        ),
    });
    let layers = (args.trace != Some(false)).then(|| match &plan {
        Plan::Sim(p) => {
            let (mix, opts) = p.job(0);
            let job = Job {
                cfg: &p.cfg,
                scheme: &p.scheme,
                mix,
                opts,
            };
            profile::profile_job(&mut tracer, name, &job, args.smoke, [0.0; 5], &mut ops)
        }
        Plan::Sweep(p) => {
            let bench =
                profile::bench_probe(&mut tracer, name, p, scratch.path(), args.smoke, &mut ops);
            // The sweep's first cell (Berti on the fewest channels) on its
            // first mix stands for its jobs.
            let exp = p.spec();
            let job = Job {
                cfg: &exp.rows[0].cells[0].cfg,
                scheme: &exp.rows[0].cells[0].scheme,
                mix: &exp.rows[0].mixes[0],
                opts: exp.opts.clone(),
            };
            profile::profile_job(&mut tracer, name, &job, args.smoke, bench, &mut ops)
        }
    });
    Ok(Report {
        name,
        e2e,
        layers,
        ops,
        tracer,
    })
}

/// Runs each workload in a child process of this executable, as a
/// single-workload invocation would, and merges their records. Peak RSS is a
/// process-wide mark, and memory the C allocator keeps after one
/// workload would count in the next one's peak if they shared a process.
fn run_children(args: &Args, env: &host::PinnedEnv) -> std::io::Result<(Json, Json)> {
    let scratch = host::Scratch::new()?;
    let exe = std::env::current_exe()?;
    let (mut workloads, mut spans) = (Vec::new(), Vec::new());
    let (mut attempted, mut failures) = (0, Vec::new());
    for &name in &args.workloads {
        let out = scratch.path().join(name);
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out")
            .arg(&out);
        if let Some(trace) = args.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status()?;
        let read = |file: &str| {
            std::fs::read_to_string(out.join(file))
                .ok()
                .and_then(|text| Json::parse(&text).ok())
        };
        let Some(bench) = read("BENCH.json") else {
            attempted += 1;
            failures.push(Json::from(format!("{name}: no record ({status})")));
            continue;
        };
        attempted += bench.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failures.extend(
            bench
                .get("failures")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .to_vec(),
        );
        if let Some(w) = bench.get("workloads").and_then(|w| w.get(name)) {
            workloads.push((name, w.clone()));
        }
        // Renumber the child's spans after the ones already merged.
        let offset = spans.len() as u64;
        let renumber = |v: &Json| v.as_u64().map_or(Json::Null, |id| Json::from(id + offset));
        let child_spans = read("TRACE.json").and_then(|t| t.get("spans").cloned());
        for span in child_spans.as_ref().and_then(Json::as_array).unwrap_or(&[]) {
            let Json::Object(fields) = span else { continue };
            spans.push(Json::Object(
                fields
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == "id" || k == "parent" {
                            renumber(v)
                        } else {
                            v.clone()
                        };
                        (k.clone(), v)
                    })
                    .collect(),
            ));
        }
    }
    let bench = bench_json(args, env, workloads, attempted, failures);
    Ok((bench, Json::object([("spans", Json::array(spans))])))
}

fn unit(name: &str) -> &'static str {
    metrics::def(name).map_or("", |d| d.unit)
}

fn print_table(report: &Report) {
    println!("== {} ({})", report.name, workloads::why(report.name));
    if let Some(e) = &report.e2e {
        for (name, samples) in [
            ("sim_cycles_per_s", &e.cycles_per_s),
            ("setup_s", &e.setup_s),
        ] {
            let s = Summary::of(samples);
            println!(
                "  {name:<28} {:>14.6e} {:<12} [q1 {:.6e}, q3 {:.6e}] n={}",
                s.median,
                unit(name),
                s.q1,
                s.q3,
                s.n
            );
        }
        println!(
            "  {:<28} {:>14.3} {}",
            "peak_rss_mb",
            e.peak_rss_mb,
            unit("peak_rss_mb")
        );
    }
    for (name, v) in report.layers.iter().flatten() {
        println!("  {name:<28} {v:>14.6} {}", unit(name));
    }
}

/// One workload's entry in `BENCH.json`.
fn workload_json(report: &Report) -> Json {
    let summary = |samples: &[f64], name: &str| {
        let s = Summary::of(samples);
        let d = metrics::def(name).expect("known metric");
        Json::object([
            ("unit", Json::from(d.unit)),
            ("better", Json::from(d.better)),
            ("median", Json::from(s.median)),
            ("q1", Json::from(s.q1)),
            ("q3", Json::from(s.q3)),
            ("n", Json::from(s.n)),
            (
                "samples",
                Json::array(samples.iter().map(|&x| Json::from(x))),
            ),
        ])
    };
    let mut fields = vec![("why", Json::from(workloads::why(report.name)))];
    if let Some(e) = &report.e2e {
        fields.push((
            "e2e",
            Json::object([
                (
                    "sim_cycles_per_s",
                    summary(&e.cycles_per_s, "sim_cycles_per_s"),
                ),
                ("setup_s", summary(&e.setup_s, "setup_s")),
                ("peak_rss_mb", summary(&[e.peak_rss_mb], "peak_rss_mb")),
            ]),
        ));
    }
    if let Some(layers) = &report.layers {
        fields.push((
            "layers",
            Json::object(layers.iter().map(|&(name, v)| {
                (
                    name,
                    Json::object([("unit", Json::from(unit(name))), ("value", Json::from(v))]),
                )
            })),
        ));
    }
    Json::object(fields)
}

fn bench_json(
    args: &Args,
    env: &host::PinnedEnv,
    workloads: Vec<(&str, Json)>,
    attempted: u64,
    failures: Vec<Json>,
) -> Json {
    Json::object([
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("host", host::host_json(env)),
        ("correct", Json::from(failures.is_empty())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failures.len())),
        ("failures", Json::Array(failures)),
        ("workloads", Json::object(workloads)),
    ])
}

/// The result line of a `BENCH.json`: every metric measured, keyed by
/// name (prefixed by the workload when several ran), with its unit; an
/// end-to-end metric's value is its median.
fn result_line(bench: &Json) -> Json {
    let workloads = bench.get("workloads").cloned().unwrap_or(Json::Null);
    let several = workloads.keys().len() > 1;
    let mut metrics = Vec::new();
    for w in workloads.keys() {
        let entry = workloads.get(w).expect("listed key");
        let e2e = entry.get("e2e").cloned().unwrap_or(Json::Null);
        let layers = entry.get("layers").cloned().unwrap_or(Json::Null);
        let values = e2e
            .keys()
            .into_iter()
            .map(|k| (k, e2e.get(k).and_then(|m| m.get("median"))))
            .chain(
                layers
                    .keys()
                    .into_iter()
                    .map(|k| (k, layers.get(k).and_then(|m| m.get("value")))),
            );
        for (name, value) in values {
            let key = if several {
                format!("{w}/{name}")
            } else {
                name.to_string()
            };
            let value = value.cloned().unwrap_or(Json::Null);
            metrics.push((
                key,
                Json::object([("value", value), ("unit", Json::from(unit(name)))]),
            ));
        }
    }
    let attempted = bench.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    Json::object([
        (
            "correct",
            bench.get("correct").cloned().unwrap_or(Json::from(false)),
        ),
        ("attempted", Json::from(attempted.max(1))),
        (
            "failed",
            bench.get("failed").cloned().unwrap_or(Json::from(0u64)),
        ),
        ("metrics", Json::object(metrics)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare { base, new, bounds }) => {
            return match compare::run(&base, &new, &bounds) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!(
            "perfbench: refusing to measure a debug build; build with --release (or pass --smoke)"
        );
        return ExitCode::from(2);
    }
    let env = host::pin_env();
    let measured = match args.workloads[..] {
        [name] => run(name, &args).map(|report| {
            print_table(&report);
            let failures: Vec<Json> = report
                .ops
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect();
            let entry = vec![(report.name, workload_json(&report))];
            let bench = bench_json(&args, &env, entry, report.ops.attempted, failures);
            (bench, report.tracer.to_json())
        }),
        _ => run_children(&args, &env),
    };
    let (bench, trace) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in bench
        .get("failures")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        eprintln!("perfbench: FAILED: {}", f.as_str().unwrap_or(""));
    }
    if let Some(dir) = &args.out {
        let write = |file: &str, v: &Json| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(file), v.render() + "\n"))
        };
        let mut written = write("BENCH.json", &bench);
        if args.trace != Some(false) {
            written = written.and_then(|()| write("TRACE.json", &trace));
        }
        if let Err(e) = written {
            eprintln!("perfbench: cannot write to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&bench).render());
    if bench.get("correct") == Some(&Json::from(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_what_is_reported() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
        let list = |key: &str| spec.get(key).and_then(Json::as_array).expect(key).to_vec();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, workloads::NAMES);
        for w in list("workloads") {
            assert_eq!(field(&w, "why"), workloads::why(&field(&w, "name")));
        }
        let metrics = list("end_to_end").into_iter().chain(list("per_layer"));
        let names: Vec<String> = metrics.clone().map(|m| field(&m, "name")).collect();
        let defined: Vec<&str> = metrics::E2E
            .iter()
            .chain(&metrics::LAYER)
            .map(|d| d.name)
            .collect();
        assert_eq!(names, defined);
        for m in metrics {
            let def = metrics::def(&field(&m, "name")).expect("defined");
            assert_eq!(
                (field(&m, "unit"), field(&m, "better")),
                (def.unit.to_string(), def.better.to_string())
            );
        }
    }

    #[test]
    fn parses_the_driver_command_line() {
        let argv: Vec<String> = "--workload dense-16c --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Command::Run(a)) = parse(&argv) else {
            panic!("parse failed")
        };
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["dense-16c"], 7, 3.0, Some(true))
        );
        for bad in ["--workload nope", "--trace 2", "--seconds -1", "--seed"] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse(&argv).is_err(), "{bad}");
        }
    }
}
