//! End-to-end measurement: timed runs with tracing off, and the checks
//! that their outputs are correct.

use crate::host;
use crate::workloads::{SimPlan, SweepPlan};
use clip_bench::experiment::{clear_result_cache, execute_experiment, Experiment};
use clip_sim::{set_step_override, RunOptions, Scheme, SimError, SimResult, System};
use clip_stats::Json;
use clip_trace::Mix;
use clip_types::SimConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Operations attempted and the ones that failed. An operation is one
/// simulation, one sweep pass, or one correctness gate.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }
}

/// Raw end-to-end samples of one workload.
pub struct E2e {
    /// Simulated cycles per host second, one sample per simulation or
    /// sweep pass.
    pub cycles_per_s: Vec<f64>,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident memory from the start of the measured loop.
    pub peak_rss_mb: f64,
}

/// One completed simulation.
pub struct Simulated {
    pub result: SimResult,
    /// Cycles simulated, warmup included.
    pub cycles: u64,
    /// Seconds `System::new` took.
    pub setup_s: f64,
}

/// One simulation, through the public `System` API so the simulated
/// cycle count is read back rather than assumed.
pub fn simulate(
    cfg: &SimConfig,
    scheme: &Scheme,
    mix: &Mix,
    opts: &RunOptions,
) -> Result<Simulated, SimError> {
    let t = Instant::now();
    let mut sys = System::new(cfg, scheme, mix, opts.seed, opts.noc);
    let setup_s = t.elapsed().as_secs_f64();
    let result = sys.run_checked(opts.warmup_instrs, opts.sim_instrs, opts.max_cycles)?;
    Ok(Simulated {
        result,
        cycles: sys.cycle(),
        setup_s,
    })
}

/// Checks a completed simulation for internal consistency: it ran the
/// requested cycles, every core's IPC is a finite value the core can
/// reach, and the result survives the JSON round trip the result cache
/// depends on.
fn sane(cfg: &SimConfig, opts: &RunOptions, r: &SimResult, cycles: u64) -> Result<(), String> {
    if cycles != opts.max_cycles {
        return Err(format!("ran {cycles} cycles, asked {}", opts.max_cycles));
    }
    let width = cfg.core.retire_width as f64;
    if r.per_core_ipc.len() != cfg.cores
        || !r
            .per_core_ipc
            .iter()
            .all(|&x| x.is_finite() && (0.0..=width).contains(&x))
    {
        return Err(format!("implausible per-core IPC {:?}", r.per_core_ipc));
    }
    let json = r.to_json().render();
    let back = Json::parse(&json)
        .ok()
        .and_then(|j| SimResult::from_json(&j))
        .map(|b| b.to_json().render());
    if back.as_deref() != Some(json.as_str()) {
        return Err("result does not survive a JSON round trip".to_string());
    }
    Ok(())
}

/// Times `reps` runs of `f` and returns each run's seconds.
///
/// Every result stays alive until all repetitions are done, so each
/// build allocates fresh memory rather than whatever block the
/// allocator happens to hold from the previous one.
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    let mut built = Vec::with_capacity(reps.max(1));
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            built.push(black_box(f()));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Simulations back to back for `seconds` (at least one), each on the
/// next mix of the plan, under the event-wheel scheduler; each one's
/// `System::new` is a set-up sample. Afterwards the first simulation is
/// repeated cycle by cycle and must match the timed one byte for byte.
pub fn sim_e2e(plan: &SimPlan, seconds: f64, ops: &mut Ops) -> E2e {
    host::reset_peak_rss();
    set_step_override(Some(false));
    let start = Instant::now();
    let (mut cycles_per_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    for i in 0.. {
        let (mix, opts) = plan.job(i);
        let t = Instant::now();
        let out = simulate(&plan.cfg, &plan.scheme, mix, &opts);
        let dt = t.elapsed().as_secs_f64();
        let verdict = match out {
            Ok(s) => sane(&plan.cfg, &opts, &s.result, s.cycles).map(|()| s),
            Err(e) => Err(e.to_string()),
        };
        match verdict {
            Ok(s) => {
                ops.check(true, String::new);
                cycles_per_s.push(s.cycles as f64 / dt);
                setup_s.push(s.setup_s);
                if i == 0 {
                    first = Some(s.result.to_json().render());
                }
            }
            Err(e) => {
                ops.check(false, || format!("simulation {i} ({}): {e}", mix.name));
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let (mix0, opts0) = plan.job(0);
    set_step_override(Some(true));
    let stepped =
        simulate(&plan.cfg, &plan.scheme, mix0, &opts0).map(|s| s.result.to_json().render());
    set_step_override(None);
    ops.check(
        first.is_some() && stepped.as_ref().ok() == first.as_ref(),
        || "cycle-by-cycle run differs from the event-wheel run".to_string(),
    );
    E2e {
        cycles_per_s,
        setup_s,
        peak_rss_mb: host::peak_rss_mib(),
    }
}

/// One executor pass over `exp` with the result cache in `dir` and the
/// in-process memo cleared. Returns the artifact, the wall seconds, and
/// the cache stores and hits the pass made.
pub fn sweep_pass(exp: &Experiment, dir: &Path) -> (Json, f64, u64, u64) {
    std::env::set_var("CLIP_CACHE_DIR", dir);
    clear_result_cache();
    let before = clip_bench::cache_stats();
    let t = Instant::now();
    let (_, artifact) = execute_experiment(exp);
    let dt = t.elapsed().as_secs_f64();
    let after = clip_bench::cache_stats();
    (
        artifact,
        dt,
        after.stores - before.stores,
        after.hits - before.hits,
    )
}

/// Fails when an artifact records failed cells.
pub fn clean(artifact: &Json) -> bool {
    artifact.get("errors").is_none()
}

/// Sweep passes for `seconds` (at least one). Cold passes each get a
/// fresh result cache, so every distinct job is simulated and stored;
/// warm passes all read the cache one untimed fill pass wrote. Every
/// pass must produce the artifact of the first, free of failed cells,
/// and store (cold) or hit (warm) every distinct job.
///
/// Building the spec takes tens of microseconds, and a host's speed at
/// that scale shifts by half between moments, so its repetitions are
/// spread over the run: `setup_reps` of them before the first pass and
/// again after any pass that ends a second or more after the last batch.
pub fn sweep_e2e(
    plan: &SweepPlan,
    scratch: &Path,
    seconds: f64,
    setup_reps: usize,
    ops: &mut Ops,
) -> E2e {
    let mut setup_s = time_reps(setup_reps, || plan.spec());
    let mut last_setup = Instant::now();
    host::reset_peak_rss();
    let exp = plan.spec();
    let cycles_per_job = exp.opts.max_cycles as f64;

    let warm_dir = scratch.join("warm");
    let fill = plan.warm.then(|| {
        let (artifact, _, stores, _) = sweep_pass(&exp, &warm_dir);
        ops.check(clean(&artifact) && stores > 0, || {
            "cache fill pass failed".to_string()
        });
        (artifact.render(), stores)
    });

    let start = Instant::now();
    let mut cycles_per_s = Vec::new();
    let mut reference = fill.as_ref().map(|(a, _)| a.clone());
    let mut jobs = fill.as_ref().map(|&(_, s)| s);
    for i in 0.. {
        let dir = if plan.warm {
            warm_dir.clone()
        } else {
            scratch.join(format!("cold-{i}"))
        };
        let (artifact, dt, stores, hits) = sweep_pass(&exp, &dir);
        if !plan.warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let rendered = artifact.render();
        let served = if plan.warm { hits } else { stores };
        let reference = reference.get_or_insert_with(|| rendered.clone());
        let jobs = *jobs.get_or_insert(served);
        let ok = clean(&artifact)
            && rendered == *reference
            && served == jobs
            && jobs > 0
            && (!plan.warm || stores == 0);
        if ops.check(ok, || {
            format!("sweep pass {i}: artifact or cache traffic differs from the first pass")
        }) {
            cycles_per_s.push(served as f64 * cycles_per_job / dt);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if last_setup.elapsed().as_secs_f64() >= 1.0 {
            setup_s.extend(time_reps(setup_reps, || plan.spec()));
            last_setup = Instant::now();
        }
    }
    let _ = std::fs::remove_dir_all(&warm_dir);
    E2e {
        cycles_per_s,
        setup_s,
        peak_rss_mb: host::peak_rss_mib(),
    }
}
