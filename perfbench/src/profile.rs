//! The traced pass: where a run's host time goes, layer by layer.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (the simulator itself is not instrumented) and kept in memory
//! until the run ends. For one simulation of the workload the pass
//! records:
//!
//! 1. the run under the event wheel and cycle by cycle, alternating, three
//!    untraced runs each, then once traced; every run must agree byte for
//!    byte, and the untraced medians time the run;
//! 2. one driver per layer, timing that layer's public functions on
//!    inputs derived from the same workload: the trace generator, the
//!    core against a stub memory port, the L1D/L2/LLC tag arrays, the
//!    prefetcher, the CLIP gate, the NoC at the run's flit-hop rate, and
//!    DRAM with as many reads in flight as the run had. Drivers of
//!    clocked layers skip idle cycles the way the event wheel does;
//! 3. each layer's estimated share of the run's wall time:
//!    `ns_per_op × the run's op count / the run's median wall time`.
//!
//! The shares are estimates: a driver runs its layer alone, with warmer
//! host caches than inside the simulator. `sim.residual_share` is what
//! the drivers leave unexplained (event wheel, tile glue, the uncore
//! handlers), and may go negative when the drivers overestimate.

use crate::measure::{clean, simulate, sweep_pass, Ops};
use crate::metrics::Summary;
use crate::workloads::SweepPlan;
use clip_bench::experiment::Normalization;
use clip_cache::Cache;
use clip_core::Clip;
use clip_cpu::{Core, LoadOutcome, MemIssuePort};
use clip_dram::{DramModel, DramSystem, HbmDram};
use clip_noc::{AnalyticNoc, ChipletNoc, MeshNoc, NocModel};
use clip_prefetch::{AccessInfo, PrefetchCandidate};
use clip_sim::{set_step_override, NocChoice, RunOptions, Scheme, SimResult};
use clip_stats::Json;
use clip_trace::{Instr, InstrKind, Mix};
use clip_types::{
    hash64, Addr, Cycle, DramKind, Ip, LineAddr, MemLevel, PrefetcherKind, Priority, ReqId,
    SimConfig, SimRng,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
pub struct Span {
    pub name: String,
    pub workload: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span performed, in the unit of its layer.
    pub ops: u64,
}

/// In-memory span recorder; spans nest by open/close order.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, workload: &str, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            workload: workload.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            ops: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its seconds.
    pub fn end(&mut self, id: usize, ops: u64) -> f64 {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.ops = ops;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Every span with its self time: its duration minus the time its
    /// child spans cover.
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        Json::object([(
            "spans",
            Json::array(self.spans.iter().enumerate().map(|(i, s)| {
                Json::object([
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name.as_str())),
                    ("workload", Json::from(s.workload.as_str())),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from((s.end_ns - s.start_ns) - child_ns[i])),
                    ("ops", Json::from(s.ops)),
                ])
            })),
        )])
    }
}

/// Per-layer metric values, by name.
pub type Layers = Vec<(&'static str, f64)>;

/// How much each driver processes: enough to time a layer to well under
/// a percent, little enough that the traced pass stays short.
struct DriverSize {
    /// Instructions the trace, cache, prefetch, CLIP and core drivers
    /// process, split evenly over the cores.
    instrs: usize,
    /// Cycles the NoC and DRAM drivers run.
    noc_cycles: u64,
    dram_cycles: u64,
    /// Warm sweep passes of the executor probe.
    warm_passes: usize,
    /// Untraced event-wheel and cycle-by-cycle runs of the simulation,
    /// each.
    timed_pairs: usize,
}

fn driver_size(smoke: bool) -> DriverSize {
    if smoke {
        DriverSize {
            instrs: 2_000,
            noc_cycles: 200,
            dram_cycles: 2_000,
            warm_passes: 2,
            timed_pairs: 1,
        }
    } else {
        DriverSize {
            instrs: 200_000,
            noc_cycles: 20_000,
            dram_cycles: 200_000,
            warm_passes: 20,
            timed_pairs: 3,
        }
    }
}

/// The simulation a traced pass dissects.
pub struct Job<'a> {
    pub cfg: &'a SimConfig,
    pub scheme: &'a Scheme,
    pub mix: &'a Mix,
    pub opts: RunOptions,
}

/// A demand access of the recorded stream, with the level that served
/// it in the cache driver.
struct Access {
    ip: Ip,
    addr: Addr,
    is_store: bool,
    level: MemLevel,
}

/// Nanoseconds per op, 0 when the driver did no work.
fn ns_per(secs: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}

/// Traced pass over one simulation: wheel and step runs, the per-layer
/// drivers, and the metrics derived from them. `bench` holds the
/// executor metrics, measured by the caller where the workload runs the
/// executor and zero elsewhere.
pub fn profile_job(
    tr: &mut Tracer,
    workload: &str,
    job: &Job,
    smoke: bool,
    bench: [f64; 5],
    ops: &mut Ops,
) -> Layers {
    let size = driver_size(smoke);
    let root = tr.begin(workload, "profile");
    let run = |step: bool| {
        set_step_override(Some(step));
        let t = Instant::now();
        let out = simulate(job.cfg, job.scheme, job.mix, &job.opts);
        let dt = t.elapsed().as_secs_f64();
        set_step_override(None);
        out.map(|s| (s.result, s.cycles, dt))
    };

    // Untraced runs, alternating schedulers so that a change in host
    // speed hits both alike; their medians time the run. Then the traced
    // run, for the tracing overhead.
    let mut timed: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut untraced = Vec::new();
    let id = tr.begin(workload, "sim.wheel_and_step");
    for _ in 0..size.timed_pairs {
        for step in [false, true] {
            let out = run(step);
            if let Ok((_, _, dt)) = &out {
                timed[usize::from(step)].push(*dt);
            }
            untraced.push((step, out));
        }
    }
    tr.end(id, untraced.len() as u64);
    let [wheel_s, step_s] = timed.map(|t| Summary::of(&t).median);
    let id = tr.begin(workload, "sim.wheel_run");
    let traced = run(false);
    let (r, total_cycles, traced_s) = match &traced {
        Ok((r, c, _)) => (r.clone(), *c, tr.end(id, *c)),
        Err(_) => (SimResult::default(), 0, tr.end(id, 0)),
    };

    let render = |x: &Result<(SimResult, u64, f64), clip_sim::SimError>| {
        x.as_ref().ok().map(|(r, _, _)| r.to_json().render())
    };
    let reference = render(&traced);
    ops.check(reference.is_some(), || {
        format!("traced wheel run failed: {:?}", traced.as_ref().err())
    });
    for (step, out) in &untraced {
        ops.check(reference.is_some() && render(out) == reference, || {
            let what = if *step {
                "cycle-by-cycle"
            } else {
                "event-wheel"
            };
            format!("an untraced {what} run differs from the traced run")
        });
    }
    // Whole-run op counts: `SimResult` counts the measured window, so
    // scale by the share of all simulated cycles it covers.
    let scale = total_cycles as f64 / r.cycles.max(1) as f64;
    let instrs_measured: f64 = r.per_core_ipc.iter().map(|ipc| ipc * r.cycles as f64).sum();
    let share = |ns: f64, measured_ops: f64| ns * measured_ops * scale / 1e9 / wheel_s.max(1e-12);

    let cores = job.cfg.cores;
    let per_core = (size.instrs / cores).max(1);
    let streams: Vec<Vec<Instr>> = (0..cores)
        .map(|i| generator(job, i).record(per_core))
        .collect();

    // Trace generation.
    let id = tr.begin(workload, "trace.next_instr");
    let mut n = 0u64;
    for i in 0..cores {
        let mut g = generator(job, i);
        for _ in 0..per_core {
            black_box(g.next_instr());
            n += 1;
        }
    }
    let trace_ns = ns_per(tr.end(id, n), n);

    // Cache tag arrays, on the recorded demand stream.
    let mut accesses = demand_accesses(&streams);
    let (cache_ns, llc_misses) = cache_driver(tr, workload, job.cfg, &mut accesses);
    let cache_ops = {
        let e = &r.energy;
        (e.l1_reads + e.l1_writes + e.l2_reads + e.l2_writes + e.llc_reads + e.llc_writes) as f64
    };

    // Prefetcher training, then the CLIP gate on its candidates and on
    // the core's load completions.
    let pf_kind = job.cfg.l1_prefetcher;
    let (pf_ns, candidates) = if pf_kind == PrefetcherKind::None {
        (0.0, Vec::new())
    } else {
        prefetch_driver(tr, workload, pf_kind, &accesses)
    };
    let latency = level_latencies(job.cfg, &r);
    let (cpu_ns, outcomes) = cpu_driver(tr, workload, job.cfg, &streams, &accesses, latency);
    let clip_ns = match &job.scheme.clip {
        Some(cc) if !candidates.is_empty() => clip_driver(tr, workload, cc, &outcomes, &candidates),
        _ => 0.0,
    };

    // Fabric and memory, loaded as the run loaded them.
    let noc_ns = noc_driver(tr, workload, job, &r, size.noc_cycles);
    let dram_ns = dram_driver(tr, workload, job, &r, &llc_misses, size.dram_cycles);
    tr.end(root, 0);

    let clip_candidates = r.clip.map_or(0, |c| c.stats.candidates);
    let shares = [
        share(noc_ns, r.noc_flit_hops as f64),
        share(dram_ns, r.dram_transfers as f64),
        share(cache_ns, cache_ops),
        share(cpu_ns, instrs_measured),
        share(trace_ns, instrs_measured),
        share(pf_ns, r.misses.l1_accesses as f64),
        share(clip_ns, clip_candidates as f64),
    ];
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let has_pf = pf_kind != PrefetcherKind::None;
    vec![
        (
            "sim.wheel_speedup",
            if wheel_s > 0.0 { step_s / wheel_s } else { 0.0 },
        ),
        ("sim.residual_share", 1.0 - shares.iter().sum::<f64>()),
        ("sim.cycles", r.cycles as f64),
        ("sim.instrs", instrs_measured.round()),
        ("noc.ns_per_flit_hop", noc_ns),
        ("noc.est_share", shares[0]),
        ("noc.flit_hops", r.noc_flit_hops as f64),
        ("dram.ns_per_transfer", dram_ns),
        ("dram.est_share", shares[1]),
        ("dram.transfers", r.dram_transfers as f64),
        ("dram.bw_util", r.dram_bw_util),
        (
            "dram.row_hit_ratio",
            ratio(r.dram_row_hits, r.dram_transfers),
        ),
        ("dram.demand_latency_cycles", r.latency.by_dram.avg()),
        ("cache.ns_per_access", cache_ns),
        ("cache.est_share", shares[2]),
        (
            "cache.l1_miss_ratio",
            ratio(r.misses.l1_misses, r.misses.l1_accesses),
        ),
        (
            "cache.llc_miss_ratio",
            ratio(r.misses.llc_misses, r.misses.llc_accesses),
        ),
        ("cpu.ns_per_instr", cpu_ns),
        ("cpu.est_share", shares[3]),
        ("cpu.ipc", r.mean_ipc()),
        ("trace.ns_per_instr", trace_ns),
        ("trace.est_share", shares[4]),
        ("prefetch.ns_per_access", pf_ns),
        ("prefetch.est_share", shares[5]),
        ("prefetch.candidates", r.prefetch.candidates as f64),
        ("prefetch.issued", r.prefetch.issued as f64),
        (
            "prefetch.accuracy",
            if has_pf { r.prefetch.accuracy() } else { 0.0 },
        ),
        ("core.ns_per_candidate", clip_ns),
        ("core.est_share", shares[6]),
        ("core.candidates", clip_candidates as f64),
        (
            "core.drop_rate",
            r.clip.map_or(0.0, |c| c.stats.drop_rate()),
        ),
        ("bench.jobs", bench[0]),
        ("bench.cache_hits", bench[1]),
        ("bench.cache_stores", bench[2]),
        ("bench.ms_per_cached_job", bench[3]),
        ("bench.thread_util", bench[4]),
        (
            "profile.overhead",
            if wheel_s > 0.0 {
                traced_s / wheel_s - 1.0
            } else {
                0.0
            },
        ),
    ]
}

/// The executor probe of a sweep workload: one cold pass (fresh cache)
/// and warm passes over it. Returns `bench.*` in [`profile_job`] order.
pub fn bench_probe(
    tr: &mut Tracer,
    workload: &str,
    plan: &SweepPlan,
    scratch: &Path,
    smoke: bool,
    ops: &mut Ops,
) -> [f64; 5] {
    let exp = plan.spec();
    // Each cell of a normalized figure also needs its no-prefetch
    // baseline run.
    let per_cell = if exp.normalization == Normalization::NoPrefetch {
        2
    } else {
        1
    };
    let jobs: usize = exp
        .rows
        .iter()
        .map(|row| row.cells.len() * row.mixes.len() * per_cell)
        .sum();
    let dir = scratch.join("probe");
    let threads = crate::host::sweep_threads() as f64;

    let id = tr.begin(workload, "bench.cold_pass");
    let cpu0 = crate::host::cpu_seconds();
    let (cold, cold_s, stores, _) = sweep_pass(&exp, &dir);
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    tr.end(id, stores);
    ops.check(clean(&cold) && stores > 0, || {
        "cold sweep pass failed".to_string()
    });
    let cold = cold.render();

    let mut warm_s = Vec::new();
    let mut hits = 0;
    for _ in 0..driver_size(smoke).warm_passes {
        let id = tr.begin(workload, "bench.warm_pass");
        let (warm, dt, new_stores, h) = sweep_pass(&exp, &dir);
        tr.end(id, h);
        ops.check(
            warm.render() == cold && new_stores == 0 && h == stores,
            || "warm pass differs from the cold pass".to_string(),
        );
        warm_s.push(dt);
        hits = h;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let warm_median = Summary::of(&warm_s).median;
    [
        jobs as f64,
        hits as f64,
        stores as f64,
        if hits == 0 {
            0.0
        } else {
            warm_median * 1e3 / hits as f64
        },
        cpu_s / (threads * cold_s),
    ]
}

/// The trace generator core `i` of the job's system uses (same seeding
/// as `System::new`).
fn generator(job: &Job, i: usize) -> clip_trace::TraceGenerator {
    job.mix.workloads[i].generator(job.opts.seed ^ (i as u64).wrapping_mul(0x9E37))
}

/// Loads and stores of each core's stream, in each core's address space
/// (the simulator offsets core `i` by `(i + 1) << 42`).
fn demand_accesses(streams: &[Vec<Instr>]) -> Vec<Vec<Access>> {
    streams
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let base = ((i as u64) + 1) << 42;
            s.iter()
                .filter_map(|ins| {
                    let (addr, is_store) = match ins.kind {
                        InstrKind::Load { addr, .. } => (addr, false),
                        InstrKind::Store { addr } => (addr, true),
                        _ => return None,
                    };
                    Some(Access {
                        ip: ins.ip,
                        addr: Addr::new(base + addr.raw()),
                        is_store,
                        level: MemLevel::L1,
                    })
                })
                .collect()
        })
        .collect()
}

/// Private L1D and L2 per core and one LLC slice per core, looked up and
/// filled along each core's demand stream. Records the level serving
/// each access; returns ns per lookup-or-fill and the LLC-missing lines.
fn cache_driver(
    tr: &mut Tracer,
    workload: &str,
    cfg: &SimConfig,
    accesses: &mut [Vec<Access>],
) -> (f64, Vec<LineAddr>) {
    let cores = cfg.cores;
    let mut l1: Vec<Cache> = (0..cores).map(|_| Cache::new(&cfg.l1d)).collect();
    let mut l2: Vec<Cache> = (0..cores).map(|_| Cache::new(&cfg.l2)).collect();
    let mut llc: Vec<Cache> = (0..cores).map(|_| Cache::new(&cfg.llc_slice)).collect();
    let mut misses = Vec::new();
    let mut n = 0u64;
    let id = tr.begin(workload, "cache.lookup_fill");
    for (c, stream) in accesses.iter_mut().enumerate() {
        for (t, a) in stream.iter_mut().enumerate() {
            let now = t as Cycle;
            let line = a.addr.line();
            n += 1;
            a.level = if l1[c].lookup(line, a.is_store, now).is_hit() {
                MemLevel::L1
            } else {
                n += 2;
                let level = if l2[c].lookup(line, false, now).is_hit() {
                    MemLevel::L2
                } else {
                    let slice = &mut llc[(hash64(line.raw()) % cores as u64) as usize];
                    n += 2;
                    let level = if slice.lookup(line, false, now).is_hit() {
                        MemLevel::Llc
                    } else {
                        n += 1;
                        slice.fill(line, false, false, now);
                        misses.push(line);
                        MemLevel::Dram
                    };
                    l2[c].fill(line, false, false, now);
                    level
                };
                l1[c].fill(line, a.is_store, false, now);
                level
            };
        }
    }
    (ns_per(tr.end(id, n), n), misses)
}

/// One prefetcher per core trained on its demand stream. Returns ns per
/// access and each core's candidates.
fn prefetch_driver(
    tr: &mut Tracer,
    workload: &str,
    kind: PrefetcherKind,
    accesses: &[Vec<Access>],
) -> (f64, Vec<Vec<PrefetchCandidate>>) {
    let mut pfs: Vec<_> = accesses
        .iter()
        .map(|_| clip_prefetch::build(kind))
        .collect();
    let mut out: Vec<Vec<PrefetchCandidate>> = accesses.iter().map(|_| Vec::new()).collect();
    let mut n = 0u64;
    let id = tr.begin(workload, "prefetch.on_access");
    for (c, stream) in accesses.iter().enumerate() {
        for (t, a) in stream.iter().enumerate() {
            let info = AccessInfo {
                ip: a.ip,
                addr: a.addr,
                hit: a.level == MemLevel::L1,
                is_store: a.is_store,
                cycle: t as Cycle,
            };
            pfs[c].on_access(&info, &mut out[c]);
            n += 1;
        }
    }
    (ns_per(tr.end(id, n), n), out)
}

/// Completes each load after the run's mean latency for the level the
/// cache driver recorded for it.
struct StubPort<'a> {
    levels: &'a [MemLevel],
    next: usize,
    /// Cycles to complete, by [`level_index`].
    latency: [Cycle; 4],
    inflight: BinaryHeap<Reverse<(Cycle, u64, MemLevel)>>,
}

fn level_index(level: MemLevel) -> usize {
    match level {
        MemLevel::L1 => 0,
        MemLevel::L2 => 1,
        MemLevel::Llc => 2,
        MemLevel::Dram => 3,
    }
}

impl MemIssuePort for StubPort<'_> {
    fn issue_load(&mut self, _ip: Ip, _addr: Addr, now: Cycle) -> Option<ReqId> {
        let level = self.levels[self.next % self.levels.len()];
        let id = self.next as u64;
        self.next += 1;
        let due = now + self.latency[level_index(level)];
        self.inflight.push(Reverse((due, id, level)));
        Some(ReqId(id))
    }

    fn issue_store(&mut self, _ip: Ip, _addr: Addr, _now: Cycle) -> bool {
        true
    }
}

/// Mean demand latency per serving level in the run, for the stub port.
fn level_latencies(cfg: &SimConfig, r: &SimResult) -> [Cycle; 4] {
    let miss = r.latency.l1_miss.avg().max(1.0);
    let avg = |s: &clip_stats::LatencyStat| if s.count == 0 { miss } else { s.avg() };
    [
        cfg.l1d.latency,
        avg(&r.latency.by_l2) as Cycle,
        avg(&r.latency.by_llc) as Cycle,
        avg(&r.latency.by_dram) as Cycle,
    ]
}

/// One core per stream against a [`StubPort`], driven as the event wheel
/// drives it: ticked when it has work, skipped (`skip_stalled`) while it
/// waits on a load. Returns ns per retired instruction and each core's
/// load completions.
fn cpu_driver(
    tr: &mut Tracer,
    workload: &str,
    cfg: &SimConfig,
    streams: &[Vec<Instr>],
    accesses: &[Vec<Access>],
    latency: [Cycle; 4],
) -> (f64, Vec<Vec<LoadOutcome>>) {
    let mut outcomes = Vec::with_capacity(streams.len());
    let mut retired = 0u64;
    let id = tr.begin(workload, "cpu.tick");
    for (stream, acc) in streams.iter().zip(accesses) {
        let levels: Vec<MemLevel> = acc
            .iter()
            .filter(|a| !a.is_store)
            .map(|a| a.level)
            .collect();
        let mut done = Vec::new();
        if !stream.is_empty() && !levels.is_empty() {
            let mut core = Core::new(&cfg.core);
            let mut port = StubPort {
                levels: &levels,
                next: 0,
                latency,
                inflight: BinaryHeap::new(),
            };
            let mut pos = 0;
            let mut fetch = || {
                let ins = stream[pos % stream.len()];
                pos += 1;
                ins
            };
            let target = stream.len() as u64;
            let mut now: Cycle = 0;
            loop {
                while let Some(&Reverse((due, req, level))) = port.inflight.peek() {
                    if due > now {
                        break;
                    }
                    port.inflight.pop();
                    done.extend(core.complete_load(ReqId(req), level, now));
                }
                if core.retired() >= target {
                    break;
                }
                let load_due = port.inflight.peek().map(|Reverse((due, _, _))| *due);
                let wake = match (core.next_activity(now), load_due) {
                    (Some(a), Some(b)) => a.min(b),
                    (a, b) => match a.or(b) {
                        Some(t) => t,
                        None => break,
                    },
                };
                if wake > now {
                    core.skip_stalled(now, wake - now);
                    now = wake;
                    continue;
                }
                core.tick(now, &mut fetch, &mut port);
                now += 1;
            }
            retired += core.retired();
        }
        outcomes.push(done);
    }
    (ns_per(tr.end(id, retired), retired), outcomes)
}

/// One CLIP gate per core: trains on the core's load completions and
/// filters the prefetcher's candidates, interleaved. Returns ns per
/// candidate (training included).
fn clip_driver(
    tr: &mut Tracer,
    workload: &str,
    cc: &clip_core::ClipConfig,
    outcomes: &[Vec<LoadOutcome>],
    candidates: &[Vec<PrefetchCandidate>],
) -> f64 {
    let mut clips: Vec<Clip> = candidates.iter().map(|_| Clip::new(cc.clone())).collect();
    let mut n = 0u64;
    let id = tr.begin(workload, "core.clip_gate");
    for (c, (outs, cands)) in outcomes.iter().zip(candidates).enumerate() {
        for k in 0..outs.len().max(cands.len()) {
            if let Some(o) = outs.get(k) {
                clips[c].on_load_complete(o);
            }
            if let Some(p) = cands.get(k) {
                black_box(clips[c].filter_prefetch(p.line, p.trigger_ip));
                n += 1;
            }
        }
    }
    ns_per(tr.end(id, n), n)
}

/// The job's fabric fed uniform random request and data packets at the
/// run's flit-hop rate, ticked only while it has work or a packet is
/// due. Returns ns per flit-hop; 0 when the run moved no flits (a
/// one-node fabric).
fn noc_driver(tr: &mut Tracer, workload: &str, job: &Job, r: &SimResult, cycles: u64) -> f64 {
    let rate = r.noc_flit_hops as f64 / r.cycles.max(1) as f64;
    let cfg = &job.cfg.noc;
    let mut noc: Box<dyn NocModel> = match job.opts.noc {
        NocChoice::Mesh => Box::new(MeshNoc::new(cfg)),
        NocChoice::Analytic => Box::new(AnalyticNoc::new(cfg)),
        NocChoice::Chiplet => Box::new(ChipletNoc::new(cfg)),
    };
    let nodes = noc.nodes();
    if nodes < 2 || rate == 0.0 {
        return 0.0;
    }
    let cols = cfg.mesh_cols.max(1);
    let hops = |a: usize, b: usize| (a % cols).abs_diff(b % cols) + (a / cols).abs_diff(b / cols);
    let mut rng = SimRng::seed_from_u64(job.opts.seed);
    let mut draw = || {
        let src = rng.gen_range(0..nodes);
        let mut dst = rng.gen_range(0..nodes - 1);
        if dst >= src {
            dst += 1;
        }
        let flits = if rng.gen_bool(0.5) {
            cfg.data_packet_flits
        } else {
            cfg.addr_packet_flits
        };
        (src, dst, flits)
    };
    let cycles = cycles.min(r.cycles).max(1);
    let limit = cycles * 4 + 10_000;
    let (mut sent, mut delivered, mut spent) = (0u64, 0u64, 0.0);
    let mut packet = draw();
    let id = tr.begin(workload, "noc.send_tick");
    let mut now = 0;
    while now < limit && (now < cycles || delivered < sent) {
        // A packet is due once the flit-hops sent so far fall below the
        // rate's allowance.
        while now < cycles && (spent / rate) as Cycle <= now {
            let (src, dst, flits) = packet;
            if noc
                .send(src, dst, flits, Priority::Demand, sent, now)
                .is_err()
            {
                break;
            }
            sent += 1;
            spent += (flits * hops(src, dst)) as f64;
            packet = draw();
        }
        delivered += noc.tick(now).len() as u64;
        now += 1;
        let due = if now < cycles {
            (spent / rate) as Cycle
        } else {
            limit
        };
        now = noc.next_activity(now).map_or(due, |t| t.min(due)).max(now);
    }
    let n = noc.flit_hops();
    ns_per(tr.end(id, n), n)
}

/// The job's memory backend fed demand reads of the recorded LLC-miss
/// lines, closed loop: as many reads outstanding as the run kept in
/// flight on average (transfer rate × mean DRAM latency, by Little's
/// law), so a saturated run's full queues are reproduced. Ticked only
/// while it has work (`skip_idle` otherwise). Returns ns per completed
/// transfer.
fn dram_driver(
    tr: &mut Tracer,
    workload: &str,
    job: &Job,
    r: &SimResult,
    lines: &[LineAddr],
    cycles: u64,
) -> f64 {
    let rate = r.dram_transfers as f64 / r.cycles.max(1) as f64;
    if rate == 0.0 || lines.is_empty() {
        return 0.0;
    }
    let outstanding = (rate * r.latency.by_dram.avg()).round().max(1.0) as u64;
    let cfg = &job.cfg.dram;
    let mut dram: Box<dyn DramModel> = match cfg.kind {
        DramKind::Ddr4 => Box::new(DramSystem::new(cfg)),
        DramKind::Hbm => Box::new(HbmDram::new(cfg)),
    };
    let cycles = cycles.min(r.cycles).max(1);
    let (mut sent, mut done) = (0u64, 0u64);
    let id = tr.begin(workload, "dram.enqueue_tick");
    let mut now = 0;
    while now < cycles {
        while sent - done < outstanding {
            let line = lines[sent as usize % lines.len()];
            let ch = dram.channel_for(line);
            if !dram.read_queue_has_room(ch)
                || dram
                    .enqueue_read(ch, ReqId(sent), line, Priority::Demand, now)
                    .is_err()
            {
                break;
            }
            sent += 1;
        }
        done += dram.tick(now).len() as u64;
        now += 1;
        if let Some(wake) = dram.next_activity(now).filter(|&t| t > now) {
            let wake = wake.min(cycles);
            dram.skip_idle(now, wake);
            now = wake;
        }
    }
    ns_per(tr.end(id, done), done)
}
