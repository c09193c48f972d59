//! The benchmark's workloads: what each simulates, built from `--seed`.
//!
//! Every simulation runs for a fixed number of simulated cycles
//! (`RunOptions::max_cycles`, with a measured-instruction target that is
//! never reached), not a fixed instruction count. At these run lengths
//! the seed moves a mix's IPC by a third or more, so a fixed instruction
//! count would make host time per run swing with the seed; a fixed cycle
//! count keeps the simulated work of every seed the same, and host time
//! per simulated cycle is what the benchmark reports.

use clip_bench::experiment::Experiment;
use clip_bench::Scale;
use clip_sim::{NocChoice, RunOptions, Scheme};
use clip_trace::Mix;
use clip_types::{DramKind, PrefetcherKind, SimConfig};

/// Workload names, in run order.
pub const NAMES: [&str; 5] = [
    "quiet-1c",
    "dense-16c",
    "dense-64c-mesh",
    "fig02-cold",
    "fig02-warm",
];

/// A measured-instruction target no run reaches: runs end at
/// `max_cycles`.
const UNBOUNDED_INSTRS: u64 = 1 << 40;

/// Heterogeneous mixes drawn per seed; simulation `i` of a run uses mix
/// `i`, so one run's median spans many different mixes.
const MIX_POOL: usize = 64;

/// What one workload runs.
pub enum Plan {
    /// Independent simulations of one configuration, one mix each.
    Sim(Box<SimPlan>),
    /// The `fig02` figure through the experiment executor and its
    /// on-disk result cache: every pass simulates (`warm == false`, a
    /// fresh cache each pass) or every pass is served from the cache
    /// (`warm == true`).
    Sweep(SweepPlan),
}

pub struct SimPlan {
    pub cfg: SimConfig,
    pub scheme: Scheme,
    mixes: Vec<Mix>,
    opts: RunOptions,
}

impl SimPlan {
    /// Mix and run options of the run's `i`-th simulation.
    pub fn job(&self, i: usize) -> (&Mix, RunOptions) {
        let mix = &self.mixes[i % self.mixes.len()];
        let opts = RunOptions {
            seed: self
                .opts
                .seed
                .wrapping_mul(1_000_003)
                .wrapping_add(i as u64),
            ..self.opts.clone()
        };
        (mix, opts)
    }
}

pub struct SweepPlan {
    pub warm: bool,
    seed: u64,
    smoke: bool,
}

impl SweepPlan {
    /// Builds the sweep's spec: the registry's `fig02` at this
    /// workload's scale, with the rows' mixes drawn from the seed. This
    /// is the sweep workloads' set-up step.
    pub fn spec(&self) -> Experiment {
        let (cores, mixes, warmup, cycles) = if self.smoke {
            (2, 1, 20, 1_000)
        } else {
            (8, 3, 200, 20_000)
        };
        let scale = Scale {
            cores,
            instrs: UNBOUNDED_INSTRS,
            warmup,
            homo_mixes: 1,
            hetero_mixes: mixes,
            noc: NocChoice::Analytic,
            dram: DramKind::Ddr4,
        };
        let entry = clip_bench::figures::registry()
            .into_iter()
            .find(|e| e.name == "fig02")
            .expect("fig02 is registered");
        let mut exp = (entry.build)(&scale).remove(0);
        let mixes = clip_trace::heterogeneous_mixes(mixes, cores, self.seed);
        for row in &mut exp.rows {
            row.mixes = mixes.clone();
        }
        exp.opts.seed = self.seed;
        exp.opts.max_cycles = cycles;
        exp
    }
}

/// One line on why each workload is in the benchmark.
pub fn why(name: &str) -> &'static str {
    match name {
        "quiet-1c" => "one latency-bound mcf core on far memory: the event wheel skips most cycles; NoC, prefetcher and CLIP do no work",
        "dense-16c" => "16 cores on one DDR4 channel with Berti and CLIP: prefetcher, CLIP gate and a saturated DRAM queue work every cycle",
        "dense-64c-mesh" => "the paper's 64-core 8x8 flit-level mesh, 8 channels, Berti and CLIP: mesh and per-tile work dominate, few cycles skip",
        "fig02-cold" => "fig02 sweep through the executor on 2 threads, fresh result cache each pass: parallel simulation plus cache writes",
        "fig02-warm" => "the same fig02 sweep with every job a result-cache hit: executor overhead and cache reads only, no simulation",
        _ => "",
    }
}

/// Builds the plan of workload `name` for `seed`; `smoke` shrinks every
/// run to a few thousand cycles.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Option<Plan> {
    let pick = |full: u64, tiny: u64| if smoke { tiny } else { full };
    let sim = |cfg: SimConfig, scheme: Scheme, mixes: Vec<Mix>, noc, warmup, cycles| {
        Plan::Sim(Box::new(SimPlan {
            cfg,
            scheme,
            mixes,
            opts: RunOptions {
                warmup_instrs: warmup,
                sim_instrs: UNBOUNDED_INSTRS,
                seed,
                noc,
                max_cycles: cycles,
                ..RunOptions::default()
            },
        }))
    };
    let dense = |cores: usize, channels: usize| {
        SimConfig::builder()
            .cores(cores)
            .dram_channels(channels)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid dense config")
    };
    let hetero = |cores: usize| clip_trace::heterogeneous_mixes(MIX_POOL, cores, seed);
    Some(match name {
        "quiet-1c" => {
            // The `engine_bench` shape: a narrow core with a 4-deep load
            // queue chasing pointers into memory four times slower than
            // DDR4, so it is stalled on a miss most cycles.
            let mut cfg = SimConfig::builder()
                .cores(1)
                .dram_channels(1)
                .l1_prefetcher(PrefetcherKind::None)
                .rob_entries(32)
                .build()
                .expect("valid quiet config");
            cfg.core.load_queue = 4;
            cfg.dram.t_rp *= 4;
            cfg.dram.t_rcd *= 4;
            cfg.dram.t_cas *= 4;
            cfg.dram.burst_cycles *= 4;
            let mcf = clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload");
            sim(
                cfg,
                Scheme::plain(),
                vec![Mix::homogeneous(&mcf, 1)],
                NocChoice::Analytic,
                pick(20_000, 200),
                pick(4_000_000, 20_000),
            )
        }
        "dense-16c" => sim(
            dense(16, 1),
            Scheme::with_clip(),
            hetero(16),
            NocChoice::Analytic,
            pick(300, 10),
            pick(100_000, 5_000),
        ),
        "dense-64c-mesh" => sim(
            dense(64, 8),
            Scheme::with_clip(),
            hetero(64),
            NocChoice::Mesh,
            pick(100, 5),
            pick(16_000, 1_500),
        ),
        "fig02-cold" | "fig02-warm" => Plan::Sweep(SweepPlan {
            warm: name == "fig02-warm",
            seed,
            smoke,
        }),
        _ => return None,
    })
}
