//! Synthetic workload models and trace generation.
//!
//! The CLIP paper evaluates on proprietary simpoint traces (SPEC CPU2017,
//! GAP, CloudSuite, CVP). Those traces cannot be redistributed, so this
//! crate substitutes **seeded generative workload models**: each named
//! workload (e.g. `605.mcf_s-1554B`) is a parameterised instruction-stream
//! generator that reproduces the statistics the paper's phenomena depend on
//! — footprint, spatial pattern mix, branch entropy, branch-correlated load
//! behaviour (the source of *dynamic-critical* IPs), load-IP population, and
//! memory-level parallelism. See `DESIGN.md` §3 for the substitution
//! rationale.
//!
//! # Examples
//!
//! ```
//! use clip_trace::catalog;
//!
//! let specs = catalog::spec_cpu2017();
//! assert_eq!(specs.len(), 45);
//! let mut gen = specs[0].generator(7);
//! let instr = gen.next_instr();
//! assert!(instr.ip.raw() > 0);
//! ```

pub mod analysis;
pub mod catalog;
pub mod mix;
pub mod spec;

pub use analysis::TraceStats;
pub use mix::{heterogeneous_mixes, homogeneous_mixes, Mix};
pub use spec::{PatternMix, Suite, WorkloadSpec};

use clip_types::SimRng;
use clip_types::{Addr, Ip, LINE_SHIFT};

/// One instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Instruction pointer (static identity of the instruction).
    pub ip: Ip,
    /// Operation performed.
    pub kind: InstrKind,
}

/// The operation performed by an [`Instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    /// A load from `addr`. `serialized` marks pointer-chase loads whose
    /// address depends on the previous serialized load (low MLP).
    Load {
        /// Byte address read.
        addr: Addr,
        /// True when this load cannot issue before the previous serialized
        /// load completes (models a dependent pointer chase).
        serialized: bool,
    },
    /// A store to `addr` (write-allocate; never blocks retirement).
    Store {
        /// Byte address written.
        addr: Addr,
    },
    /// A conditional branch with its resolved direction.
    Branch {
        /// Architected outcome.
        taken: bool,
    },
    /// A non-memory operation completing after `latency` cycles.
    Alu {
        /// Execution latency in cycles.
        latency: u8,
    },
}

impl InstrKind {
    /// True for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, InstrKind::Load { .. })
    }

    /// True for conditional branches.
    #[inline]
    pub fn is_branch(self) -> bool {
        matches!(self, InstrKind::Branch { .. })
    }
}

/// Behaviour of one static load IP inside a generator.
#[derive(Debug, Clone)]
enum LoadAgent {
    /// Sequential march through a large region; resets (with a region jump)
    /// when the region is exhausted. Highly prefetch-friendly.
    Stream {
        pos: u64,
        region_end: u64,
        stride: i64,
    },
    /// Constant-stride walk (stride in lines).
    Stride { pos: u64, stride: i64 },
    /// Dependent random jumps within the footprint: prefetch-hostile, low
    /// MLP (serialized), the classic `mcf` behaviour.
    Chase { pos: u64 },
    /// Small hot working set: almost always an L1 hit.
    Hot { base: u64, span: u64, pos: u64 },
    /// Context-dual IP: behaves like `Hot` when the most recent conditional
    /// branch outcome matches `ctx`, and like a strided miss stream
    /// otherwise. This is what makes an IP *dynamic-critical*: criticality
    /// follows control flow, which CLIP's branch-history signature can
    /// learn but IP-only predictors cannot.
    CtxDual {
        hot_base: u64,
        hot_span: u64,
        cold_pos: u64,
        stride: i64,
        ctx: bool,
        pos: u64,
    },
}

/// Behaviour of one static branch IP.
#[derive(Debug, Clone)]
enum BranchAgent {
    /// Taken every `period`-th execution — highly predictable.
    Periodic { period: u32, count: u32 },
    /// Taken with probability `p` — entropy controlled by `p`.
    Biased { p: f64 },
    /// Alternates in runs of `run` — predictable with history.
    Runs { run: u32, count: u32, taken: bool },
}

/// A template slot in the synthetic loop body.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Load(usize),
    Store(usize),
    Branch(usize),
    Alu(u8),
}

/// Streaming instruction generator for one [`WorkloadSpec`].
///
/// Deterministic for a given `(spec, seed)` pair. The generator is an
/// infinite stream: the simulator decides how many instructions to consume
/// (the SPEC RATE replay loop of the paper falls out naturally).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    rng: SimRng,
    body: Vec<Slot>,
    body_pos: usize,
    load_ips: Vec<Ip>,
    load_agents: Vec<LoadAgent>,
    store_agents: Vec<LoadAgent>,
    store_ips: Vec<Ip>,
    branch_ips: Vec<Ip>,
    branch_agents: Vec<BranchAgent>,
    footprint_lines: u64,
    last_branch_outcome: bool,
    instrs_emitted: u64,
    phase_len: u64,
}

impl TraceGenerator {
    pub(crate) fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ clip_types::hash64(spec.name_hash()));
        let fp = spec.footprint_lines.max(1024);

        // Build static load IPs with behaviours drawn from the pattern mix.
        let n_loads = spec.load_ips.max(1);
        let mut load_ips = Vec::with_capacity(n_loads);
        let mut load_agents = Vec::with_capacity(n_loads);
        let ip_base = 0x40_0000u64 + (spec.name_hash() & 0xffff) * 0x1_0000;
        for i in 0..n_loads {
            let ip = Ip::new(ip_base + 16 * i as u64);
            load_ips.push(ip);
            load_agents.push(Self::make_agent(spec, &mut rng, fp, i));
        }

        let n_stores = (n_loads / 3).max(1);
        let mut store_ips = Vec::with_capacity(n_stores);
        let mut store_agents = Vec::with_capacity(n_stores);
        for i in 0..n_stores {
            store_ips.push(Ip::new(ip_base + 0x8000 + 16 * i as u64));
            store_agents.push(Self::make_agent(spec, &mut rng, fp, i));
        }

        let n_branches = spec.branch_ips.max(1);
        let mut branch_ips = Vec::with_capacity(n_branches);
        let mut branch_agents = Vec::with_capacity(n_branches);
        for i in 0..n_branches {
            branch_ips.push(Ip::new(ip_base + 0xc000 + 16 * i as u64));
            let predictable = rng.gen_bool(spec.branch_predictability);
            branch_agents.push(if predictable {
                if rng.gen_bool(0.5) {
                    BranchAgent::Periodic {
                        period: rng.gen_range(2u32..12),
                        count: 0,
                    }
                } else {
                    BranchAgent::Runs {
                        run: rng.gen_range(2u32..8),
                        count: 0,
                        taken: false,
                    }
                }
            } else {
                BranchAgent::Biased {
                    p: rng.gen_range(0.35..0.65),
                }
            });
        }

        // Construct the loop body with exact instruction-mix proportions
        // (randomly interleaved), so realized fractions match the spec
        // even for short bodies.
        let body_len = rng.gen_range(48..160usize);
        let slots_of = |frac: f64| ((body_len as f64 * frac).round() as usize).min(body_len);
        let mut body = Vec::with_capacity(body_len);
        for _ in 0..slots_of(spec.load_frac) {
            body.push(Slot::Load(rng.gen_range(0..n_loads)));
        }
        for _ in 0..slots_of(spec.store_frac) {
            body.push(Slot::Store(rng.gen_range(0..n_stores)));
        }
        for _ in 0..slots_of(spec.branch_frac) {
            body.push(Slot::Branch(rng.gen_range(0..n_branches)));
        }
        while body.len() < body_len {
            body.push(Slot::Alu(rng.gen_range(1u8..=3)));
        }
        // Fisher-Yates shuffle for a realistic interleaving.
        for i in (1..body.len()).rev() {
            let j = rng.gen_range(0..=i);
            body.swap(i, j);
        }

        TraceGenerator {
            rng,
            body,
            body_pos: 0,
            load_ips,
            load_agents,
            store_agents,
            store_ips,
            branch_ips,
            branch_agents,
            footprint_lines: fp,
            last_branch_outcome: false,
            instrs_emitted: 0,
            phase_len: spec.phase_len,
        }
    }

    fn make_agent(spec: &WorkloadSpec, rng: &mut SimRng, fp: u64, i: usize) -> LoadAgent {
        let w = &spec.pattern;
        let total = w.stream + w.stride + w.chase + w.hot + w.ctx_dual;
        let mut x = rng.gen_f64() * total;
        let start = rng.gen_range(0..fp);
        if x < w.stream {
            let region = (fp / 8).max(4096);
            return LoadAgent::Stream {
                pos: start,
                region_end: (start + region).min(fp),
                stride: 1,
            };
        }
        x -= w.stream;
        if x < w.stride {
            let strides = [2i64, 3, 4, 6, 8, 16];
            return LoadAgent::Stride {
                pos: start,
                stride: strides[i % strides.len()],
            };
        }
        x -= w.stride;
        if x < w.chase {
            return LoadAgent::Chase { pos: start };
        }
        x -= w.chase;
        if x < w.hot {
            let span = spec.hot_lines.max(16);
            return LoadAgent::Hot {
                base: start % fp.saturating_sub(span).max(1),
                span,
                pos: 0,
            };
        }
        let span = spec.hot_lines.max(16);
        LoadAgent::CtxDual {
            hot_base: start % fp.saturating_sub(span).max(1),
            hot_span: span,
            cold_pos: rng.gen_range(0..fp),
            stride: 1 + (i as i64 % 4),
            ctx: i.is_multiple_of(2),
            pos: 0,
        }
    }

    /// Produces the next instruction of the infinite stream.
    pub fn next_instr(&mut self) -> Instr {
        self.instrs_emitted += 1;
        // Application phase change: redirect a slice of the agents at each
        // phase boundary so APC shifts measurably.
        if self.phase_len > 0 && self.instrs_emitted.is_multiple_of(self.phase_len) {
            let fp = self.footprint_lines;
            let n = self.load_agents.len();
            for a in self.load_agents.iter_mut().take(n / 2) {
                if let LoadAgent::Stream {
                    pos, region_end, ..
                } = a
                {
                    let jump = self.rng.gen_range(0..fp);
                    *pos = jump;
                    *region_end = (jump + (fp / 8).max(4096)).min(fp);
                }
            }
        }

        let slot = self.body[self.body_pos];
        self.body_pos = (self.body_pos + 1) % self.body.len();
        match slot {
            Slot::Alu(lat) => Instr {
                ip: Ip::new(0x10_0000 + self.body_pos as u64 * 4),
                kind: InstrKind::Alu { latency: lat },
            },
            Slot::Branch(b) => {
                let taken = Self::branch_outcome(&mut self.branch_agents[b], &mut self.rng);
                self.last_branch_outcome = taken;
                Instr {
                    ip: self.branch_ips[b],
                    kind: InstrKind::Branch { taken },
                }
            }
            Slot::Load(l) => {
                let ctx = self.last_branch_outcome;
                let fp = self.footprint_lines;
                let (line, serialized) =
                    Self::agent_next(&mut self.load_agents[l], ctx, fp, &mut self.rng);
                Instr {
                    ip: self.load_ips[l],
                    kind: InstrKind::Load {
                        addr: Addr::new(line << LINE_SHIFT),
                        serialized,
                    },
                }
            }
            Slot::Store(s) => {
                let ctx = self.last_branch_outcome;
                let fp = self.footprint_lines;
                let (line, _) = Self::agent_next(&mut self.store_agents[s], ctx, fp, &mut self.rng);
                Instr {
                    ip: self.store_ips[s],
                    kind: InstrKind::Store {
                        addr: Addr::new(line << LINE_SHIFT),
                    },
                }
            }
        }
    }

    fn branch_outcome(agent: &mut BranchAgent, rng: &mut SimRng) -> bool {
        match agent {
            BranchAgent::Periodic { period, count } => {
                *count += 1;
                if *count >= *period {
                    *count = 0;
                    true
                } else {
                    false
                }
            }
            BranchAgent::Biased { p } => rng.gen_bool(*p),
            BranchAgent::Runs { run, count, taken } => {
                *count += 1;
                if *count >= *run {
                    *count = 0;
                    *taken = !*taken;
                }
                *taken
            }
        }
    }

    /// Advances an agent and returns `(line, serialized)`.
    fn agent_next(agent: &mut LoadAgent, ctx: bool, fp: u64, rng: &mut SimRng) -> (u64, bool) {
        match agent {
            LoadAgent::Stream {
                pos,
                region_end,
                stride,
            } => {
                let line = *pos;
                *pos = pos.wrapping_add_signed(*stride);
                if *pos >= *region_end {
                    let jump = rng.gen_range(0..fp);
                    *pos = jump;
                    *region_end = (jump + (fp / 8).max(4096)).min(fp);
                }
                (line % fp, false)
            }
            LoadAgent::Stride { pos, stride } => {
                let line = *pos % fp;
                *pos = pos.wrapping_add_signed(*stride) % fp;
                (line, false)
            }
            LoadAgent::Chase { pos } => {
                let line = *pos;
                // Pseudo-pointer: next address is a hash of the current one,
                // so the chain is deterministic yet unpredictable.
                *pos = clip_types::hash64(*pos ^ 0xC0FFEE) % fp;
                (line, true)
            }
            LoadAgent::Hot { base, span, pos } => {
                let line = *base + (*pos % *span);
                *pos = pos.wrapping_add(clip_types::hash64(*pos) % 5 + 1);
                (line % fp, false)
            }
            LoadAgent::CtxDual {
                hot_base,
                hot_span,
                cold_pos,
                stride,
                ctx: my_ctx,
                pos,
            } => {
                if ctx == *my_ctx {
                    let line = *hot_base + (*pos % *hot_span);
                    *pos = pos.wrapping_add(1);
                    (line % fp, false)
                } else {
                    let line = *cold_pos % fp;
                    *cold_pos = cold_pos.wrapping_add_signed(*stride) % fp;
                    (line, false)
                }
            }
        }
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.instrs_emitted
    }

    /// Records the next `n` instructions into a vector (for tests and
    /// offline analysis).
    pub fn record(&mut self, n: usize) -> Vec<Instr> {
        (0..n).map(|_| self.next_instr()).collect()
    }
}

impl Iterator for TraceGenerator {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        Some(self.next_instr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn gen_for(name: &str) -> TraceGenerator {
        catalog::all()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("workload {name} in catalog"))
            .generator(42)
    }

    #[test]
    fn generator_is_deterministic() {
        let spec = &catalog::spec_cpu2017()[0];
        let a = spec.generator(9).record(5000);
        let b = spec.generator(9).record(5000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = &catalog::spec_cpu2017()[0];
        let a = spec.generator(1).record(5000);
        let b = spec.generator(2).record(5000);
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_mix_roughly_matches_spec() {
        let spec = &catalog::spec_cpu2017()[10];
        let v = spec.generator(3).record(50_000);
        let loads = v.iter().filter(|i| i.kind.is_load()).count() as f64;
        let frac = loads / v.len() as f64;
        assert!(
            (frac - spec.load_frac).abs() < 0.08,
            "load fraction {frac} vs spec {}",
            spec.load_frac
        );
    }

    #[test]
    fn mcf_has_serialized_chase_loads() {
        let mut g = gen_for("605.mcf_s-1554B");
        let v = g.record(100_000);
        let ser = v
            .iter()
            .filter(|i| {
                matches!(
                    i.kind,
                    InstrKind::Load {
                        serialized: true,
                        ..
                    }
                )
            })
            .count();
        assert!(ser > 100, "mcf must contain pointer-chase loads, got {ser}");
    }

    #[test]
    fn lbm_is_stream_dominated() {
        let mut g = gen_for("619.lbm_s-4268B");
        let v = g.record(100_000);
        // Count distinct lines touched by loads; a streaming workload walks
        // a wide footprint with few repeats.
        let mut lines: Vec<u64> = v
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { addr, .. } => Some(addr.line().raw()),
                _ => None,
            })
            .collect();
        let n_loads = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert!(
            lines.len() * 3 > n_loads,
            "stream workload should rarely revisit lines: {} uniq of {}",
            lines.len(),
            n_loads
        );
    }

    #[test]
    fn addresses_stay_within_footprint() {
        for spec in catalog::spec_cpu2017().iter().take(8) {
            let v = spec.generator(5).record(20_000);
            for i in &v {
                if let InstrKind::Load { addr, .. } | InstrKind::Store { addr } = i.kind {
                    assert!(
                        addr.line().raw() <= spec.footprint_lines,
                        "{}: address outside footprint",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn load_ips_are_recurring() {
        let spec = &catalog::spec_cpu2017()[0];
        let v = spec.generator(11).record(50_000);
        let mut ips: Vec<u64> = v
            .iter()
            .filter(|i| i.kind.is_load())
            .map(|i| i.ip.raw())
            .collect();
        let n = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert!(ips.len() <= spec.load_ips);
        assert!(n > ips.len() * 10, "IPs must recur many times");
    }

    #[test]
    fn branches_emit_both_outcomes() {
        let spec = &catalog::spec_cpu2017()[1];
        let v = spec.generator(13).record(50_000);
        let taken = v
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Branch { taken: true }))
            .count();
        let not_taken = v
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Branch { taken: false }))
            .count();
        assert!(taken > 0 && not_taken > 0);
    }

    #[test]
    fn iterator_impl_streams() {
        let spec = &catalog::spec_cpu2017()[2];
        let g = spec.generator(1);
        assert_eq!(g.take(100).count(), 100);
    }
}
