//! `clipsim` — command-line driver for the CLIP many-core simulator.
//!
//! ```text
//! clipsim --workload 605.mcf_s-1554B --cores 8 --channels 1 \
//!         --prefetcher berti --clip --instrs 10000
//! clipsim --hetero-seed 7 --cores 16 --channels 2 --prefetcher spp-ppf
//! clipsim --list-workloads
//! ```
//!
//! Runs the requested mix under the requested scheme *and* the
//! no-prefetch baseline, then prints a comparison report.

use clip::sim::{run_mix_checked, ComparisonReport, NocChoice, RunOptions, Scheme};
use clip::throttle::ThrottlerKind;
use clip::trace::Mix;
use clip::types::{DramKind, PrefetcherKind, SimConfig};
use std::process::ExitCode;
use std::str::FromStr;

/// One simulation cell as the command line describes it. Every field
/// has the CLI's default.
struct RunSpec {
    /// Homogeneous mix of this catalog trace (`hetero_seed` wins).
    workload: Option<String>,
    /// Random heterogeneous mix from this seed instead of a workload.
    hetero_seed: Option<u64>,
    cores: usize,
    channels: usize,
    prefetcher: PrefetcherKind,
    clip: bool,
    dynclip: bool,
    throttler: Option<ThrottlerKind>,
    hermes: bool,
    dspatch: bool,
    instrs: u64,
    warmup: u64,
    seed: u64,
    noc: NocChoice,
    dram: DramKind,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: None,
            hetero_seed: None,
            cores: 8,
            channels: 1,
            prefetcher: PrefetcherKind::Berti,
            clip: false,
            dynclip: false,
            throttler: None,
            hermes: false,
            dspatch: false,
            instrs: 10_000,
            warmup: 2_000,
            seed: 42,
            noc: NocChoice::Mesh,
            dram: DramKind::Ddr4,
        }
    }
}

impl RunSpec {
    /// The mix this spec runs over.
    fn mix(&self) -> Result<Mix, String> {
        if let Some(seed) = self.hetero_seed {
            return clip::trace::heterogeneous_mixes(1, self.cores, seed)
                .pop()
                .ok_or_else(|| "no heterogeneous mix generated".to_string());
        }
        let name = self.workload.as_deref().unwrap_or("605.mcf_s-1554B");
        match clip::trace::catalog::by_name(name) {
            Some(w) => Ok(Mix::homogeneous(&w, self.cores)),
            None => Err(format!("unknown workload {name} (try --list-workloads)")),
        }
    }

    /// The platform configs: `(baseline, scheme)` — identical apart from
    /// the prefetcher placement (L1-trained kinds in the L1 slot).
    fn configs(&self) -> Result<(SimConfig, SimConfig), String> {
        let build = |pf: PrefetcherKind| {
            let (l1, l2) = clip::bench::place(pf);
            SimConfig::builder()
                .cores(self.cores)
                .dram_backend(self.dram)
                .dram_channels(self.channels)
                .l1_prefetcher(l1)
                .l2_prefetcher(l2)
                .build()
                .map_err(|e| format!("{e}"))
        };
        Ok((build(PrefetcherKind::None)?, build(self.prefetcher)?))
    }

    /// The attachment scheme (CLIP / DynCLIP / throttler / Hermes /
    /// DSPatch toggles applied to the plain scheme).
    fn scheme(&self) -> Scheme {
        let mut scheme = if self.dynclip {
            Scheme::with_dynamic_clip()
        } else if self.clip {
            Scheme::with_clip()
        } else {
            Scheme::plain()
        };
        scheme.throttler = self.throttler;
        scheme.hermes = self.hermes;
        scheme.dspatch = self.dspatch;
        scheme
    }

    /// The run options.
    fn options(&self) -> RunOptions {
        RunOptions {
            warmup_instrs: self.warmup,
            sim_instrs: self.instrs,
            seed: self.seed,
            noc: self.noc,
            ..RunOptions::default()
        }
    }
}

fn prefetcher_from(name: &str) -> Result<PrefetcherKind, String> {
    Ok(match name {
        "none" => PrefetcherKind::None,
        "berti" => PrefetcherKind::Berti,
        "ipcp" => PrefetcherKind::Ipcp,
        "bingo" => PrefetcherKind::Bingo,
        "spp-ppf" | "spp" => PrefetcherKind::SppPpf,
        "ip-stride" => PrefetcherKind::IpStride,
        "stream" => PrefetcherKind::Stream,
        "next-line" => PrefetcherKind::NextLine,
        "composite" => PrefetcherKind::Composite,
        other => return Err(format!("unknown prefetcher: {other}")),
    })
}

fn throttler_from(name: &str) -> Result<ThrottlerKind, String> {
    Ok(match name {
        "fdp" => ThrottlerKind::Fdp,
        "hpac" => ThrottlerKind::Hpac,
        "spac" => ThrottlerKind::Spac,
        "nst" => ThrottlerKind::Nst,
        other => return Err(format!("unknown throttler: {other}")),
    })
}

fn noc_from(name: &str) -> Result<NocChoice, String> {
    Ok(match name {
        "mesh" => NocChoice::Mesh,
        "analytic" => NocChoice::Analytic,
        "chiplet" => NocChoice::Chiplet,
        other => return Err(format!("unknown noc model: {other}")),
    })
}

fn dram_from(name: &str) -> Result<DramKind, String> {
    Ok(match name {
        "ddr4" => DramKind::Ddr4,
        "hbm" => DramKind::Hbm,
        other => return Err(format!("unknown dram backend: {other}")),
    })
}

/// Parses a numeric flag's value, naming the flag and the value on
/// failure (`--cores: invalid value "many"`).
fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value \"{value}\""))
}

#[derive(Default)]
struct Args {
    spec: RunSpec,
    list: bool,
}

const USAGE: &str = "\
clipsim — CLIP many-core simulator

USAGE:
  clipsim [OPTIONS]

OPTIONS:
  --workload <NAME>      homogeneous mix of the named trace (see --list-workloads)
  --hetero-seed <N>      random heterogeneous mix instead of a named workload
  --cores <N>            cores in the system              [default: 8]
  --channels <N>         DRAM channels (power of 2)       [default: 1]
  --prefetcher <KIND>    none|berti|ipcp|bingo|spp-ppf|ip-stride|stream|next-line|composite
                                                          [default: berti]
  --clip                 attach CLIP to the prefetcher
  --dynclip              attach Dynamic CLIP (bandwidth-governed)
  --throttler <KIND>     fdp|hpac|spac|nst
  --hermes               attach Hermes off-chip prediction
  --dspatch              attach DSPatch modulation
  --instrs <N>           measured instructions per core   [default: 10000]
  --warmup <N>           warmup instructions per core     [default: 2000]
  --seed <N>             workload seed                    [default: 42]
  --noc <MODEL>          mesh|analytic|chiplet            [default: mesh]
  --dram <BACKEND>       ddr4|hbm                         [default: ddr4]
  --list-workloads       print the workload catalog and exit
  --help                 this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let spec = &mut args.spec;
        match flag.as_str() {
            "--workload" => spec.workload = Some(value()?),
            "--hetero-seed" => spec.hetero_seed = Some(number(&flag, value()?)?),
            "--cores" => spec.cores = number(&flag, value()?)?,
            "--channels" => spec.channels = number(&flag, value()?)?,
            "--prefetcher" => spec.prefetcher = prefetcher_from(&value()?)?,
            "--clip" => spec.clip = true,
            "--dynclip" => spec.dynclip = true,
            "--throttler" => spec.throttler = Some(throttler_from(&value()?)?),
            "--hermes" => spec.hermes = true,
            "--dspatch" => spec.dspatch = true,
            "--instrs" => spec.instrs = number(&flag, value()?)?,
            "--warmup" => spec.warmup = number(&flag, value()?)?,
            "--seed" => spec.seed = number(&flag, value()?)?,
            "--noc" => spec.noc = noc_from(&value()?)?,
            "--dram" => spec.dram = dram_from(&value()?)?,
            "--list-workloads" => args.list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn simulate(spec: &RunSpec) -> ExitCode {
    let mix = match spec.mix() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (cfg_base, cfg) = match spec.configs() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = spec.options();
    let scheme = spec.scheme();

    eprintln!(
        "running {} on {} cores / {} channel(s), {} + baseline ...",
        mix.name,
        spec.cores,
        spec.channels,
        scheme.label(spec.prefetcher)
    );
    let run = |cfg, scheme: &Scheme| match run_mix_checked(cfg, scheme, &mix, &opts) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    };
    let Some(base) = run(&cfg_base, &Scheme::plain()) else {
        return ExitCode::FAILURE;
    };
    let Some(res) = run(&cfg, &scheme) else {
        return ExitCode::FAILURE;
    };

    println!("mix                 : {} x {}", spec.cores, mix.name);
    println!(
        "{}",
        ComparisonReport::new(scheme.label(spec.prefetcher), &res, &base)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for w in clip::trace::catalog::all() {
            println!(
                "{:<28} {:>10} lines  [{}]",
                w.name,
                w.footprint_lines,
                w.suite.name()
            );
        }
        return ExitCode::SUCCESS;
    }

    simulate(&args.spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every word the usage text lists for `flag` parses.
    fn usage_words_parse<T>(flag: &str, parse: fn(&str) -> Result<T, String>) {
        let line = USAGE
            .lines()
            .find(|l| l.trim_start().starts_with(flag))
            .unwrap_or_else(|| panic!("{flag} is documented"));
        let words: Vec<&str> = line
            .split_whitespace()
            .nth(2)
            .unwrap_or_else(|| panic!("{flag} lists its words"))
            .split('|')
            .collect();
        assert!(words.len() >= 2, "{flag}: {words:?}");
        for w in words {
            assert!(parse(w).is_ok(), "{flag} documents {w:?} but rejects it");
        }
    }

    #[test]
    fn every_usage_word_parses() {
        usage_words_parse("--prefetcher", prefetcher_from);
        usage_words_parse("--throttler", throttler_from);
        usage_words_parse("--noc", noc_from);
        usage_words_parse("--dram", dram_from);
    }
}
