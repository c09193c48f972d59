//! `clip-trace-info` — inspect the synthetic workload catalog: generate a
//! window of any workload and print its measured statistics next to the
//! published characteristics the model targets.
//!
//! ```text
//! clip-trace-info 605.mcf_s-1554B
//! clip-trace-info --all                          # whole-catalog summary
//! ```

use clip::trace::{catalog, TraceStats};
use std::process::ExitCode;

const WINDOW: usize = 40_000;
/// L1D lines for the MPKI estimate (Table 3's 48 KB / 64 B).
const L1_LINES: usize = 768;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            eprintln!("usage: clip-trace-info <workload-name> | --all");
            ExitCode::FAILURE
        }
        Some("--all") => {
            println!(
                "{:<28} {:>6} {:>7} {:>8} {:>8} {:>7}",
                "workload", "MPKI", "loads%", "IPs", "MiB", "chase%"
            );
            for w in catalog::all() {
                let stats = TraceStats::analyse(&w.generator(1).record(WINDOW), L1_LINES);
                println!(
                    "{:<28} {:>6.1} {:>6.1}% {:>8} {:>8.1} {:>6.1}%",
                    w.name,
                    stats.est_mpki,
                    stats.load_frac * 100.0,
                    stats.load_ips,
                    stats.footprint_bytes() as f64 / (1024.0 * 1024.0),
                    stats.serialized_frac * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        Some(name) => match catalog::by_name(name) {
            Some(w) => {
                println!("workload     : {} [{}]", w.name, w.suite.name());
                println!(
                    "model        : footprint {} lines, {} load IPs, {} branch IPs, predictability {:.2}",
                    w.footprint_lines, w.load_ips, w.branch_ips, w.branch_predictability
                );
                let stats = TraceStats::analyse(&w.generator(1).record(WINDOW), L1_LINES);
                println!("--- measured over {WINDOW} instructions ---");
                println!("{stats}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown workload: {name} (try --all)");
                ExitCode::FAILURE
            }
        },
    }
}
