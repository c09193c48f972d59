//! Every committed golden artifact, regenerated at CI smoke scale and
//! compared byte for byte: `fig02`, both `backends` fabrics and
//! `composite`. The disk result cache is off, so every cell simulates.
//! One test only, because it sets `CLIP_CACHE` for the whole process.

use clip::bench::experiment::execute_experiment;
use clip::bench::figures::registry;
use clip::bench::Scale;
use clip::sim::NocChoice;
use clip::types::DramKind;
use std::path::Path;

#[test]
fn figures_match_the_committed_goldens() {
    std::env::set_var("CLIP_CACHE", "0");
    let scale = Scale {
        cores: 4,
        instrs: 300,
        warmup: 100,
        homo_mixes: 2,
        hetero_mixes: 2,
        noc: NocChoice::Analytic,
        dram: DramKind::Ddr4,
    };
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/tests/golden");
    let mut checked = Vec::new();
    for entry in registry() {
        if !["fig02", "backends", "composite"].contains(&entry.name) {
            continue;
        }
        for exp in (entry.build)(&scale) {
            let path = golden_dir.join(format!("{}.json", exp.name));
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                execute_experiment(&exp).1.render() == golden,
                "{} differs from {}; `all_figures {}` at this scale writes the artifact to diff",
                exp.name,
                path.display(),
                entry.name
            );
            checked.push(exp.name);
        }
    }
    assert_eq!(
        checked,
        ["fig02", "backends_mesh", "backends_chiplet", "composite"]
    );
}
