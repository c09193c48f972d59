//! Golden-shape test for `SimResult::to_json`: the emitted document must
//! parse, and every key must match the Rust struct field names exactly —
//! this is the contract external consumers (`scripts/make_experiments.py`
//! readers) rely on, and what a derive-based serializer would produce.

use clip_sim::{run_mix, RunOptions, Scheme};
use clip_stats::Json;
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};

fn small_result() -> clip_sim::SimResult {
    let cfg = SimConfig::builder()
        .cores(2)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    let mix = Mix::homogeneous(
        &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
        2,
    );
    let opts = RunOptions {
        warmup_instrs: 300,
        sim_instrs: 1_500,
        seed: 3,
        ..RunOptions::default()
    };
    run_mix(&cfg, &Scheme::with_clip(), &mix, &opts)
}

#[test]
fn json_shape_matches_struct_fields() {
    let r = small_result();
    let doc = Json::parse(&r.to_json().render()).expect("emitted JSON must parse");

    // Top level: the SimResult fields, in declaration order.
    assert_eq!(
        doc.keys(),
        vec![
            "label",
            "per_core_ipc",
            "cycles",
            "latency",
            "prefetch",
            "misses",
            "dram_transfers",
            "dram_row_hits",
            "dram_bw_util",
            "dram_max_channel_util",
            "noc_flit_hops",
            "clip",
            "baseline_evals",
            "energy",
        ]
    );

    // Nested reports mirror their structs too.
    let latency = doc.get("latency").expect("latency present");
    assert_eq!(
        latency.keys(),
        vec!["l1_miss", "by_l2", "by_llc", "by_dram"]
    );
    let l1 = latency.get("l1_miss").expect("l1_miss present");
    assert_eq!(l1.keys(), vec!["count", "total"]);

    let prefetch = doc.get("prefetch").expect("prefetch present");
    assert_eq!(
        prefetch.keys(),
        vec!["candidates", "issued", "useful", "useless", "late"]
    );

    let misses = doc.get("misses").expect("misses present");
    assert_eq!(
        misses.keys(),
        vec![
            "l1_accesses",
            "l1_misses",
            "l2_accesses",
            "l2_misses",
            "llc_accesses",
            "llc_misses",
        ]
    );

    let clip = doc.get("clip").expect("clip present");
    assert_eq!(
        clip.keys(),
        vec!["stats", "eval", "ip_eval", "critical_ips", "dynamic_ips"]
    );
    assert_eq!(
        clip.get("stats").expect("stats present").keys(),
        vec![
            "candidates",
            "allowed_critical",
            "allowed_explore",
            "dropped_not_critical",
            "dropped_predicted",
            "dropped_low_accuracy",
            "dropped_phase",
            "phase_changes",
            "windows",
        ]
    );
    assert_eq!(
        clip.get("eval").expect("eval present").keys(),
        vec![
            "true_positive",
            "false_positive",
            "false_negative",
            "true_negative",
        ]
    );

    let energy = doc.get("energy").expect("energy present");
    assert_eq!(
        energy.keys(),
        vec![
            "l1_reads",
            "l1_writes",
            "l2_reads",
            "l2_writes",
            "llc_reads",
            "llc_writes",
            "dram_row_hits",
            "dram_row_misses",
            "noc_flit_hops",
            "clip_lookups",
        ]
    );
}

#[test]
fn json_values_survive_roundtrip() {
    let r = small_result();
    let doc = Json::parse(&r.to_json().render()).expect("parses");

    assert_eq!(
        doc.get("cycles").and_then(|v| v.as_u64()),
        Some(r.cycles),
        "u64 counters must be exact"
    );
    assert_eq!(
        doc.get("dram_transfers").and_then(|v| v.as_u64()),
        Some(r.dram_transfers)
    );
    let ipc = doc
        .get("per_core_ipc")
        .and_then(|v| v.as_array())
        .expect("ipc array");
    assert_eq!(ipc.len(), r.per_core_ipc.len());
    for (j, &x) in ipc.iter().zip(&r.per_core_ipc) {
        assert_eq!(j.as_f64(), Some(x), "floats must round-trip exactly");
    }
    // CLIP was enabled, so the report is an object, not null.
    assert!(doc.get("clip").expect("clip key").get("stats").is_some());
}

#[test]
fn clip_is_null_without_clip() {
    let cfg = SimConfig::builder()
        .cores(2)
        .dram_channels(1)
        .build()
        .expect("valid config");
    let mix = Mix::homogeneous(
        &clip_trace::catalog::by_name("605.mcf_s-1554B").expect("known workload"),
        2,
    );
    let opts = RunOptions {
        warmup_instrs: 100,
        sim_instrs: 500,
        ..RunOptions::default()
    };
    let r = run_mix(&cfg, &Scheme::plain(), &mix, &opts);
    let doc = Json::parse(&r.to_json().render()).expect("parses");
    assert_eq!(doc.get("clip"), Some(&Json::Null));
    assert_eq!(
        doc.get("baseline_evals").and_then(|v| v.as_array()),
        Some(&[][..])
    );
}
