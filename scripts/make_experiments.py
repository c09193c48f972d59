#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md from the JSON artifacts under target/experiments.

Usage:
    cargo run --release -p clip-bench --bin all_figures > /dev/null
    cargo run --release -p clip-bench --bin all_figures -- summary > /dev/null   # optional
    python3 scripts/make_experiments.py [--strict] [artifact_dir] > EXPERIMENTS.md

Failed cells survive rendering: the executor writes `ERR` cells into
`rows` and a structured `errors` array into the artifact (absent on
clean runs). Those records are rendered as a per-experiment
**Failures** footnote block. With `--strict`, any failure anywhere in
the sweep makes this script exit nonzero after writing the document —
CI can regenerate EXPERIMENTS.md and still fail the build.

`all_figures` writes one JSON artifact per experiment plus `index.json`
(the bin -> artifacts map) under `target/experiments/` (override with
`CLIP_ARTIFACT_DIR`). This script renders each artifact back into the
table text the binaries print and pairs it with the paper's reported
numbers so paper-vs-measured is visible side by side.

Each artifact is an object:
    name        experiment name (artifact file stem)
    title       table title line
    params      {warmup_instrs, sim_instrs, seed, noc, normalization}
    columns     header cells ([] = no header line)
    rows        table rows, each a list of already-formatted cell strings
    notes       free-form trailing lines
"""

import json
import os
import sys

# What the paper reports for each artifact (shape targets, not absolute
# numbers — see DESIGN.md §3 item 4 on scale).
PAPER_NOTES = {
    "table3": "Table 3 parameters, reproduced verbatim by the configuration defaults.",
    "table2": "Paper: 1.56 KB/core (336 B filter + 640 B predictor + 64 B ROB "
              "extension + 512 B utility buffer + histories/APC).",
    "fig01": "Paper (64 cores, homogeneous): every prefetcher loses at 4-8 channels "
             "(Berti 0.76/0.84), recovers by 16-32, and wins big at 64 (Berti ~1.35). "
             "Expected shape here: WS < 1 at the 4-8-channel equivalents, rising "
             "monotonically, > 1 at the 64-channel equivalent.",
    "fig02": "Paper (heterogeneous): same crossover, shallower (slowdowns ~0.85-0.95 "
             "at 4-8 channels; gains up to ~1.2 at 64).",
    "fig03": "Paper: average L2/L3 demand miss latencies inflate by >1.9x at 4-8 "
             "channels with Berti, approaching 1.0 at 64. Expected shape: the "
             "DRAM-serviced ratio well above 1 at small channel counts, "
             "decreasing with bandwidth. Known deviation: this model's L2/LLC "
             "hit paths have fixed latencies (no port contention), so their "
             "columns stay at 1.0 (or '-' when a level serviced no sampled "
             "demand); the queueing inflation the paper measures on-chip shows "
             "up here in the DRAM-serviced and all-miss columns.",
    "fig04": "Paper: best baseline accuracy ~41%; CATCH/FVP reach ~100% coverage "
             "with poor accuracy. Expected shape: over-taggers (FVP/CATCH/FP) have "
             "coverage >> accuracy; CRISP/ROBO/CBP trade coverage for accuracy.",
    "fig05": "Paper: no baseline criticality gate rescues Berti at 4-16 channels "
             "(all within a few percent of plain Berti, some worse).",
    "fig06": "Paper: throttlers improve Berti marginally at best; large slowdowns "
             "remain at 4-8 channels.",
    "fig09": "Paper (8 channels): CLIP lifts every prefetcher; Berti +24% "
             "(homogeneous) / +9% (heterogeneous). Expected shape: +CLIP column "
             "above plain for each prefetcher, biggest deltas for Berti/IPCP.",
    "fig10": "Paper: Berti slows >26 of 45 mixes; with CLIP only 3 mixes stay "
             "below 1.0 and the mean moves from 0.84 to 1.08.",
    "fig11": "Paper: mean L1 miss latency drops from 168 to 132 cycles with CLIP "
             "(max >900-cycle improvements on lbm mixes).",
    "fig12": "Paper: CLIP costs ~7% L1 miss coverage and 2-3% at L2/LLC.",
    "fig13": "Paper: CLIP critical-IP prediction accuracy 93% average (up to "
             "100%); best prior predictor 41%.",
    "fig14": "Paper: CLIP coverage averages 76%.",
    "fig15": "Paper: tens of critical IPs per mix; ~50% dynamic-critical.",
    "fig16": "Paper: ~50% average prefetch-traffic reduction (up to 90% for "
             "cactuBSSN); Berti accuracy 82.9% -> 94.2%. Known deviation in "
             "this model: the traffic cut is stronger (~0.2x) and measured "
             "accuracy does not rise, because the synthetic Berti is already "
             ">93% accurate, leaving little inaccuracy for CLIP to filter.",
    "fig17": "Paper: CloudSuite/CVP gain <10% from prefetching even at 64 "
             "channels; CLIP's deltas are correspondingly small.",
    "fig18": "Paper: 2x/4x tables gain little; 0.5x/0.25x lose >7%. Known "
             "deviation at small scale: with only a few critical IPs per core "
             "in a short window, even the 0.25x tables do not overflow, so "
             "the sweep is nearly flat; the paper's drop needs the full IP "
             "populations of 200M-instruction simpoints.",
    "fig19": "Paper: CLIP's gains concentrate at 4-8 channels and fade at 16.",
    "fig20": "Paper: same trend on heterogeneous mixes, shallower.",
    "fig21": "Paper: CLIP > Hermes > DSPatch at 4-8 channels; Hermes wins at 16. "
             "DSPatch hurts under constrained bandwidth (coverage mode).",
    "energy": "Paper: CLIP improves memory-hierarchy dynamic energy by 18.21% "
              "over Berti (homogeneous; <7% heterogeneous), including CLIP's own "
              "structures. Known deviation in this model: the saving does not "
              "materialise because the synthetic Berti wastes only ~7% of its "
              "traffic (vs 17% in the paper), and dropped prefetches re-issue "
              "as demand misses for the same lines — there is little wasted "
              "DRAM energy for CLIP to reclaim at this accuracy level. Static "
              "(leakage) energy is not modelled, so the static-energy saving "
              "the paper credits to the runtime improvement is not measured "
              "here.",
    "sens_cores": "Paper: CLIP stays effective across 8-128 cores whenever there "
                  "is less than one channel per 2-4 cores.",
    "sens_llc": "Paper: Berti's slowdown worsens to 29% at 512 KB/core and eases "
                "to 9% at 4 MB/core; CLIP keeps prefetching profitable at every "
                "capacity. Known deviation at small scale: short measurement "
                "windows are cold-miss dominated, so LLC capacity barely moves "
                "the result; the capacity lever itself is exercised by the "
                "`llc_capacity_reduces_dram_traffic` integration test with a "
                "tailored working set.",
    "ablation": "Paper attribution: 77.5% of CLIP's benefit from criticality "
                "filtering+prediction, the rest from accuracy filtering; the "
                "criticality-conscious NoC/DRAM flag is worth 2.8 points of 24.",
    "dynclip": "Paper §5.3 (future work, implemented here): DynCLIP should match "
               "CLIP under constrained bandwidth and recover the plain "
               "prefetcher's upside when bandwidth is ample.",
    "backends": "Extension (no paper counterpart): the paper's thesis — "
                "criticality filtering wins exactly where bandwidth is the "
                "constraint — replayed across pluggable fabric and memory "
                "backends ({mesh, chiplet} NoC x {DDR4, HBM} DRAM; see "
                "DESIGN.md §5d). Expected shape: CLIP's edge over plain Berti "
                "and over FDP throttling is largest on the chiplet fabric, "
                "whose narrow die-to-die crossing throttles effective "
                "bandwidth, and smallest where HBM's wider channel structure "
                "relieves queueing. The DDR4 and HBM presets expose equal "
                "aggregate peak bandwidth, so rows compare channel structure, "
                "not peak.",
    "composite": "Extension (no paper counterpart; DESIGN.md §3d): a composite "
                 "ensemble (Berti + SPP-PPF + next-line under one shared degree "
                 "budget) against the best single engine, with and without "
                 "CLIP. Under CLIP the utility buffer tracks accuracy per "
                 "engine and the filter demotes whichever member goes "
                 "inaccurate, so the +CLIP columns measure arbitration "
                 "*between* prefetch sources rather than gating of one "
                 "stream. The trailing `engines@...` notes carry the "
                 "Composite+CLIP cell's per-engine issued/hits/min_level "
                 "counters summed over mixes.",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation, regenerated by
`cargo run --release -p clip-bench --bin all_figures` (`all_figures <id>`
regenerates one; see DESIGN.md §4 for the experiment index). Each experiment
also writes a JSON artifact under `target/experiments/`; this file is
assembled from those artifacts by `scripts/make_experiments.py`.

**Scale.** The paper simulates 64 cores x 200M instructions on proprietary
simpoint traces; this run uses the scaled configuration printed in each
section header (channels are translated to keep the paper's
channels-per-core ratio — e.g. "8 paper channels" = 2 channels for 16
cores). Absolute numbers therefore differ; the reproduction target is the
*shape*: who wins, by roughly what factor, and where the crossovers fall
(see DESIGN.md §3). This file was generated with
`CLIP_CORES=8 CLIP_MIXES=5 CLIP_INSTRS=6000 CLIP_WARMUP=2000 CLIP_CACHE=0`:
`all_figures`, then `all_figures summary` for the headline summary, and
`all_figures composite` with `CLIP_MIXES` unset (18 mixes).

**Workloads.** Synthetic models of the paper's SPEC CPU2017 / GAP /
CloudSuite / CVP traces (DESIGN.md §3 item 1).

**Artifact schema.** Each experiment writes
`target/experiments/<name>.json` (`CLIP_ARTIFACT_DIR` overrides the
directory): an object with `name` (experiment id, = file stem), `title`
(the table's `#` header line), `params` (`warmup_instrs`, `sim_instrs`,
`seed` as integers; `noc` and `normalization` as strings), `columns`
(header cells; empty for tables without a header row), `rows` (the
rendered table — a list of rows, each a list of already-formatted cell
strings, tab-joined in the text output), and `notes` (free-form
trailing lines). `all_figures` also writes `index.json`: the sweep
order as a list of `{"bin", "artifacts"}` objects, where multi-set
figures (e.g. fig05) list one artifact per set. Values are normalized
weighted speedups unless the title says otherwise; every run is
deterministic, so artifacts diff cleanly (CI pins fig02 at smoke scale
against `crates/bench/tests/golden/fig02.json`, the `backends`
figure's two artifacts against `backends_mesh.json` /
`backends_chiplet.json`, and the `composite` figure against
`composite.json`).

**Backend knobs.** `CLIP_NOC` selects the fabric model (`mesh`,
`analytic` — the sweep default — or `chiplet`) and `CLIP_DRAM` the
memory backend (`ddr4`, default, or `hbm`); see DESIGN.md §5d. The
`backends` figure ignores both and sweeps its own fabric x memory
grid.

**Failed cells.** A cell whose simulation panics or trips an integrity
audit (see DESIGN.md §6) renders as `ERR` in the text table instead of
aborting the sweep, and the artifact gains a top-level `errors` array —
one object per failed run with `row`/`cell`/`mix` grid indices (the
row's baseline run is flagged `"baseline": true`), plus the `cycle`,
`component`, `kind` (`deadlock`, `conservation violation`, `illegal
state`, `state divergence`, `panic`, `internal error`), and `detail`
of the underlying error. The `errors` key, and everything it brings
with it, is present **only** when something failed, so clean artifacts
are byte-identical to earlier versions.

**Diverged cells.** Under `CLIP_FP_BASELINE=verify` (DESIGN.md §6), a
cell whose every failure is a `state divergence` against its recorded
fingerprint baseline renders as `DIV` instead of `ERR`: the simulation
completed, but its per-window state-hash stream moved away from the
known-good recording — the `detail` of each error names the first
divergent audit window and component. Any non-divergence failure in
the same cell takes precedence and renders `ERR`. With
`CLIP_FP_BASELINE` unset, `DIV` can never appear and artifacts are
byte-identical to earlier versions.

**Result cache.** Every successful run is cached on disk under
`target/clip-cache/` (DESIGN.md §5c) and repeat cells — any scheme,
within or across processes — are served from it without re-simulating.
`CLIP_CACHE=0` disables it and `CLIP_CACHE_DIR` relocates it. Its
size is capped at 256 MiB, oldest entries evicted first. Cached
results are byte-identical to fresh ones, so nothing in this document
depends on cache state.
Each cell is stored as soon as it finishes, so re-running an
interrupted sweep simulates only the missing cells and produces an
artifact byte-identical to an uninterrupted run (CI's `resume-smoke`
job pins this against the fig02 golden), as long as one sweep's
entries fit under the size cap.

**One process per run.** Every figure, table and `clipsim` cell runs
in the local process that asked for it; there is no service mode.
Processes that share a `CLIP_CACHE_DIR` share its entries safely:
writes are atomic (write-then-rename), so a concurrent reader sees a
whole entry or none.

**Wall-clock timing.** Simulation *results* are deterministic and
scheduler-independent: the event-wheel skip-ahead driver (DESIGN.md
§5b) and forced cycle-by-cycle stepping (`CLIP_TICK=step`) produce
byte-identical artifacts, so nothing in this document depends on which
scheduler ran. Host speed is measured by `perfbench`, a package of its
own (see `perfbench/README.md`): it reports the median and quartiles of
back-to-back runs per workload, splits a traced run's time across the
simulator's layers, and checks the simulator's outputs in every run.
Its `quiet-1c` workload is the wheel's home ground; CI runs it and only
gates on the wheel not being slower than stepping.

---
"""


def render(artifact: dict) -> str:
    """Renders an artifact back into the text its binary prints."""
    lines = [artifact["title"]]
    if artifact.get("columns"):
        lines.append("\t".join(artifact["columns"]))
    for row in artifact.get("rows", []):
        lines.append("\t".join(row))
    lines.extend(artifact.get("notes", []))
    return "\n".join(lines)


def error_lines(artifact: dict) -> list:
    """One bullet per structured error record in the artifact."""
    out = []
    for e in artifact.get("errors", []):
        where = f"row {e['row']} cell {e['cell']} mix {e['mix']}"
        if e.get("baseline"):
            where += " (baseline)"
        out.append(
            f"- {where}: {e.get('kind', '?')} in `{e.get('component', '?')}` "
            f"at cycle {e.get('cycle', '?')}: {e.get('detail', '')}"
        )
    return out


def load(directory: str, name: str) -> dict:
    with open(os.path.join(directory, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    argv = [a for a in sys.argv[1:] if a != "--strict"]
    strict = "--strict" in sys.argv[1:]
    directory = argv[0] if argv else os.environ.get(
        "CLIP_ARTIFACT_DIR", "target/experiments"
    )
    with open(os.path.join(directory, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)

    print(HEADER)

    failures = 0

    # The summary harness's artifact, if it was run, leads the document.
    if os.path.exists(os.path.join(directory, "summary.json")):
        summary = load(directory, "summary")
        print("## Headline summary\n")
        print("```text")
        print(render(summary).rstrip())
        print("```\n")
        footnotes = error_lines(summary)
        if footnotes:
            failures += len(footnotes)
            print(f"**Failures:** {len(footnotes)} simulation(s) failed; "
                  "the affected cells render as `ERR`.\n")
            print("\n".join(footnotes) + "\n")

    for entry in index:
        name = entry["bin"]
        artifacts = [load(directory, a) for a in entry["artifacts"]]
        body = "\n\n".join(render(a).rstrip() for a in artifacts)
        print(f"## {name}\n")
        note = PAPER_NOTES.get(name)
        if note:
            if note.startswith("Paper: "):
                note = note[len("Paper: "):]
            print(f"**Paper:** {note}\n")
        print("**Measured:**\n")
        print("```text")
        print(body)
        print("```\n")
        footnotes = [line for a in artifacts for line in error_lines(a)]
        if footnotes:
            failures += len(footnotes)
            print(f"**Failures:** {len(footnotes)} simulation(s) failed; "
                  "the affected cells render as `ERR`.\n")
            print("\n".join(footnotes) + "\n")

    if failures:
        print(f"make_experiments: {failures} failed simulation(s) in the sweep",
              file=sys.stderr)
        if strict:
            sys.exit(1)


if __name__ == "__main__":
    main()
