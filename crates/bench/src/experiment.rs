//! Declarative experiment layer: every figure and table is a spec.
//!
//! An [`Experiment`] names a grid of simulation cells — rows carry mixes
//! and per-row label/config variations, cells carry a `(SimConfig,
//! Scheme)` pair — plus how to normalize and render the results. One
//! executor, [`run_experiment`], expands the spec into its distinct
//! jobs, serves what it can from the in-process memo and the disk cache
//! (`cache.rs`), runs the rest as [`SweepJob`]s through
//! [`clip_sim::run_jobs_checked`], caching every completed cell on
//! disk, and renders both the
//! plain-text table the figures have always printed and a JSON artifact
//! under `target/experiments/<name>.json`.
//!
//! Failures are isolated per cell: a job that panics or trips an
//! integrity audit renders as `ERR` in the text table, and the artifact
//! gains an `errors` array of structured records — the remaining cells
//! are unaffected and byte-identical to a clean run. A cell that
//! completed but diverged from its recorded fingerprint baseline
//! (`CLIP_FP_BASELINE=verify`, see [`crate::fp_store`]) renders as
//! `DIV` instead, with the same structured error records.
//!
//! Each simulated cell is written to the disk cache on its worker as
//! soon as it finishes, so resuming an interrupted sweep is re-running
//! it: completed cells come back from the disk cache, only the missing
//! ones simulate, and the result is the byte-identical complete artifact
//! — as long as the sweep's own entries fit under the cache's 256 MiB
//! cap, since the size-cap GC evicts oldest first.

use clip_sim::{run_jobs_checked, RunOptions, Scheme, SimError, SimErrorKind, SimResult, SweepJob};
use clip_stats::{normalized_weighted_speedup, Json};
use clip_trace::Mix;
use clip_types::{Fnv64, SimConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// A declarative figure/table: a grid of simulations plus rendering.
pub struct Experiment {
    /// Artifact name (`target/experiments/<name>.json`).
    pub name: String,
    /// Title line printed verbatim above the table.
    pub title: String,
    /// Header columns; empty suppresses the header line.
    pub columns: Vec<String>,
    /// The simulation grid, row by row.
    pub rows: Vec<RowSpec>,
    /// Run options shared by every cell.
    pub opts: RunOptions,
    /// How per-mix results are normalized.
    pub normalization: Normalization,
    /// How the grid becomes table rows.
    pub render: Render,
}

/// One row of the grid: its label cells, mixes, and simulation cells.
pub struct RowSpec {
    /// Leading label cells (e.g. channel counts).
    pub labels: Vec<String>,
    /// Trailing static cells (e.g. storage KB computed at build time).
    pub extra: Vec<String>,
    /// Mixes every cell in this row runs over.
    pub mixes: Vec<Mix>,
    /// Simulation cells, one table column each.
    pub cells: Vec<CellSpec>,
}

/// One simulated configuration within a row.
#[derive(Clone)]
pub struct CellSpec {
    pub cfg: SimConfig,
    pub scheme: Scheme,
}

/// Per-mix normalization mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Normalization {
    /// Normalize against a no-prefetch run of the same config and mix.
    NoPrefetch,
    /// Raw results only; no baseline runs.
    None,
}

/// How the executed grid is rendered into table rows.
pub enum Render {
    /// One row per [`RowSpec`]: labels, then the geometric-mean
    /// normalized weighted speedup of each cell, then `extra`.
    GeomeanWs,
    /// Custom: derive the body from the collected results.
    Table(fn(&ExperimentData) -> TableBody),
}

/// Rendered table body: rows of tab-joined cells plus free-form notes.
#[derive(Default)]
pub struct TableBody {
    pub rows: Vec<Vec<String>>,
    pub notes: Vec<String>,
}

/// All results of an executed experiment, indexed `[row][cell][mix]`.
pub struct ExperimentData<'a> {
    pub spec: &'a Experiment,
    results: Vec<Vec<Vec<Result<SimResult, SimError>>>>,
    baselines: Vec<Vec<Vec<Result<SimResult, SimError>>>>,
}

/// One failed simulation within an executed grid.
pub struct CellError<'a> {
    pub row: usize,
    pub cell: usize,
    pub mix: usize,
    /// True when the failing run was the no-prefetch baseline.
    pub baseline: bool,
    pub error: &'a SimError,
}

impl ExperimentData<'_> {
    pub fn rows(&self) -> usize {
        self.results.len()
    }

    pub fn cells(&self, row: usize) -> usize {
        self.results[row].len()
    }

    pub fn mixes(&self, row: usize) -> usize {
        self.spec.rows[row].mixes.len()
    }

    /// The result of `(row, cell)` on the row's `mix`-th mix.
    ///
    /// Panics if that simulation failed — custom renderers only run when
    /// [`ExperimentData::errors`] is empty, so they may call this freely;
    /// anything else should guard with [`ExperimentData::cell_ok`].
    pub fn result(&self, row: usize, cell: usize, mix: usize) -> &SimResult {
        match &self.results[row][cell][mix] {
            Ok(r) => r,
            Err(e) => panic!("result({row},{cell},{mix}) failed: {e}"),
        }
    }

    /// The matching no-prefetch baseline ([`Normalization::NoPrefetch`]).
    ///
    /// Panics if the baseline simulation failed (see [`ExperimentData::result`]).
    pub fn baseline(&self, row: usize, cell: usize, mix: usize) -> &SimResult {
        match &self.baselines[row][cell][mix] {
            Ok(r) => r,
            Err(e) => panic!("baseline({row},{cell},{mix}) failed: {e}"),
        }
    }

    /// True when every mix of `(row, cell)` — and its baselines, if any —
    /// simulated successfully.
    pub fn cell_ok(&self, row: usize, cell: usize) -> bool {
        let base_ok = match self.baselines[row].get(cell) {
            Some(b) => b.iter().all(|r| r.is_ok()),
            None => true,
        };
        base_ok && self.results[row][cell].iter().all(|r| r.is_ok())
    }

    /// The uniform failure kind of `(row, cell)`: when the cell failed
    /// and every failing mix (and baseline) shares one [`SimErrorKind`],
    /// that kind; `None` when the cell is clean or its failures are
    /// mixed. Drives the cell glyphs — `DIV` (divergence), `ERR`
    /// (everything else).
    pub fn cell_failure_kind(&self, row: usize, cell: usize) -> Option<SimErrorKind> {
        let mut kind: Option<SimErrorKind> = None;
        let sides = [
            Some(&self.results[row][cell]),
            self.baselines[row].get(cell),
        ];
        for outcomes in sides.into_iter().flatten() {
            for e in outcomes.iter().filter_map(|r| r.as_ref().err()) {
                match kind {
                    None => kind = Some(e.kind),
                    Some(k) if k == e.kind => {}
                    Some(_) => return None,
                }
            }
        }
        kind
    }

    /// Every failure in the grid, in row/cell/mix order.
    pub fn errors(&self) -> Vec<CellError<'_>> {
        let mut out = Vec::new();
        for r in 0..self.rows() {
            for c in 0..self.cells(r) {
                for m in 0..self.mixes(r) {
                    if let Err(e) = &self.results[r][c][m] {
                        out.push(CellError {
                            row: r,
                            cell: c,
                            mix: m,
                            baseline: false,
                            error: e,
                        });
                    }
                    if let Some(Err(e)) = self.baselines[r].get(c).map(|v| &v[m]) {
                        out.push(CellError {
                            row: r,
                            cell: c,
                            mix: m,
                            baseline: true,
                            error: e,
                        });
                    }
                }
            }
        }
        out
    }

    /// Normalized weighted speedup of one cell on one mix.
    pub fn ws(&self, row: usize, cell: usize, mix: usize) -> f64 {
        normalized_weighted_speedup(
            &self.result(row, cell, mix).per_core_ipc,
            &self.baseline(row, cell, mix).per_core_ipc,
        )
    }

    /// Per-mix normalized weighted speedups of one cell.
    pub fn cell_ws(&self, row: usize, cell: usize) -> Vec<f64> {
        (0..self.mixes(row))
            .map(|m| self.ws(row, cell, m))
            .collect()
    }

    /// Geometric-mean normalized weighted speedup of one cell.
    pub fn geomean_ws(&self, row: usize, cell: usize) -> f64 {
        crate::mean_ws(&self.cell_ws(row, cell))
    }
}

/// Executes a spec: runs the grid, prints the table, writes the JSON
/// artifact, and returns the artifact value.
pub fn run_experiment(exp: &Experiment) -> Json {
    let (text, artifact) = execute_experiment(exp);
    print!("{text}");
    write_artifact(&exp.name, &artifact);
    artifact
}

/// Executes a spec without printing or writing: returns the rendered
/// table text (as `run_experiment` prints it) and the JSON artifact.
pub fn execute_experiment(exp: &Experiment) -> (String, Json) {
    let data = collect(exp);
    let errors = data.errors();
    let mut body = match exp.render {
        Render::GeomeanWs => geomean_body(&data),
        // Custom renderers assume complete data; when cells failed, render
        // only the error notes below instead of calling into them.
        Render::Table(_) if !errors.is_empty() => TableBody::default(),
        Render::Table(f) => f(&data),
    };
    if !errors.is_empty() {
        body.notes
            .push(format!("{} simulation(s) failed:", errors.len()));
        for e in &errors {
            body.notes.push(format!(
                "  row {} cell {} mix {}{}: {}",
                e.row,
                e.cell,
                e.mix,
                if e.baseline { " (baseline)" } else { "" },
                e.error
            ));
        }
    }
    let mut text = format!("{}\n", exp.title);
    if !exp.columns.is_empty() {
        text.push_str(&exp.columns.join("\t"));
        text.push('\n');
    }
    for row in &body.rows {
        text.push_str(&row.join("\t"));
        text.push('\n');
    }
    for note in &body.notes {
        text.push_str(note);
        text.push('\n');
    }
    let artifact = artifact_json(exp, &body, &errors);
    (text, artifact)
}

fn geomean_body(d: &ExperimentData) -> TableBody {
    let mut rows = Vec::new();
    for r in 0..d.rows() {
        let spec_row = &d.spec.rows[r];
        let mut cells = spec_row.labels.clone();
        for c in 0..d.cells(r) {
            cells.push(if d.cell_ok(r, c) {
                crate::fmt(d.geomean_ws(r, c))
            } else {
                match d.cell_failure_kind(r, c) {
                    Some(SimErrorKind::Divergence) => "DIV",
                    _ => "ERR",
                }
                .to_string()
            });
        }
        cells.extend(spec_row.extra.iter().cloned());
        rows.push(cells);
    }
    TableBody {
        rows,
        notes: Vec::new(),
    }
}

// ----------------------------------------------------------------------
// Execution: job expansion, dedup, memoization.
// ----------------------------------------------------------------------

/// The separator between a job key's parts (see [`job_key`]).
const SEP: &str = "\u{1}";

/// The identity of one simulation, shared by every grid slot that runs
/// it. `parts` are [`job_key`]'s, formatted once per row or cell: the
/// `cfg\u{1}scheme\u{1}` prefix, the mix and the run options (the key is
/// `prefix + mix + "\u{1}" + options`). `digest` is FNV-1a over the
/// version-tagged key and names the job's disk-cache entry. Hashing
/// reads only the digest; equality compares the parts only when the
/// digests match.
#[derive(Clone)]
struct JobId {
    digest: u64,
    parts: [Arc<str>; 3],
}

impl PartialEq for JobId {
    fn eq(&self, other: &JobId) -> bool {
        self.digest == other.digest && self.parts == other.parts
    }
}

impl Eq for JobId {}

impl std::hash::Hash for JobId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// Where a job sits in the spec: its row, cell and mix, and whether it
/// is that cell's no-prefetch baseline.
#[derive(Clone, Copy, Debug)]
struct Slot {
    row: usize,
    cell: usize,
    mix: usize,
    base: bool,
}

impl Slot {
    fn mix(self, exp: &Experiment) -> &Mix {
        &exp.rows[self.row].mixes[self.mix]
    }

    /// The job to simulate. Built only for jobs that simulate: a
    /// served job needs nothing but its identity.
    fn job(self, exp: &Experiment) -> SweepJob {
        let cell = &exp.rows[self.row].cells[self.cell];
        let (cfg, scheme) = if self.base {
            (crate::strip_prefetchers(&cell.cfg), Scheme::plain())
        } else {
            (cell.cfg.clone(), cell.scheme.clone())
        };
        SweepJob {
            cfg,
            scheme,
            mix: self.mix(exp).clone(),
        }
    }
}

/// The grid's jobs: each distinct job once, with its identity and the
/// first slot that runs it, and for every slot — cells in row/cell/mix
/// order, then their baselines in the same order — the index of the
/// distinct job it runs.
#[derive(Default)]
struct Grid {
    distinct: Vec<(JobId, Slot)>,
    slots: Vec<usize>,
}

/// Builds a [`Grid`]. Equal key parts are found by comparing the
/// formatted strings (never by hashing them), so two slots run the same
/// job exactly when their prefix and mix are the same part. Each
/// distinct prefix is folded into the digest seed once, and each
/// distinct job's digest continues its prefix's state with the mix and
/// options.
struct Expander {
    seed: Fnv64,
    opts: Arc<str>,
    prefixes: Vec<(Arc<str>, Fnv64)>,
    mixes: Vec<Arc<str>>,
    seen: HashMap<(usize, usize), usize>,
    grid: Grid,
}

impl Expander {
    fn prefix(&mut self, cfg: &SimConfig, scheme: &Scheme) -> usize {
        let part = format!("{cfg:?}{SEP}{scheme:?}{SEP}");
        if let Some(i) = self.prefixes.iter().position(|(p, _)| **p == *part) {
            return i;
        }
        let mut state = self.seed;
        state.write_bytes(part.as_bytes());
        self.prefixes.push((part.into(), state));
        self.prefixes.len() - 1
    }

    fn mix(&mut self, mix: &Mix) -> usize {
        let part = format!("{mix:?}");
        if let Some(i) = self.mixes.iter().position(|m| **m == *part) {
            return i;
        }
        self.mixes.push(part.into());
        self.mixes.len() - 1
    }

    /// Adds `slot`, running the job of this prefix and mix.
    fn push(&mut self, prefix: usize, mix: usize, slot: Slot) {
        let next = self.grid.distinct.len();
        let d = *self.seen.entry((prefix, mix)).or_insert(next);
        if d == next {
            let (part, mut h) = self.prefixes[prefix].clone();
            let m = self.mixes[mix].clone();
            h.write_bytes(m.as_bytes())
                .write_bytes(SEP.as_bytes())
                .write_bytes(self.opts.as_bytes());
            let id = JobId {
                digest: h.finish(),
                parts: [part, m, self.opts.clone()],
            };
            self.grid.distinct.push((id, slot));
        }
        self.grid.slots.push(d);
    }
}

/// Expands the grid into its jobs and, when the spec normalizes, their
/// no-prefetch baselines. Key parts are formatted once per row (mixes)
/// or cell (configs, schemes), not once per job: a mix's `Debug` form
/// alone runs to kilobytes.
fn expand(exp: &Experiment) -> Grid {
    let mut x = Expander {
        seed: crate::cache::digest_seed(),
        opts: format!("{:?}", exp.opts).into(),
        prefixes: Vec::new(),
        mixes: Vec::new(),
        seen: HashMap::new(),
        grid: Grid::default(),
    };
    let plain = Scheme::plain();
    let normalize = exp.normalization == Normalization::NoPrefetch;
    let mut bases = Vec::new();
    for (row, spec) in exp.rows.iter().enumerate() {
        let mixes: Vec<usize> = spec.mixes.iter().map(|m| x.mix(m)).collect();
        for (cell, c) in spec.cells.iter().enumerate() {
            let prefix = x.prefix(&c.cfg, &c.scheme);
            let base = normalize.then(|| x.prefix(&crate::strip_prefetchers(&c.cfg), &plain));
            for (mix, &m) in mixes.iter().enumerate() {
                let slot = Slot {
                    row,
                    cell,
                    mix,
                    base: false,
                };
                x.push(prefix, m, slot);
                if let Some(b) = base {
                    bases.push((b, m, Slot { base: true, ..slot }));
                }
            }
        }
    }
    for (b, m, slot) in bases {
        x.push(b, m, slot);
    }
    x.grid
}

fn collect<'a>(exp: &'a Experiment) -> ExperimentData<'a> {
    let grid = expand(exp);
    let outcomes = run_cached_checked(exp, &grid);
    // Slots come cells first, then one baseline per cell if normalizing.
    let mut slots = grid.slots.iter().map(|&d| outcomes[d].clone());
    let mut shaped = || -> Vec<Vec<Vec<Result<SimResult, SimError>>>> {
        (exp.rows.iter())
            .map(|row| {
                (row.cells.iter())
                    .map(|_| slots.by_ref().take(row.mixes.len()).collect())
                    .collect()
            })
            .collect()
    };
    let results = shaped();
    let baselines = match exp.normalization {
        Normalization::NoPrefetch => shaped(),
        Normalization::None => exp.rows.iter().map(|_| Vec::new()).collect(),
    };
    ExperimentData {
        spec: exp,
        results,
        baselines,
    }
}

thread_local! {
    static RESULT_CACHE: std::cell::RefCell<HashMap<JobId, Result<SimResult, SimError>>> =
        std::cell::RefCell::new(HashMap::new());
}

/// Drops every memoized result on this thread, forcing the next
/// [`run_experiment`] to re-simulate (determinism tests).
pub fn clear_result_cache() {
    RESULT_CACHE.with(|c| c.borrow_mut().clear());
}

/// The full identity of one simulation: the `Debug` forms of config,
/// scheme, mix, and run options, in that order, joined by `\u{1}`.
/// Changing the layout renames every disk cache entry. The executor
/// builds the same key from shared, once-formatted parts (see
/// [`expand`]); the fingerprint-baseline store keys the same identity
/// with the armed fault stripped (see [`crate::fp_store::job_fp_key`]).
pub(crate) fn job_key(job: &SweepJob, opts: &RunOptions) -> String {
    format!(
        "{:?}{SEP}{:?}{SEP}{:?}{SEP}{opts:?}",
        job.cfg, job.scheme, job.mix
    )
}

/// Runs the grid's distinct jobs through the memoized parallel driver:
/// outcomes come from the in-process memo, then the universal on-disk
/// result cache (every scheme, not just baselines — see
/// [`crate::cache`]), and only the remainder is simulated, in one
/// `run_jobs_checked` batch. Returns one outcome per distinct job,
/// identical to a serial `run_mix_checked` map.
///
/// Each simulated job is finished on its worker as it ends: the
/// fingerprint-baseline step runs first, then a success is written to
/// the disk cache. A sweep killed mid-batch therefore keeps every cell
/// that completed, and a diverged result is never stored. Failures are
/// memoized in-process but never written to the disk cache.
fn run_cached_checked(exp: &Experiment, grid: &Grid) -> Vec<Result<SimResult, SimError>> {
    let memoize = |id: &JobId, r: &Result<SimResult, SimError>| {
        RESULT_CACHE.with(|c| c.borrow_mut().insert(id.clone(), r.clone()));
    };
    let fp_off = crate::fp_store::mode() == crate::fp_store::FpMode::Off;

    let mut outcomes: Vec<Option<Result<SimResult, SimError>>> = RESULT_CACHE.with(|c| {
        let memo = c.borrow();
        grid.distinct
            .iter()
            .map(|(id, _)| memo.get(id).cloned())
            .collect()
    });
    let mut missing: Vec<usize> = Vec::new();
    for (d, (id, slot)) in grid.distinct.iter().enumerate() {
        if outcomes[d].is_some() {
            continue;
        }
        // Disk-cache hits carry no fingerprint stream, so serving one
        // under an active CLIP_FP_BASELINE mode would silently skip the
        // record/verify step for that job. Bypass the disk cache (but
        // not the in-process memo) whenever a baseline mode is active:
        // the job re-simulates once, gets checked, and refreshes its
        // entry on the way out.
        if fp_off {
            if let Some(r) = crate::cache::lookup(id.digest, &slot.mix(exp).name) {
                let r = Ok(r);
                memoize(id, &r);
                outcomes[d] = Some(r);
                continue;
            }
        }
        missing.push(d);
    }

    let batch: Vec<SweepJob> = missing
        .iter()
        .map(|&d| grid.distinct[d].1.job(exp))
        .collect();
    let finished = run_jobs_checked(&batch, &exp.opts, |b, r| {
        // Fingerprint baselines see only freshly simulated outcomes:
        // results served from the in-process memo carry no fingerprint
        // stream to record or verify (the disk cache is bypassed above
        // when a baseline mode is active). Inert unless
        // CLIP_FP_BASELINE is set; a verify failure replaces the outcome
        // with its Divergence error (rendered DIV).
        let r = crate::fp_store::apply(&batch[b], &exp.opts, r);
        if let Ok(res) = &r {
            let digest = grid.distinct[missing[b]].0.digest;
            crate::cache::store(digest, &batch[b].mix.name, res);
        }
        r
    });
    for (&d, r) in missing.iter().zip(finished) {
        memoize(&grid.distinct[d].0, &r);
        outcomes[d] = Some(r);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every distinct job was filled above"))
        .collect()
}

// ----------------------------------------------------------------------
// JSON artifact.
// ----------------------------------------------------------------------

fn artifact_json(exp: &Experiment, body: &TableBody, errors: &[CellError]) -> Json {
    let str_array = |v: &[String]| Json::array(v.iter().map(|s| Json::from(s.clone())));
    let mut fields = vec![
        ("name", Json::from(exp.name.clone())),
        ("title", Json::from(exp.title.clone())),
        (
            "params",
            Json::object([
                ("warmup_instrs", Json::from(exp.opts.warmup_instrs)),
                ("sim_instrs", Json::from(exp.opts.sim_instrs)),
                ("seed", Json::from(exp.opts.seed)),
                ("noc", Json::from(format!("{:?}", exp.opts.noc))),
                (
                    "normalization",
                    Json::from(format!("{:?}", exp.normalization)),
                ),
            ]),
        ),
        ("columns", str_array(&exp.columns)),
        ("rows", Json::array(body.rows.iter().map(|r| str_array(r)))),
        ("notes", str_array(&body.notes)),
    ];
    // Only present when something failed, so clean artifacts stay
    // byte-identical across harness versions.
    if !errors.is_empty() {
        fields.push((
            "errors",
            Json::array(errors.iter().map(|e| {
                Json::object([
                    ("row", Json::from(e.row)),
                    ("cell", Json::from(e.cell)),
                    ("mix", Json::from(e.mix)),
                    ("baseline", Json::from(e.baseline)),
                    ("cycle", Json::from(e.error.cycle)),
                    ("component", Json::from(e.error.component.clone())),
                    ("kind", Json::from(e.error.kind.to_string())),
                    ("detail", Json::from(e.error.detail.clone())),
                ])
            })),
        ));
    }
    Json::object(fields)
}

/// The directory JSON artifacts land in: `CLIP_ARTIFACT_DIR` when set
/// (non-blank, validated warn-once), otherwise `<target>/experiments`
/// next to the running binary.
pub fn artifact_dir() -> std::path::PathBuf {
    clip_types::knob::env_dir("CLIP_ARTIFACT_DIR")
        .unwrap_or_else(|| crate::store_util::target_dir().join("experiments"))
}

/// Writes an artifact (best effort — rendering must not fail a figure
/// run on read-only filesystems).
fn write_artifact(name: &str, value: &Json) {
    let dir = artifact_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let tmp = dir.join(format!("{name}.json.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, value.render()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use clip_sim::NocChoice;
    use clip_types::DramKind;

    #[test]
    fn executor_keys_equal_job_key() {
        let scale = Scale {
            cores: 4,
            instrs: 300,
            warmup: 100,
            homo_mixes: 2,
            hetero_mixes: 2,
            noc: NocChoice::Analytic,
            dram: DramKind::Ddr4,
        };
        let entry = crate::figures::registry()
            .into_iter()
            .find(|e| e.name == "fig02")
            .expect("fig02 is registered");
        let exp = (entry.build)(&scale).remove(0);
        let grid = expand(&exp);
        // Slots are rows x cells x mixes, then a baseline for each.
        let mut order = Vec::new();
        for base in [false, true] {
            for (row, spec) in exp.rows.iter().enumerate() {
                for cell in 0..spec.cells.len() {
                    for mix in 0..spec.mixes.len() {
                        order.push(Slot {
                            row,
                            cell,
                            mix,
                            base,
                        });
                    }
                }
            }
        }
        assert_eq!(grid.slots.len(), 2 * 5 * 4 * 2);
        assert_eq!(grid.slots.len(), order.len());
        let (cells, bases) = order.split_at(order.len() / 2);
        for (cell, base) in cells.iter().zip(bases) {
            let (cell, base) = (cell.job(&exp), base.job(&exp));
            assert_eq!(base.cfg, crate::strip_prefetchers(&cell.cfg));
            assert_eq!(base.mix, cell.mix);
        }
        // Every slot's identity is its job's key, and its digest is the
        // hash the disk cache has always named that key's entry by.
        let mut keys = std::collections::HashSet::new();
        for (&slot, &d) in order.iter().zip(&grid.slots) {
            let key = job_key(&slot.job(&exp), &exp.opts);
            let (id, first) = &grid.distinct[d];
            let [prefix, mix, opts] = &id.parts;
            assert_eq!(format!("{prefix}{mix}{SEP}{opts}"), key, "{slot:?}");
            assert_eq!(job_key(&first.job(&exp), &exp.opts), key, "{slot:?}");
            let version = crate::cache::CACHE_VERSION;
            let want = crate::store_util::fnv64(&format!("{version}|{key}"));
            assert_eq!(id.digest, want, "{slot:?}");
            keys.insert(key);
        }
        // Each distinct job appears once: rows whose paper channel counts
        // scale to the same run channels repeat each other's jobs, and a
        // row's cells share their no-prefetch baseline.
        assert_eq!(grid.distinct.len(), keys.len());
        let channels: std::collections::HashSet<usize> = [4, 8, 16, 32, 64]
            .into_iter()
            .map(|paper| crate::scaled_channels(paper, scale.cores))
            .collect();
        assert!(channels.len() < 5, "some rows repeat at 4 cores");
        assert_eq!(grid.distinct.len(), channels.len() * (4 * 2 + 2));
    }
}
