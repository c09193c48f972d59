//! Declarative experiment layer: every figure/table binary is a spec.
//!
//! An [`Experiment`] names a grid of simulation cells — rows carry mixes
//! and per-row label/config variations, cells carry a `(SimConfig,
//! Scheme)` pair — plus how to normalize and render the results. One
//! executor, [`run_experiment`], expands the spec into [`SweepJob`]s,
//! runs everything missing through [`clip_sim::run_jobs_checked`]
//! (deduplicated and memoized, with every completed cell additionally
//! cached on disk, see [`crate::cache`]), and renders both the
//! plain-text table the binaries have always printed and a JSON artifact
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
use clip_types::SimConfig;
use std::collections::{HashMap, HashSet};

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
    /// [`ExperimentData::has_errors`] is false, so they may call this
    /// freely; anything else should guard with [`ExperimentData::cell_ok`].
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

    /// True when any simulation in the grid failed.
    pub fn has_errors(&self) -> bool {
        !self.errors().is_empty()
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

/// Jobs in grid order, each with its [`job_key`].
#[derive(Default)]
struct KeyedJobs {
    jobs: Vec<SweepJob>,
    keys: Vec<String>,
}

impl KeyedJobs {
    /// Adds the job `(cfg, scheme, mix)`; `parts` are the `Debug` forms
    /// of config, scheme, mix and run options, already formatted (see
    /// [`key_of`]).
    fn push(&mut self, cfg: &SimConfig, scheme: &Scheme, mix: &Mix, parts: [&str; 4]) {
        self.jobs.push(SweepJob {
            cfg: cfg.clone(),
            scheme: scheme.clone(),
            mix: mix.clone(),
        });
        self.keys.push(key_of(parts));
    }
}

/// Expands the grid into its jobs and, when the spec normalizes, their
/// no-prefetch baselines, both in row/cell/mix order. Key parts are
/// formatted once per row (mixes) or cell (configs, schemes), not once
/// per job: a mix's `Debug` form alone runs to kilobytes. The keys equal
/// [`job_key`]'s.
fn expand(exp: &Experiment) -> (KeyedJobs, KeyedJobs) {
    let opts = format!("{:?}", exp.opts);
    let plain = Scheme::plain();
    let plain_part = format!("{plain:?}");
    let mut cells = KeyedJobs::default();
    let mut bases = KeyedJobs::default();
    for row in &exp.rows {
        let mixes: Vec<String> = row.mixes.iter().map(|m| format!("{m:?}")).collect();
        for cell in &row.cells {
            let cfg = format!("{:?}", cell.cfg);
            let scheme = format!("{:?}", cell.scheme);
            let base = (exp.normalization == Normalization::NoPrefetch).then(|| {
                let base_cfg = crate::strip_prefetchers(&cell.cfg);
                let part = format!("{base_cfg:?}");
                (base_cfg, part)
            });
            for (mix, mix_part) in row.mixes.iter().zip(&mixes) {
                cells.push(
                    &cell.cfg,
                    &cell.scheme,
                    mix,
                    [&cfg, &scheme, mix_part, &opts],
                );
                if let Some((base_cfg, base_part)) = &base {
                    bases.push(
                        base_cfg,
                        &plain,
                        mix,
                        [base_part, &plain_part, mix_part, &opts],
                    );
                }
            }
        }
    }
    (cells, bases)
}

fn collect<'a>(exp: &'a Experiment) -> ExperimentData<'a> {
    let (cells, bases) = expand(exp);
    let flat = run_cached_checked(&cells, &exp.opts);
    let base_flat = run_cached_checked(&bases, &exp.opts);

    let mut results = Vec::new();
    let mut baselines = Vec::new();
    let mut i = 0;
    for row in &exp.rows {
        let mut rrow = Vec::new();
        let mut brow = Vec::new();
        for _ in &row.cells {
            let n = row.mixes.len();
            rrow.push(flat[i..i + n].to_vec());
            if exp.normalization == Normalization::NoPrefetch {
                brow.push(base_flat[i..i + n].to_vec());
            }
            i += n;
        }
        results.push(rrow);
        baselines.push(brow);
    }
    ExperimentData {
        spec: exp,
        results,
        baselines,
    }
}

thread_local! {
    static RESULT_CACHE: std::cell::RefCell<HashMap<String, Result<SimResult, SimError>>> =
        std::cell::RefCell::new(HashMap::new());
}

/// Drops every memoized result on this thread, forcing the next
/// [`run_experiment`] to re-simulate (determinism tests).
pub fn clear_result_cache() {
    RESULT_CACHE.with(|c| c.borrow_mut().clear());
}

/// The full identity of one simulation: the `Debug` forms of config,
/// scheme, mix, and run options. Memo and disk-cache key here (the
/// executor joins the same parts from shared formatted copies, see
/// `expand`); the fingerprint-baseline store keys the same identity with
/// the armed fault stripped (see [`crate::fp_store::job_fp_key`]).
pub(crate) fn job_key(job: &SweepJob, opts: &RunOptions) -> String {
    key_of([
        &format!("{:?}", job.cfg),
        &format!("{:?}", job.scheme),
        &format!("{:?}", job.mix),
        &format!("{opts:?}"),
    ])
}

/// The key layout: the formatted config, scheme, mix and run options,
/// in that order, joined by `\u{1}`. Changing it renames every disk
/// cache entry.
fn key_of(parts: [&str; 4]) -> String {
    parts.join("\u{1}")
}

/// Runs jobs through the memoized parallel driver: outcomes come from the
/// in-process cache, then the universal on-disk result cache (every
/// scheme, not just baselines — see [`crate::cache`]), and only the
/// remainder is simulated (deduplicated, one `run_jobs_checked` batch).
/// Returns outcomes in job order, identical to a serial `run_mix_checked`
/// map.
///
/// Each simulated job is finished on its worker as it ends: the
/// fingerprint-baseline step runs first, then a success is written to
/// the disk cache. A sweep killed mid-batch therefore keeps every cell
/// that completed, and a diverged result is never stored. Failures are
/// memoized in-process but never written to the disk cache.
fn run_cached_checked(keyed: &KeyedJobs, opts: &RunOptions) -> Vec<Result<SimResult, SimError>> {
    let KeyedJobs { jobs, keys } = keyed;
    let cached = |k: &str| RESULT_CACHE.with(|c| c.borrow().get(k).cloned());
    let memoized = |k: &str| RESULT_CACHE.with(|c| c.borrow().contains_key(k));
    let put = |k: String, r: Result<SimResult, SimError>| {
        RESULT_CACHE.with(|c| c.borrow_mut().insert(k, r));
    };
    let fp_off = crate::fp_store::mode() == crate::fp_store::FpMode::Off;

    let mut missing: Vec<usize> = Vec::new();
    let mut queued: HashSet<&str> = HashSet::new();
    for (i, key) in keys.iter().enumerate() {
        if memoized(key) || !queued.insert(key) {
            continue;
        }
        // Disk-cache hits carry no fingerprint stream, so serving one
        // under an active CLIP_FP_BASELINE mode would silently skip the
        // record/verify step for that job. Bypass the disk cache (but
        // not the in-process memo) whenever a baseline mode is active:
        // the job re-simulates once, gets checked, and refreshes its
        // entry on the way out.
        if fp_off {
            if let Some(r) = crate::cache::lookup(key, &jobs[i].mix.name) {
                put(key.clone(), Ok(r));
                continue;
            }
        }
        missing.push(i);
    }

    let batch: Vec<SweepJob> = missing.iter().map(|&i| jobs[i].clone()).collect();
    let outcomes = run_jobs_checked(&batch, opts, |b, r| {
        let i = missing[b];
        // Fingerprint baselines see only freshly simulated outcomes:
        // results served from the in-process memo carry no fingerprint
        // stream to record or verify (the disk cache is bypassed above
        // when a baseline mode is active). Inert unless
        // CLIP_FP_BASELINE is set; a verify failure replaces the outcome
        // with its Divergence error (rendered DIV).
        let r = crate::fp_store::apply(&jobs[i], opts, r);
        if let Ok(res) = &r {
            crate::cache::store(&keys[i], &jobs[i].mix.name, res);
        }
        r
    });
    for (&i, r) in missing.iter().zip(outcomes) {
        put(keys[i].clone(), r);
    }

    keys.iter()
        .map(|k| cached(k).expect("every job key was filled above"))
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
        let (cells, bases) = expand(&exp);
        assert_eq!(cells.jobs.len(), 5 * 4 * 2, "rows x cells x mixes");
        assert_eq!(bases.jobs.len(), cells.jobs.len(), "one baseline per job");
        for (cell, base) in cells.jobs.iter().zip(&bases.jobs) {
            assert_eq!(base.cfg, crate::strip_prefetchers(&cell.cfg));
            assert_eq!(base.mix, cell.mix);
        }
        for keyed in [&cells, &bases] {
            assert_eq!(keyed.keys.len(), keyed.jobs.len());
            for (job, key) in keyed.jobs.iter().zip(&keyed.keys) {
                assert_eq!(*key, job_key(job, &exp.opts));
            }
        }
    }
}
