//! The host side of a measurement: the pinned environment, what machine
//! and build the numbers came from, and the process counters (`/proc`)
//! the benchmark reads.

use clip_stats::Json;
use std::path::{Path, PathBuf};

/// Worker threads the sweep workloads use: two, or fewer on a smaller
/// host, so one benchmark process never oversubscribes the machine.
pub fn sweep_threads() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Environment values the benchmark runs under, after [`pin_env`].
pub struct PinnedEnv {
    /// `(name, value)` for every knob set to a fixed value.
    pub pinned: Vec<(&'static str, String)>,
    /// Knobs the caller had set, now removed.
    pub removed: Vec<String>,
}

/// Unsets every `CLIP_*` variable and pins the few the benchmark needs.
///
/// The simulator and its harness read about thirty `CLIP_*` knobs
/// (audit level, scheduler, caches, journals, deadlines, retries,
/// default backends). Any of them, set in the caller's shell or in CI,
/// would silently change what is measured, so none survives. Must run
/// before any thread is spawned.
pub fn pin_env() -> PinnedEnv {
    let mut removed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CLIP_"))
        .collect();
    removed.sort();
    for k in &removed {
        std::env::remove_var(k);
    }
    let pinned = vec![
        // The default audit level: what users run.
        ("CLIP_CHECK", "cheap".to_string()),
        // A failed job counts once instead of being silently re-run.
        ("CLIP_RETRY", "0".to_string()),
        ("CLIP_THREADS", sweep_threads().to_string()),
    ];
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    PinnedEnv { pinned, removed }
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build description recorded next to every result.
pub fn host_json(env: &PinnedEnv) -> Json {
    Json::object([
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::from(cpu_model())),
        ("rustc", Json::from(env!("PERFBENCH_RUSTC"))),
        ("profile", Json::from(build_profile())),
        (
            "env",
            Json::object(env.pinned.iter().map(|(k, v)| (*k, Json::from(v.as_str())))),
        ),
        (
            "env_removed",
            Json::array(env.removed.iter().map(|k| Json::from(k.as_str()))),
        ),
    ])
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resets the peak-RSS mark to the current RSS. Best effort: without
/// it, peaks are process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User plus system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `(comm)`
    // field, which may itself contain spaces. USER_HZ is 100 on Linux.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A directory for the run's own files (sweep result caches), removed
/// when dropped. It lives next to the benchmark executable, inside the
/// build directory of the checkout.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let parent = exe.parent().unwrap_or(Path::new("."));
        let dir = parent.join(format!("perfbench-scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
