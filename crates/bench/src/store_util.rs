//! Shared on-disk entry machinery for the persistent stores.
//!
//! Both persistent stores — the universal result cache, which holds
//! every completed run (`target/clip-cache/`, [`crate::cache`]), and
//! the fingerprint-baseline store (`target/clip-fp/`,
//! [`crate::fp_store`]) — keep one JSON file per entry with the same
//! durability discipline, factored out here:
//!
//! * **Checksum wrapper.** An entry is exactly the bytes
//!   `{"checksum":"<16 hex>","<payload key>":<payload>}`, where the
//!   checksum is FNV-1a over the payload's bytes as stored
//!   ([`entry_text`] renders the payload once and builds both from it).
//!   [`unwrap_verified`] checks that layout, hashes the stored payload
//!   bytes and only then parses the payload, so truncated writes, disk
//!   corruption and manual edits all read as misses. That includes a
//!   hand-reformatted entry that still means the same JSON: re-spacing
//!   changes the bytes, and a miss costs one re-simulation.
//! * **Quarantine.** A present-but-damaged entry is renamed to
//!   `<entry>.corrupt` (deleted if even the rename fails) so the miss is
//!   diagnosable, and the quarantine is pruned to [`QUARANTINE_CAP`]
//!   files, oldest evicted first.
//! * **Atomic writes.** Entries are written to `<entry-stem>.tmp.<pid>`
//!   and renamed into place, so a concurrent reader never sees a torn
//!   file. [`prune_quarantine`] also sweeps *stale* tmp files — ones
//!   whose writer process is no longer alive — so a crash between write
//!   and rename (or a failed rename) cannot leave orphans behind
//!   forever.

use clip_stats::Json;
use clip_types::Fnv64;
use std::path::{Path, PathBuf};

/// How many quarantined `.corrupt` files a store directory may hold.
/// A persistently failing disk would otherwise grow one per damaged
/// entry per run, forever.
pub(crate) const QUARANTINE_CAP: usize = 32;

/// Marks a store directory as in use, sweeping leftovers — stale
/// `.tmp.<pid>` files of dead writers and an over-cap quarantine — the
/// first time each directory is opened in this process. Crash debris is
/// cleaned on the *next run's first access*, not only when a quarantine
/// prune happens to fire. Every store entry point (lookup and store
/// alike) calls this; repeat opens are a `HashSet` probe.
pub(crate) fn open_store(dir: &Path) {
    use std::sync::{LazyLock, Mutex};
    static OPENED: LazyLock<Mutex<std::collections::HashSet<PathBuf>>> =
        LazyLock::new(|| Mutex::new(std::collections::HashSet::new()));
    let mut opened = OPENED.lock().unwrap_or_else(|p| p.into_inner());
    if !opened.contains(dir) {
        opened.insert(dir.to_path_buf());
        prune_quarantine(dir);
    }
}

/// The workspace `target/` directory: the nearest ancestor of the
/// running binary named `target`, falling back to a relative `target`.
pub(crate) fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|p| p.file_name().is_some_and(|n| n == "target"))
                .map(PathBuf::from)
        })
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// FNV-1a over a key or payload string.
pub(crate) fn fnv64(s: &str) -> u64 {
    Fnv64::new().write_bytes(s.as_bytes()).finish()
}

/// The entry file for a job whose digest is `digest` (FNV-1a over its
/// version-tagged key, see [`fnv64`]): `<sanitized mix name>-<digest
/// hex>.json`. The mix name keeps entries human-attributable and makes
/// hash collisions across mixes harmless.
pub(crate) fn entry_path(dir: &Path, digest: u64, mix_name: &str) -> PathBuf {
    let sane: String = mix_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{sane}-{digest:016x}.json"))
}

/// What every entry starts with, up to the checksum's 16 hex digits.
const ENTRY_HEAD: &str = "{\"checksum\":\"";

/// The entry text for `payload` under `payload_key`:
/// `{"checksum":"<16 hex>","<payload_key>":<payload>}`, with the payload
/// rendered once and the checksum taken over those bytes. Equal to
/// rendering the `Json` object of the same two fields, so entries stay
/// byte-identical to the ones earlier builds wrote.
pub(crate) fn entry_text(payload_key: &str, payload: &Json) -> String {
    let payload = payload.render();
    format!(
        "{ENTRY_HEAD}{:016x}\",\"{payload_key}\":{payload}}}",
        fnv64(&payload)
    )
}

/// The entry writer of earlier builds, kept as the reference the tests
/// hold [`entry_text`] to: a two-field `Json` object, rendered whole.
/// Entries already on disk have exactly its bytes.
#[cfg(test)]
pub(crate) fn wrap_checksummed(payload_key: &str, payload: Json) -> Json {
    let rendered = payload.render();
    Json::object([
        ("checksum", Json::from(format!("{:016x}", fnv64(&rendered)))),
        (payload_key, payload),
    ])
}

/// Returns an entry's payload when the entry has exactly the layout
/// [`entry_text`] writes and its checksum matches the stored payload
/// bytes. Only the payload is parsed, and only after the bytes check
/// out; a payload that matches but does not parse is a miss too.
pub(crate) fn unwrap_verified(text: &str, payload_key: &str) -> Option<Json> {
    let (hex, rest) = text.strip_prefix(ENTRY_HEAD)?.split_at_checked(16)?;
    let payload = rest
        .strip_prefix("\",\"")?
        .strip_prefix(payload_key)?
        .strip_prefix("\":")?
        .strip_suffix('}')?;
    if !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    if u64::from_str_radix(hex, 16).ok()? != fnv64(payload) {
        return None;
    }
    Json::parse(payload).ok()
}

/// Writes the entry `text` to `path` atomically (write-then-rename
/// through a `.tmp.<pid>` sibling). Best effort: failures are silently
/// dropped — a store must never fail a figure run on a read-only
/// filesystem.
pub(crate) fn write_entry(dir: &Path, path: &Path, text: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Moves a damaged entry aside as `<entry>.corrupt` so the miss is
/// diagnosable; deletes it if even the rename fails. Afterwards prunes
/// the quarantine back to [`QUARANTINE_CAP`] entries, oldest first.
pub(crate) fn quarantine(path: &Path) {
    static NOTICE: std::sync::Once = std::sync::Once::new();
    NOTICE.call_once(|| {
        eprintln!(
            "clip-cache: quarantining damaged cache entry {} (kept as .corrupt, cap {})",
            path.display(),
            QUARANTINE_CAP
        );
    });
    let mut aside = path.as_os_str().to_owned();
    aside.push(".corrupt");
    if std::fs::rename(path, PathBuf::from(aside)).is_err() {
        let _ = std::fs::remove_file(path);
    }
    if let Some(dir) = path.parent() {
        prune_quarantine(dir);
    }
}

/// Deletes the oldest `.corrupt` files (by modification time, then name
/// for files sharing a timestamp) until at most [`QUARANTINE_CAP`]
/// remain, and sweeps orphaned `.tmp.<pid>` files whose writer process
/// died between write and rename. Best effort: an unreadable directory
/// just skips the prune.
pub(crate) fn prune_quarantine(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut corrupt: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for p in entries.flatten().map(|e| e.path()) {
        if p.extension().is_some_and(|x| x == "corrupt") {
            let mtime = std::fs::metadata(&p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            corrupt.push((mtime, p));
        } else if is_stale_tmp(&p) {
            let _ = std::fs::remove_file(&p);
        }
    }
    if corrupt.len() <= QUARANTINE_CAP {
        return;
    }
    corrupt.sort();
    for (_, p) in corrupt.drain(..corrupt.len() - QUARANTINE_CAP) {
        let _ = std::fs::remove_file(p);
    }
}

/// True for a `<stem>.tmp.<pid>` file left by a writer that no longer
/// exists. The current process's own tmp files are never stale (they may
/// be mid-rename); any other pid is checked for liveness via `/proc` —
/// on platforms without procfs every foreign pid reads as dead, which
/// degrades to "sweep other processes' leftovers" (safe: live writers
/// hold a tmp file only for the instant between write and rename, and a
/// swept-mid-write store is merely skipped, never corrupted).
fn is_stale_tmp(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some((_, pid_str)) = name.rsplit_once(".tmp.") else {
        return false;
    };
    let Ok(pid) = pid_str.parse::<u32>() else {
        return false;
    };
    pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("clip-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("temp dir");
        d
    }

    #[test]
    fn checksum_wrapper_roundtrips_and_rejects_tampering() {
        let payload = Json::object([("x", Json::from(7u64))]);
        let entry = entry_text("result", &payload);
        assert_eq!(unwrap_verified(&entry, "result"), Some(payload));
        assert_eq!(unwrap_verified(&entry, "stream"), None, "wrong payload key");
        let tampered = entry.replace("\"x\":7", "\"x\":8");
        assert_eq!(unwrap_verified(&tampered, "result"), None);
        assert_eq!(unwrap_verified(&entry[..entry.len() / 2], "result"), None);
    }

    #[test]
    fn entry_text_is_the_earlier_writers_bytes() {
        let payload = Json::object([
            ("label", Json::from("berti/mix \"0\"\u{1}")),
            ("ipc", Json::array([Json::from(0.5), Json::from(2.0)])),
            ("cycles", Json::from(1234u64)),
            ("clip", Json::Null),
        ]);
        for key in ["result", "stream"] {
            let text = entry_text(key, &payload);
            assert_eq!(text, wrap_checksummed(key, payload.clone()).render());
            assert_eq!(unwrap_verified(&text, key), Some(payload.clone()));
        }
    }

    #[test]
    fn verifier_reads_the_stored_bytes_not_the_json_they_mean() {
        let payload = Json::object([("x", Json::from(7u64)), ("y", Json::Null)]);
        let entry = entry_text("result", &payload);
        // Re-spaced, semantically equal JSON: the payload's bytes changed,
        // so the checksum no longer matches and the entry is a miss.
        let compact = payload.render();
        let respaced = entry.replacen(&compact, &compact.replace(',', ", "), 1);
        assert_ne!(respaced, entry);
        assert_eq!(Json::parse(&respaced).ok(), Json::parse(&entry).ok());
        assert_eq!(unwrap_verified(&respaced, "result"), None);
        // Only the writer's exact layout passes: no surrounding
        // whitespace, lowercase hex, the payload key in place.
        assert_eq!(unwrap_verified(&format!(" {entry}"), "result"), None);
        assert_eq!(unwrap_verified(&format!("{entry}\n"), "result"), None);
        let hex = &entry[ENTRY_HEAD.len()..ENTRY_HEAD.len() + 16];
        let upper = entry.replacen(hex, &hex.to_uppercase(), 1);
        assert_ne!(upper, entry, "this checksum has a hex letter");
        assert_eq!(unwrap_verified(&upper, "result"), None);
        // A payload that matches its checksum but is not JSON is a miss.
        let junk = "{\"x\":07";
        let bad = format!("{ENTRY_HEAD}{:016x}\",\"result\":{junk}}}", fnv64(junk));
        assert!(Json::parse(junk).is_err());
        assert_eq!(unwrap_verified(&bad, "result"), None);
    }

    #[test]
    fn stale_tmp_files_are_swept_but_live_ones_survive() {
        let dir = temp_dir("tmp-sweep");
        // pid 4294967294 cannot exist (beyond any real pid_max), so its
        // leftover is unambiguously an orphan of a dead writer.
        let dead = dir.join("mix-0123456789abcdef.tmp.4294967294");
        let own = dir.join(format!("mix-fedcba9876543210.tmp.{}", std::process::id()));
        let entry = dir.join("mix-1111111111111111.json");
        std::fs::write(&dead, "orphan").expect("seed dead tmp");
        std::fs::write(&own, "mid-rename").expect("seed own tmp");
        std::fs::write(&entry, "{}").expect("seed entry");

        prune_quarantine(&dir);

        assert!(!dead.exists(), "a dead writer's tmp file must be swept");
        assert!(own.exists(), "the current process's tmp file must survive");
        assert!(entry.exists(), "real entries are untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_store_sweeps_once_per_process() {
        let dir = temp_dir("open-sweep");
        let dead = dir.join("mix-aaaaaaaaaaaaaaaa.tmp.4294967294");
        std::fs::write(&dead, "orphan").expect("seed dead tmp");
        open_store(&dir);
        assert!(!dead.exists(), "crash debris is swept on first open");
        // A second open is a no-op: debris appearing later (a concurrent
        // writer mid-rename) is left for the next process or prune.
        std::fs::write(&dead, "orphan again").expect("re-seed dead tmp");
        open_store(&dir);
        assert!(dead.exists(), "repeat opens do not re-sweep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_files_of_live_processes_are_kept() {
        // pid 1 always exists on Linux; its tmp file must not be swept.
        let dir = temp_dir("tmp-live");
        let live = dir.join("mix-2222222222222222.tmp.1");
        std::fs::write(&live, "concurrent writer").expect("seed live tmp");
        prune_quarantine(&dir);
        if Path::new("/proc/1").exists() {
            assert!(live.exists(), "a live writer's tmp file must survive");
        } else {
            assert!(!live.exists(), "without procfs foreign tmps are swept");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
