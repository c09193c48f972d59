//! Validated environment knobs with warn-once rejection.
//!
//! Every runtime knob (`CLIP_THREADS`, `CLIP_CHECK`, `CLIP_TICK`, the
//! store-directory overrides, …) follows the contract
//! `CLIP_THREADS` established: a value in its documented domain is
//! honoured, anything else — garbage, out of range, empty — is rejected
//! with a **single** stderr warning per knob and the caller's default
//! applies. A sweep that misreads one knob must degrade to its default
//! loudly once, not spam a warning per job or (worse) silently clamp.
//!
//! Three knob shapes cover the workspace:
//!
//! * [`env_u64`] — integers in a range (`CLIP_THREADS`, the scale
//!   knobs).
//! * [`env_choice`] — one of an allowed word list, matched
//!   case-insensitively after trimming (`CLIP_CHECK`, `CLIP_TICK`,
//!   `CLIP_NOC`, `CLIP_DRAM`, the fingerprint-baseline mode).
//! * [`env_flag`] — booleans (`CLIP_CACHE`): `1`/`on`/`true`/`yes`
//!   against `0`/`off`/`false`/`no`.
//!
//! [`env_dir`] reads directory overrides: any non-blank value is taken
//! verbatim (paths are never trimmed or validated — the store layer
//! copes with unusable directories), while a blank one warns once.
//!
//! # Examples
//!
//! ```
//! use clip_types::knob;
//!
//! // Unset (or invalid) reads as None; the caller picks the default.
//! std::env::remove_var("CLIP_DOCTEST_KNOB");
//! assert_eq!(knob::env_u64("CLIP_DOCTEST_KNOB", 0, 10), None);
//! std::env::set_var("CLIP_DOCTEST_KNOB", "7");
//! assert_eq!(knob::env_u64("CLIP_DOCTEST_KNOB", 0, 10), Some(7));
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{LazyLock, Mutex};

/// Reads an integer knob from the environment: `Some(n)` when the
/// variable is set to an integer within `lo..=hi`, `None` when it is
/// unset **or** invalid (warned once per knob name, see [`parse`]).
pub fn env_u64(name: &'static str, lo: u64, hi: u64) -> Option<u64> {
    parse(name, std::env::var(name).ok().as_deref(), lo, hi)
}

/// The testable core of [`env_u64`]: validates an already-read value.
/// `None` (unset) is silent; a present-but-invalid value warns once per
/// `name` for the life of the process and reads as unset.
pub fn parse(name: &'static str, raw: Option<&str>, lo: u64, hi: u64) -> Option<u64> {
    let v = raw?;
    match v.trim().parse::<u64>() {
        Ok(n) if (lo..=hi).contains(&n) => Some(n),
        _ => {
            warn_once(name, || {
                format!(
                    "clip: ignoring invalid {name}={v:?} (accepted range: {lo}..={hi}); \
                     using the default"
                )
            });
            None
        }
    }
}

/// Reads a word-list knob: `Some(canonical)` when the variable is set to
/// one of `allowed` (matched case-insensitively after trimming, the
/// canonical spelling returned), `None` when unset, blank, or
/// unrecognized (warned once per knob name, see [`choice`]).
pub fn env_choice(name: &'static str, allowed: &[&'static str]) -> Option<&'static str> {
    choice(name, std::env::var(name).ok().as_deref(), allowed)
}

/// The testable core of [`env_choice`]. Unset and blank values are
/// silent (blank means "use the default", the historical behaviour of
/// every mode knob); anything not in `allowed` warns once naming the
/// accepted words and reads as unset.
pub fn choice(
    name: &'static str,
    raw: Option<&str>,
    allowed: &[&'static str],
) -> Option<&'static str> {
    let v = raw?;
    let t = v.trim();
    if t.is_empty() {
        return None;
    }
    if let Some(c) = allowed.iter().find(|a| a.eq_ignore_ascii_case(t)) {
        return Some(c);
    }
    warn_once(name, || {
        format!(
            "clip: ignoring unrecognized {name}={v:?} (expected one of: {}); \
             using the default",
            allowed.join(", ")
        )
    });
    None
}

/// Reads a boolean knob: `Some(true)` for `1`/`on`/`true`/`yes`,
/// `Some(false)` for `0`/`off`/`false`/`no` (case-insensitive, trimmed),
/// `None` when unset, blank, or garbage (warned once, see [`flag`]).
pub fn env_flag(name: &'static str) -> Option<bool> {
    flag(name, std::env::var(name).ok().as_deref())
}

/// The testable core of [`env_flag`].
pub fn flag(name: &'static str, raw: Option<&str>) -> Option<bool> {
    let v = raw?;
    match v.trim().to_ascii_lowercase().as_str() {
        "" => None,
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => {
            warn_once(name, || {
                format!(
                    "clip: ignoring invalid {name}={v:?} (expected 1/on/true/yes \
                     or 0/off/false/no); using the default"
                )
            });
            None
        }
    }
}

/// Reads a directory-override knob: any non-blank value is returned
/// verbatim as a path (never trimmed — trailing spaces are legal in
/// filenames), while a set-but-blank value warns once and reads as
/// unset. The path is **not** checked for existence or writability; the
/// store layers already degrade gracefully on unusable directories.
pub fn env_dir(name: &'static str) -> Option<PathBuf> {
    let v = std::env::var(name).ok()?;
    if v.trim().is_empty() {
        warn_once(name, || {
            format!("clip: ignoring blank {name}; using the default directory")
        });
        return None;
    }
    Some(PathBuf::from(v))
}

/// Knob names that already warned this process.
static WARNED: LazyLock<Mutex<HashSet<&'static str>>> =
    LazyLock::new(|| Mutex::new(HashSet::new()));

fn warn_once(name: &'static str, msg: impl FnOnce() -> String) {
    let mut warned = WARNED.lock().unwrap_or_else(|p| p.into_inner());
    if warned.insert(name) {
        eprintln!("{}", msg());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_parse_and_out_of_range_reads_as_unset() {
        assert_eq!(parse("K_A", None, 0, 8), None);
        assert_eq!(
            parse("K_A", Some("0"), 0, 8),
            Some(0),
            "zero is a value, not garbage"
        );
        assert_eq!(parse("K_A", Some("8"), 0, 8), Some(8));
        assert_eq!(
            parse("K_A", Some(" 3 "), 0, 8),
            Some(3),
            "whitespace is trimmed"
        );
        assert_eq!(parse("K_A", Some("9"), 0, 8), None, "beyond hi");
        assert_eq!(parse("K_B", Some("2"), 3, 8), None, "below lo");
        assert_eq!(parse("K_A", Some("-1"), 0, 8), None);
        assert_eq!(parse("K_A", Some("soon"), 0, 8), None);
        assert_eq!(parse("K_A", Some(""), 0, 8), None);
    }

    #[test]
    fn choices_match_case_insensitively_and_return_the_canonical_word() {
        const MODES: &[&str] = &["record", "resume", "off"];
        assert_eq!(choice("K_C", None, MODES), None, "unset is silent");
        assert_eq!(choice("K_C", Some(""), MODES), None, "blank is silent");
        assert_eq!(choice("K_C", Some("  "), MODES), None);
        assert_eq!(choice("K_C", Some("record"), MODES), Some("record"));
        assert_eq!(
            choice("K_C", Some(" RESUME "), MODES),
            Some("resume"),
            "trimmed, case-folded, canonical spelling returned"
        );
        assert_eq!(choice("K_C", Some("bogus"), MODES), None);
    }

    #[test]
    fn flags_accept_the_documented_spellings_only() {
        for yes in ["1", "on", "true", "yes", " ON ", "True"] {
            assert_eq!(flag("K_F", Some(yes)), Some(true), "{yes:?}");
        }
        for no in ["0", "off", "false", "no", " OFF "] {
            assert_eq!(flag("K_F", Some(no)), Some(false), "{no:?}");
        }
        assert_eq!(flag("K_F", None), None);
        assert_eq!(flag("K_F", Some("")), None, "blank is silent");
        assert_eq!(flag("K_F", Some("maybe")), None, "garbage reads as unset");
    }

    #[test]
    fn dir_overrides_pass_through_verbatim_and_blank_reads_as_unset() {
        std::env::set_var("K_DIR_SET", "/tmp/clip dir ");
        assert_eq!(
            env_dir("K_DIR_SET"),
            Some(PathBuf::from("/tmp/clip dir ")),
            "paths are never trimmed"
        );
        std::env::set_var("K_DIR_BLANK", "   ");
        assert_eq!(env_dir("K_DIR_BLANK"), None);
        std::env::remove_var("K_DIR_UNSET");
        assert_eq!(env_dir("K_DIR_UNSET"), None);
    }

    #[test]
    fn each_knob_warns_at_most_once() {
        // The warning set is process-global; all this test can pin is that
        // repeated garbage for one name inserts a single entry.
        parse("K_WARN_ONCE", Some("junk"), 0, 8);
        parse("K_WARN_ONCE", Some("more junk"), 0, 8);
        choice("K_WARN_ONCE", Some("still junk"), &["a", "b"]);
        let warned = WARNED.lock().unwrap_or_else(|p| p.into_inner());
        assert!(warned.contains("K_WARN_ONCE"));
        assert_eq!(
            warned.iter().filter(|n| **n == "K_WARN_ONCE").count(),
            1,
            "a HashSet cannot hold duplicates; the warning fired once"
        );
    }
}
