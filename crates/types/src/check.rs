//! Simulation integrity vocabulary: check levels and structured errors.
//!
//! A cycle-level model fails silently — a leaked MSHR or a lost flit skews
//! every normalized figure without a visible crash. The integrity layer
//! (watchdog + conservation auditors in `clip-sim`, component audits in
//! `clip-noc` / `clip-dram` / `clip-cache`) reports violations as a
//! [`SimError`]: the cycle it was detected, the component that owns the
//! broken invariant, an error [`SimErrorKind`], and a diagnostic state
//! dump. [`CheckLevel`] selects how much auditing a run pays for.
//!
//! # Examples
//!
//! ```
//! use clip_types::check::{CheckLevel, SimError, SimErrorKind};
//!
//! let e = SimError::new(1024, "noc", SimErrorKind::Conservation, "flit lost");
//! assert_eq!(e.to_string(), "[cycle 1024] conservation violation in noc: flit lost");
//! assert!(CheckLevel::Cheap.audits_enabled());
//! assert!(!CheckLevel::Off.audits_enabled());
//! ```

use crate::Cycle;
use std::fmt;

/// How much integrity checking a run performs.
///
/// Read from the `CLIP_CHECK` environment variable (`off`/`0`, `cheap`/`1`,
/// `full`/`2`); unset or blank values default to [`CheckLevel::Cheap`], and
/// any other value stops the process (see [`crate::knob::env_gate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CheckLevel {
    /// No watchdog, no audits (fault injection still works).
    Off,
    /// Forward-progress watchdog plus aggregate conservation audits
    /// (counter balances, queue bounds). Cheap enough to leave on.
    #[default]
    Cheap,
    /// Everything in `Cheap` plus per-entry legality scans (entry ages,
    /// buffer occupancies, command timestamps).
    Full,
}

impl CheckLevel {
    /// Parses `CLIP_CHECK`; unset or blank yields `Cheap`, and an
    /// unrecognized value exits naming the accepted words (a gate knob,
    /// see [`crate::knob::env_gate`]).
    pub fn from_env() -> CheckLevel {
        match crate::knob::env_gate("CLIP_CHECK", &["off", "0", "cheap", "1", "full", "2"]) {
            Some("off") | Some("0") => CheckLevel::Off,
            Some("full") | Some("2") => CheckLevel::Full,
            _ => CheckLevel::Cheap,
        }
    }

    /// True when any auditing (watchdog + conservation) runs.
    pub fn audits_enabled(self) -> bool {
        self != CheckLevel::Off
    }

    /// True when the per-entry legality scans also run.
    pub fn full(self) -> bool {
        self == CheckLevel::Full
    }
}

/// Classification of an integrity failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimErrorKind {
    /// Forward-progress watchdog: nothing retired and no uncore channel
    /// drained for a whole window while transactions were in flight.
    Deadlock,
    /// A conservation audit failed: something was created and never
    /// accounted for, or vanished without being released.
    Conservation,
    /// A legality scan failed: an entry or command is in a state the
    /// hardware could never reach.
    IllegalState,
    /// A job panicked; the payload is in `detail`.
    Panic,
    /// The driver itself failed (a result slot never filled, a poisoned
    /// lock) — a harness bug rather than a model bug.
    Internal,
    /// Two runs that must be bit-identical (same seed serial vs parallel,
    /// or faulted vs clean) produced different state fingerprints; the
    /// detail names the first divergent cadence window and component.
    Divergence,
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimErrorKind::Deadlock => "deadlock",
            SimErrorKind::Conservation => "conservation violation",
            SimErrorKind::IllegalState => "illegal state",
            SimErrorKind::Panic => "panic",
            SimErrorKind::Internal => "internal error",
            SimErrorKind::Divergence => "state divergence",
        })
    }
}

/// A structured integrity failure: where, when, what, and a state dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Cycle at which the violation was detected (0 when outside a run,
    /// e.g. a panic before the clock started).
    pub cycle: Cycle,
    /// The component owning the broken invariant (`noc`, `dram`,
    /// `llc`, `tile3.l2-mshr`, `watchdog`, `job`, ...).
    pub component: String,
    /// Error classification.
    pub kind: SimErrorKind,
    /// Human-readable diagnostic: the failed invariant and a dump of the
    /// relevant occupancies / stuck transactions.
    pub detail: String,
}

impl SimError {
    /// Builds an error.
    pub fn new(
        cycle: Cycle,
        component: impl Into<String>,
        kind: SimErrorKind,
        detail: impl Into<String>,
    ) -> SimError {
        SimError {
            cycle,
            component: component.into(),
            kind,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {}] {} in {}: {}",
            self.cycle, self.kind, self.component, self.detail
        )
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        assert!(CheckLevel::Off < CheckLevel::Cheap);
        assert!(CheckLevel::Cheap < CheckLevel::Full);
        assert!(!CheckLevel::Off.audits_enabled());
        assert!(CheckLevel::Cheap.audits_enabled());
        assert!(!CheckLevel::Cheap.full());
        assert!(CheckLevel::Full.full());
    }

    #[test]
    fn display_names_component_and_cycle() {
        let e = SimError::new(7, "dram", SimErrorKind::IllegalState, "stale completion");
        let s = e.to_string();
        assert!(s.contains("cycle 7"), "{s}");
        assert!(s.contains("dram"), "{s}");
        assert!(s.contains("illegal state"), "{s}");
    }
}
