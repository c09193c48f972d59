//! Dynamic CLIP — the future-work extension sketched in §5.3 of the
//! paper: "a dynamic version of CLIP can be explored that can turn off
//! CLIP in the case of systems with high per-core DRAM bandwidth."
//!
//! [`Governor`] is the bandwidth governor that switches CLIP on and off.
//! The system feeds it periodic overall DRAM-utilization samples; when
//! utilization stays below a low watermark for long enough (bandwidth is
//! plentiful — e.g. only a few cores are active), the gate opens and every
//! prefetch passes through untouched, recovering the full prefetcher
//! upside. When utilization crosses the high watermark, CLIP filtering
//! resumes. Hysteresis between the watermarks prevents mode flapping, the
//! failure mode the paper attributes to DSPatch's myopic per-controller
//! sampling — the governor deliberately uses *overall* utilization.
//!
//! One governor serves the whole system: every core's [`crate::Clip`]
//! keeps training in both modes, and only the gate consults the mode.

/// Overall DRAM utilization below which CLIP turns off.
const LOW_WATERMARK: f64 = 0.35;
/// Overall DRAM utilization above which CLIP turns back on.
const HIGH_WATERMARK: f64 = 0.60;
/// Consecutive samples on one side of a watermark before switching.
const HYSTERESIS_SAMPLES: u32 = 4;

const _: () = assert!(
    LOW_WATERMARK < HIGH_WATERMARK,
    "hysteresis watermarks must be ordered"
);

/// The governor's current mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ClipMode {
    /// CLIP filters prefetches (bandwidth-constrained operation).
    #[default]
    Filtering,
    /// CLIP passes everything through (bandwidth is plentiful).
    Bypassed,
}

/// The §5.3 bandwidth governor: a watermark/hysteresis state machine
/// over overall DRAM-utilization samples. It starts in filtering mode.
///
/// # Examples
///
/// ```
/// use clip_core::{ClipMode, Governor};
///
/// let mut gov = Governor::default();
/// assert_eq!(gov.mode(), ClipMode::Filtering);
/// // Sustained low DRAM utilization opens the gate.
/// for _ in 0..4 {
///     gov.on_bandwidth_sample(0.1);
/// }
/// assert_eq!(gov.mode(), ClipMode::Bypassed);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Governor {
    mode: ClipMode,
    streak: u32,
    mode_switches: u64,
}

impl Governor {
    /// Current mode.
    pub fn mode(&self) -> ClipMode {
        self.mode
    }

    /// Times the governor has switched modes.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    /// Feeds one overall-DRAM-utilization sample (0..=1).
    pub fn on_bandwidth_sample(&mut self, utilization: f64) {
        let u = utilization.clamp(0.0, 1.0);
        match self.mode {
            ClipMode::Filtering if u < LOW_WATERMARK => {
                self.streak += 1;
                if self.streak >= HYSTERESIS_SAMPLES {
                    self.mode = ClipMode::Bypassed;
                    self.streak = 0;
                    self.mode_switches += 1;
                }
            }
            ClipMode::Bypassed if u > HIGH_WATERMARK => {
                self.streak += 1;
                if self.streak >= HYSTERESIS_SAMPLES {
                    self.mode = ClipMode::Filtering;
                    self.streak = 0;
                    self.mode_switches += 1;
                }
            }
            _ => self.streak = 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_filtering() {
        let g = Governor::default();
        assert_eq!(g.mode(), ClipMode::Filtering);
        assert_eq!(g.mode_switches(), 0);
    }

    #[test]
    fn bypasses_after_sustained_low_utilization() {
        let mut g = Governor::default();
        for _ in 0..3 {
            g.on_bandwidth_sample(0.1);
        }
        assert_eq!(g.mode(), ClipMode::Filtering, "one sample short");
        g.on_bandwidth_sample(0.1);
        assert_eq!(g.mode(), ClipMode::Bypassed);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut g = Governor::default();
        // Oscillate around the low watermark: never enough streak.
        for i in 0..40 {
            g.on_bandwidth_sample(if i % 2 == 0 { 0.1 } else { 0.5 });
        }
        assert_eq!(g.mode(), ClipMode::Filtering);
        assert_eq!(g.mode_switches(), 0);
    }

    #[test]
    fn returns_to_filtering_under_pressure() {
        let mut g = Governor::default();
        for _ in 0..4 {
            g.on_bandwidth_sample(0.1);
        }
        assert_eq!(g.mode(), ClipMode::Bypassed);
        for _ in 0..4 {
            g.on_bandwidth_sample(0.9);
        }
        assert_eq!(g.mode(), ClipMode::Filtering);
        assert_eq!(g.mode_switches(), 2);
    }
}
