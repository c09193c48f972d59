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

/// Governor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicClipConfig {
    /// Overall DRAM utilization below which CLIP turns off.
    pub low_watermark: f64,
    /// Overall DRAM utilization above which CLIP turns back on.
    pub high_watermark: f64,
    /// Consecutive samples on one side of a watermark before switching.
    pub hysteresis_samples: u32,
}

impl Default for DynamicClipConfig {
    fn default() -> Self {
        DynamicClipConfig {
            low_watermark: 0.35,
            high_watermark: 0.60,
            hysteresis_samples: 4,
        }
    }
}

/// The governor's current mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipMode {
    /// CLIP filters prefetches (bandwidth-constrained operation).
    Filtering,
    /// CLIP passes everything through (bandwidth is plentiful).
    Bypassed,
}

/// The §5.3 bandwidth governor: a watermark/hysteresis state machine
/// over overall DRAM-utilization samples.
///
/// # Examples
///
/// ```
/// use clip_core::{ClipMode, DynamicClipConfig, Governor};
///
/// let mut gov = Governor::new(DynamicClipConfig::default());
/// assert_eq!(gov.mode(), ClipMode::Filtering);
/// // Sustained low DRAM utilization opens the gate.
/// for _ in 0..4 {
///     gov.on_bandwidth_sample(0.1);
/// }
/// assert_eq!(gov.mode(), ClipMode::Bypassed);
/// ```
#[derive(Debug, Clone)]
pub struct Governor {
    cfg: DynamicClipConfig,
    mode: ClipMode,
    streak: u32,
    mode_switches: u64,
}

impl Governor {
    /// Creates a governor starting in filtering mode.
    ///
    /// # Panics
    ///
    /// Panics when the watermarks are not ordered
    /// (`low_watermark < high_watermark`).
    pub fn new(cfg: DynamicClipConfig) -> Self {
        assert!(
            cfg.low_watermark < cfg.high_watermark,
            "hysteresis watermarks must be ordered"
        );
        Governor {
            cfg,
            mode: ClipMode::Filtering,
            streak: 0,
            mode_switches: 0,
        }
    }

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
            ClipMode::Filtering if u < self.cfg.low_watermark => {
                self.streak += 1;
                if self.streak >= self.cfg.hysteresis_samples {
                    self.mode = ClipMode::Bypassed;
                    self.streak = 0;
                    self.mode_switches += 1;
                }
            }
            ClipMode::Bypassed if u > self.cfg.high_watermark => {
                self.streak += 1;
                if self.streak >= self.cfg.hysteresis_samples {
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
        let g = Governor::new(DynamicClipConfig::default());
        assert_eq!(g.mode(), ClipMode::Filtering);
        assert_eq!(g.mode_switches(), 0);
    }

    #[test]
    fn bypasses_after_sustained_low_utilization() {
        let mut g = Governor::new(DynamicClipConfig::default());
        for _ in 0..3 {
            g.on_bandwidth_sample(0.1);
        }
        assert_eq!(g.mode(), ClipMode::Filtering, "one sample short");
        g.on_bandwidth_sample(0.1);
        assert_eq!(g.mode(), ClipMode::Bypassed);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut g = Governor::new(DynamicClipConfig::default());
        // Oscillate around the low watermark: never enough streak.
        for i in 0..40 {
            g.on_bandwidth_sample(if i % 2 == 0 { 0.1 } else { 0.5 });
        }
        assert_eq!(g.mode(), ClipMode::Filtering);
        assert_eq!(g.mode_switches(), 0);
    }

    #[test]
    fn returns_to_filtering_under_pressure() {
        let mut g = Governor::new(DynamicClipConfig::default());
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

    #[test]
    #[should_panic]
    fn rejects_inverted_watermarks() {
        let _ = Governor::new(DynamicClipConfig {
            low_watermark: 0.8,
            high_watermark: 0.2,
            ..DynamicClipConfig::default()
        });
    }
}
