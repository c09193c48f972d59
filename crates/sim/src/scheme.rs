//! Scheme descriptions: which mechanism stack runs on top of the baseline
//! platform (prefetcher + optional CLIP / throttler / baseline criticality
//! gate / Hermes / DSPatch).

use clip_core::ClipConfig;
use clip_crit::BaselineKind;
use clip_throttle::ThrottlerKind;
use clip_types::PrefetcherKind;

/// One evaluated mechanism stack.
#[derive(Debug, Clone, Default)]
pub struct Scheme {
    /// Attach CLIP to the active prefetcher (at its training level).
    pub clip: Option<ClipConfig>,
    /// Use the §5.3 Dynamic CLIP governor: CLIP turns itself off when
    /// overall DRAM utilization stays low (requires `clip` to be set;
    /// one governor serves every core).
    pub dynamic: bool,
    /// Attach an epoch-level throttler (Figure 6).
    pub throttler: Option<ThrottlerKind>,
    /// Gate prefetches by a baseline criticality predictor (Figure 5):
    /// a candidate issues only if its trigger IP is predicted critical.
    pub crit_gate: Option<BaselineKind>,
    /// Enable Hermes off-chip prediction with direct DRAM probes (§5.3).
    pub hermes: bool,
    /// Enable DSPatch bandwidth-mode modulation (§5.3).
    pub dspatch: bool,
    /// Run the six baseline criticality predictors in evaluation-only mode
    /// (Figure 4) — they observe loads but gate nothing.
    pub evaluate_baselines: bool,
}

impl Scheme {
    /// The plain prefetcher (or no-prefetch baseline) with no add-ons.
    pub fn plain() -> Self {
        Scheme::default()
    }

    /// Prefetcher + CLIP with the paper's default configuration.
    pub fn with_clip() -> Self {
        Scheme {
            clip: Some(ClipConfig::default()),
            ..Scheme::default()
        }
    }

    /// Prefetcher + Dynamic CLIP (§5.3 future work): CLIP that bypasses
    /// itself when per-core DRAM bandwidth is plentiful.
    pub fn with_dynamic_clip() -> Self {
        Scheme {
            clip: Some(ClipConfig::default()),
            dynamic: true,
            ..Scheme::default()
        }
    }

    /// Prefetcher + a throttler.
    pub fn with_throttler(kind: ThrottlerKind) -> Self {
        Scheme {
            throttler: Some(kind),
            ..Scheme::default()
        }
    }

    /// Prefetcher gated by a baseline criticality predictor.
    pub fn with_crit_gate(kind: BaselineKind) -> Self {
        Scheme {
            crit_gate: Some(kind),
            ..Scheme::default()
        }
    }

    /// Prefetcher + Hermes.
    pub fn with_hermes() -> Self {
        Scheme {
            hermes: true,
            ..Scheme::default()
        }
    }

    /// Prefetcher + DSPatch.
    pub fn with_dspatch() -> Self {
        Scheme {
            dspatch: true,
            ..Scheme::default()
        }
    }

    /// A short label for experiment output, given the prefetcher.
    pub fn label(&self, prefetcher: PrefetcherKind) -> String {
        let mut s = prefetcher.name().to_string();
        if let Some(g) = self.crit_gate {
            s.push_str(&format!("+{:?}", g));
        }
        if let Some(t) = self.throttler {
            s.push_str(&format!("+{t}"));
        }
        if self.hermes {
            s.push_str("+Hermes");
        }
        if self.dspatch {
            s.push_str("+DSPatch");
        }
        if self.clip.is_some() {
            if self.dynamic {
                s.push_str("+DynCLIP");
            } else {
                s.push_str("+CLIP");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_compose() {
        assert_eq!(Scheme::plain().label(PrefetcherKind::Berti), "Berti");
        assert_eq!(
            Scheme::with_clip().label(PrefetcherKind::Berti),
            "Berti+CLIP"
        );
        assert_eq!(
            Scheme::with_throttler(ThrottlerKind::Fdp).label(PrefetcherKind::Ipcp),
            "IPCP+FDP"
        );
        assert_eq!(
            Scheme::with_hermes().label(PrefetcherKind::Berti),
            "Berti+Hermes"
        );
        assert_eq!(
            Scheme::with_dynamic_clip().label(PrefetcherKind::Berti),
            "Berti+DynCLIP"
        );
    }
}
