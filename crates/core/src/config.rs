//! HoloAR configuration: the four evaluated schemes and their knobs.

use holoar_sensors::angles::deg;

/// Full (unapproximated) depth-plane budget per object (§4.3: "the strict 16
/// depth planes requirement").
pub const FULL_PLANES: u32 = 16;

/// The four AR-hologram configurations of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Viewing-window sub-hologram only (Reichelt et al. \[52\]) — the
    /// paper's *Baseline*.
    Baseline,
    /// Foveated rendering: full planes inside the region of focus, `16·α`
    /// outside — the paper's *Reference* design.
    InterHolo,
    /// Distance/size-driven per-object plane budgets (`16·β`).
    IntraHolo,
    /// Inter-then-Intra composition — the full *HoloAR*.
    InterIntraHolo,
}

impl Scheme {
    /// All schemes in evaluation order.
    pub const ALL: [Scheme; 4] =
        [Scheme::Baseline, Scheme::InterHolo, Scheme::IntraHolo, Scheme::InterIntraHolo];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::InterHolo => "Inter-Holo",
            Scheme::IntraHolo => "Intra-Holo",
            Scheme::InterIntraHolo => "Inter-Intra-Holo",
        }
    }

    /// Whether the scheme consumes eye tracking (and pays its latency).
    pub fn uses_eye_tracking(self) -> bool {
        matches!(self, Scheme::InterHolo | Scheme::InterIntraHolo)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of the Intra-Holo approximation-factor model (see `DESIGN.md`,
/// "The β model").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraParams {
    /// Reference angular depth (radians): an object whose depth extent over
    /// distance reaches this value gets the full plane budget. Calibrated so
    /// the Table 2 video mix lands at the paper's Fig 8b plane averages.
    pub theta_ref: f64,
}

impl Default for IntraParams {
    fn default() -> Self {
        IntraParams { theta_ref: 1.548 }
    }
}

/// Full configuration for the HoloAR planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoloArConfig {
    /// Active scheme.
    pub scheme: Scheme,
    /// Inter-Holo approximation factor `α ∈ (0, 1]`; the paper settles on
    /// 0.5 (§4.3) and sweeps it in Fig 10b.
    pub alpha: f64,
    /// Intra-Holo model parameters.
    pub intra: IntraParams,
    /// Region-of-focus radius (the ~5° foveal circle of the HVS).
    pub rof_radius: f64,
    /// Plane budget for unapproximated objects.
    pub full_planes: u32,
    /// Floor on approximated plane budgets (an object that is rendered at
    /// all needs some depth structure).
    pub min_planes: u32,
    /// Whether cross-frame sub-hologram reuse (Fig 5a's "skip the soccer
    /// ball in Frame-II") is enabled. On by default; the ablation harness
    /// turns it off to measure its contribution.
    pub reuse_enabled: bool,
}

impl HoloArConfig {
    /// The paper's default configuration for a scheme (α = 0.5, 5° RoF,
    /// 16 full planes, floor of 2).
    ///
    /// # Examples
    ///
    /// ```
    /// use holoar_core::{HoloArConfig, Scheme};
    /// let cfg = HoloArConfig::for_scheme(Scheme::InterIntraHolo);
    /// assert_eq!(cfg.alpha, 0.5);
    /// assert_eq!(cfg.full_planes, 16);
    /// ```
    pub fn for_scheme(scheme: Scheme) -> Self {
        HoloArConfig {
            scheme,
            alpha: 0.5,
            intra: IntraParams::default(),
            rof_radius: deg(5.0),
            full_planes: FULL_PLANES,
            min_planes: 2,
            reuse_enabled: true,
        }
    }

    /// Same configuration with reuse disabled (the reuse-ablation harness).
    pub fn without_reuse(mut self) -> Self {
        self.reuse_enabled = false;
        self
    }

    /// Same configuration with a different α (the Fig 10b sweep).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err("alpha must be in (0, 1]".into());
        }
        if self.full_planes == 0 {
            return Err("full plane budget must be non-zero".into());
        }
        if self.min_planes == 0 || self.min_planes > self.full_planes {
            return Err("min planes must be in [1, full_planes]".into());
        }
        if !(self.rof_radius > 0.0 && self.rof_radius.is_finite()) {
            return Err("RoF radius must be positive".into());
        }
        if !(self.intra.theta_ref > 0.0 && self.intra.theta_ref.is_finite()) {
            return Err("theta_ref must be positive".into());
        }
        Ok(())
    }
}

impl Default for HoloArConfig {
    /// The full HoloAR scheme (Inter-Intra-Holo) at paper defaults.
    fn default() -> Self {
        HoloArConfig::for_scheme(Scheme::InterIntraHolo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_properties() {
        assert!(!Scheme::Baseline.uses_eye_tracking());
        assert!(Scheme::InterHolo.uses_eye_tracking());
        assert!(Scheme::InterIntraHolo.uses_eye_tracking());
        assert_eq!(Scheme::ALL.len(), 4);
        assert_eq!(Scheme::InterIntraHolo.to_string(), "Inter-Intra-Holo");
    }

    #[test]
    fn default_config_is_paper_defaults() {
        let cfg = HoloArConfig::default();
        assert_eq!(cfg.scheme, Scheme::InterIntraHolo);
        assert_eq!(cfg.alpha, 0.5);
        assert_eq!(cfg.full_planes, 16);
        assert_eq!(cfg.min_planes, 2);
        assert!(cfg.reuse_enabled);
        assert!(!cfg.without_reuse().reuse_enabled);
        assert!((cfg.rof_radius - deg(5.0)).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn with_alpha_overrides() {
        let cfg = HoloArConfig::for_scheme(Scheme::InterHolo).with_alpha(0.25);
        assert_eq!(cfg.alpha, 0.25);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn with_alpha_rejects_out_of_range() {
        HoloArConfig::default().with_alpha(0.0);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let cfg = HoloArConfig { min_planes: 32, ..HoloArConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = HoloArConfig { full_planes: 0, ..HoloArConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = HoloArConfig { rof_radius: -1.0, ..HoloArConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = HoloArConfig {
            intra: IntraParams { theta_ref: f64::NAN },
            ..HoloArConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
