//! The HORN-8 comparison and the future-work hybrid scheduler.
//!
//! HORN-8 \[35\] is a special-purpose electro-holography ASIC. The paper had
//! no RTL or datasheet, so it *estimated* the accelerator's power efficiency
//! from published FPGA-vs-GPU characterization \[51\]: ≈ 48% power saving on
//! the same workload, with no approximation (so no latency change). We model
//! it the same way — and the same caveat applies: these are estimates, not
//! hardware measurements (the paper's footnote 5).
//!
//! §5.5 sketches a future accelerator co-design; [`HybridSchedule`]
//! implements its analytically tractable piece — partitioning depth planes
//! between a fixed-capacity accelerator and the GPU.

use crate::evaluation::EvaluationMatrix;
use crate::config::Scheme;

/// Analytical HORN-8 model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horn8Model {
    /// Fraction of baseline power the accelerator saves (paper estimate:
    /// 0.48 from \[51\]).
    pub power_saving: f64,
}

impl Default for Horn8Model {
    fn default() -> Self {
        Horn8Model { power_saving: 0.48 }
    }
}

impl Horn8Model {
    /// HORN-8's mean energy per frame on the baseline workload: same
    /// latency (no approximation), scaled power.
    pub fn mean_energy(&self, matrix: &EvaluationMatrix) -> f64 {
        let base = matrix.fleet_mean(Scheme::Baseline, |c| c.mean_energy);
        base * (1.0 - self.power_saving)
    }

    /// Energy savings versus the baseline, as a fraction.
    pub fn energy_savings(&self, _matrix: &EvaluationMatrix) -> f64 {
        self.power_saving
    }

    /// How much more energy HoloAR (Inter-Intra-Holo) saves than HORN-8, in
    /// fraction-of-baseline points. The paper reports ≈ 25% (§5.3).
    pub fn holoar_advantage(&self, matrix: &EvaluationMatrix) -> f64 {
        matrix.fleet_energy_savings(Scheme::InterIntraHolo) - self.energy_savings(matrix)
    }
}

/// Future-work (§5.5): split one hologram's depth planes between an
/// accelerator with `pu_count` processing units and the GPU, overlapping
/// their execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridSchedule {
    /// Planes assigned to the accelerator.
    pub accelerator_planes: u32,
    /// Planes assigned to the GPU.
    pub gpu_planes: u32,
    /// Makespan relative to running all planes on the GPU alone.
    pub relative_makespan: f64,
}

/// Plans a hybrid split: the accelerator processes one plane per PU per
/// "round" at `accel_speedup` × the GPU's per-plane rate; both run
/// concurrently and the makespan is the slower side.
///
/// # Panics
///
/// Panics if `accel_speedup` is not positive.
pub fn plan_hybrid(planes: u32, pu_count: u32, accel_speedup: f64) -> HybridSchedule {
    assert!(accel_speedup > 0.0, "accelerator speedup must be positive");
    if planes == 0 {
        return HybridSchedule { accelerator_planes: 0, gpu_planes: 0, relative_makespan: 0.0 };
    }
    if pu_count == 0 {
        return HybridSchedule {
            accelerator_planes: 0,
            gpu_planes: planes,
            relative_makespan: 1.0,
        };
    }
    // Balance: accel rate = pu_count × accel_speedup planes per GPU-plane
    // time; GPU rate = 1. Assign proportionally, rounding toward the
    // accelerator.
    let accel_rate = pu_count as f64 * accel_speedup;
    let accel_share =
        ((planes as f64 * accel_rate / (accel_rate + 1.0)).ceil() as u32).min(planes);
    let gpu_share = planes - accel_share;
    let accel_time = accel_share as f64 / accel_rate;
    let gpu_time = gpu_share as f64;
    HybridSchedule {
        accelerator_planes: accel_share,
        gpu_planes: gpu_share,
        relative_makespan: accel_time.max(gpu_time) / planes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::evaluate_matrix;
    use holoar_gpusim::Device;

    #[test]
    fn horn8_saves_less_than_holoar() {
        let matrix = evaluate_matrix(&Device::xavier(), 30, 5);
        let horn8 = Horn8Model::default();
        let horn8_savings = horn8.energy_savings(&matrix);
        let holoar_savings = matrix.fleet_energy_savings(Scheme::InterIntraHolo);
        assert!((horn8_savings - 0.48).abs() < 1e-12);
        assert!(
            holoar_savings > horn8_savings,
            "HoloAR ({holoar_savings:.2}) should beat HORN-8 ({horn8_savings:.2})"
        );
        let advantage = horn8.holoar_advantage(&matrix);
        assert!(
            (0.10..0.40).contains(&advantage),
            "advantage {advantage:.2} should be near the paper's ~25%"
        );
    }

    #[test]
    fn horn8_energy_is_power_scaled_baseline() {
        let matrix = evaluate_matrix(&Device::xavier(), 10, 2);
        let base = matrix.fleet_mean(Scheme::Baseline, |c| c.mean_energy);
        let horn8 = Horn8Model::default();
        assert!((horn8.mean_energy(&matrix) - base * 0.52).abs() < 1e-9);
    }

    #[test]
    fn hybrid_degenerate_cases() {
        let none = plan_hybrid(0, 4, 2.0);
        assert_eq!(none.relative_makespan, 0.0);
        let gpu_only = plan_hybrid(16, 0, 2.0);
        assert_eq!(gpu_only.gpu_planes, 16);
        assert_eq!(gpu_only.relative_makespan, 1.0);
    }

    #[test]
    fn hybrid_conserves_planes_and_speeds_up() {
        for (planes, pus, speedup) in [(16u32, 4u32, 1.5f64), (16, 8, 2.0), (7, 3, 1.0)] {
            let s = plan_hybrid(planes, pus, speedup);
            assert_eq!(s.accelerator_planes + s.gpu_planes, planes);
            assert!(s.relative_makespan < 1.0, "hybrid should beat GPU-only");
            assert!(s.relative_makespan > 0.0);
        }
    }

    #[test]
    fn more_pus_shrink_makespan() {
        let few = plan_hybrid(16, 2, 1.5);
        let many = plan_hybrid(16, 8, 1.5);
        assert!(many.relative_makespan <= few.relative_makespan);
    }
}
