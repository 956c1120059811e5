//! End-to-end reproduction bands: the paper's headline numbers (Fig 7,
//! Fig 8b, §5.3) must hold in *shape* — who wins, by roughly what factor —
//! across the full 6-video × 4-scheme matrix.

use holoar::core::{evaluation, Horn8Model, Scheme};
use holoar::gpusim::Device;
use holoar::sensors::objectron::VideoCategory;

fn matrix() -> evaluation::EvaluationMatrix {
    evaluation::evaluate_matrix(&Device::xavier(), 120, 42)
}

#[test]
fn fig7b_speedups_land_in_paper_bands() {
    let m = matrix();
    // Paper: 1.15x / 2.42x / 2.68x.
    let inter = m.fleet_speedup(Scheme::InterHolo);
    let intra = m.fleet_speedup(Scheme::IntraHolo);
    let both = m.fleet_speedup(Scheme::InterIntraHolo);
    assert!((1.05..1.35).contains(&inter), "Inter-Holo speedup {inter:.2} vs paper 1.15");
    assert!((2.0..2.9).contains(&intra), "Intra-Holo speedup {intra:.2} vs paper 2.42");
    assert!((2.2..3.1).contains(&both), "Inter-Intra speedup {both:.2} vs paper 2.68");
    // Ordering: combined ≥ intra ≥ inter.
    assert!(both >= intra && intra > inter);
}

#[test]
fn fig7a_power_reductions_land_in_paper_bands() {
    let m = matrix();
    // Paper: 3.86% / 27.72% / 28.95%.
    let inter = m.fleet_power_reduction(Scheme::InterHolo);
    let intra = m.fleet_power_reduction(Scheme::IntraHolo);
    let both = m.fleet_power_reduction(Scheme::InterIntraHolo);
    assert!((0.01..0.08).contains(&inter), "Inter power reduction {inter:.3} vs paper 0.039");
    assert!((0.22..0.33).contains(&intra), "Intra power reduction {intra:.3} vs paper 0.277");
    assert!((0.24..0.35).contains(&both), "combined power reduction {both:.3} vs paper 0.290");
    assert!(both > inter);
}

#[test]
fn fig7c_energy_savings_land_in_paper_bands() {
    let m = matrix();
    // Paper: 18% / 70% / 73%.
    let inter = m.fleet_energy_savings(Scheme::InterHolo);
    let intra = m.fleet_energy_savings(Scheme::IntraHolo);
    let both = m.fleet_energy_savings(Scheme::InterIntraHolo);
    assert!((0.08..0.25).contains(&inter), "Inter energy savings {inter:.2} vs paper 0.18");
    assert!((0.60..0.78).contains(&intra), "Intra energy savings {intra:.2} vs paper 0.70");
    assert!((0.63..0.80).contains(&both), "combined energy savings {both:.2} vs paper 0.73");
    assert!(both > intra && intra > inter);
}

#[test]
fn fig8b_plane_counts_shrink_like_the_paper() {
    let m = matrix();
    // Paper: 23.6 → 19.8 → 7.1 → 6.7.
    let base = m.fleet_mean(Scheme::Baseline, |c| c.mean_planes);
    let inter = m.fleet_mean(Scheme::InterHolo, |c| c.mean_planes);
    let intra = m.fleet_mean(Scheme::IntraHolo, |c| c.mean_planes);
    let both = m.fleet_mean(Scheme::InterIntraHolo, |c| c.mean_planes);
    assert!((17.0..26.0).contains(&base), "baseline planes {base:.1} vs paper 23.6");
    assert!((14.0..22.0).contains(&inter), "inter planes {inter:.1} vs paper 19.8");
    assert!((5.0..9.0).contains(&intra), "intra planes {intra:.1} vs paper 7.1");
    assert!((4.5..8.5).contains(&both), "combined planes {both:.1} vs paper 6.7");
    assert!(base > inter && inter > intra && intra >= both);
}

#[test]
fn per_video_extremes_match_the_paper() {
    // §5.3: shoe gains the most from approximation, bike the least.
    let m = matrix();
    let reduction = |v: VideoCategory| {
        let base = m.cell(v, Scheme::Baseline).unwrap().mean_latency;
        let both = m.cell(v, Scheme::InterIntraHolo).unwrap().mean_latency;
        1.0 - both / base
    };
    let reductions: Vec<(VideoCategory, f64)> =
        VideoCategory::ALL.iter().map(|&v| (v, reduction(v))).collect();
    let best = reductions.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    let worst = reductions.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    assert_eq!(best.0, VideoCategory::Shoe, "best should be shoe, got {:?}", best.0);
    assert!(
        matches!(worst.0, VideoCategory::Bike | VideoCategory::Bottle),
        "worst should be a sparse/large-object video, got {:?}",
        worst.0
    );
    // Paper: shoe 73% / bike 36% latency reduction for Inter-Intra-Holo.
    assert!((0.60..0.85).contains(&best.1), "shoe reduction {:.2} vs paper 0.73", best.1);
    assert!((0.25..0.60).contains(&worst.1), "worst reduction {:.2} vs paper 0.36", worst.1);
}

#[test]
fn horn8_comparison_matches_section_5_3() {
    let m = matrix();
    let horn8 = Horn8Model::default();
    // The paper: HoloAR saves ~25% more of baseline energy than HORN-8.
    let advantage = horn8.holoar_advantage(&m);
    assert!(
        (0.12..0.35).contains(&advantage),
        "HoloAR advantage over HORN-8 {advantage:.2} vs paper ~0.25"
    );
}
