//! The user's composed view: every planned object's reconstruction placed
//! at its angular position in the display's field of view.
//!
//! This is the Fig 1a end product — what the headset actually shows. Each
//! computed (or reused) object is reconstructed at its plane budget through
//! the quality path, scaled to its apparent angular size, and splatted into
//! a viewport image. The compositor makes approximation *visible*: an
//! unattended far object rendered from 2 planes sits softly in the
//! periphery while the attended object stays crisp.

use crate::planner::PlanItem;
use crate::quality::{virtual_object_for, OPTICAL_SCALE};
use holoar_fft::ExecutionContext;
use holoar_optics::{reconstruct, OpticalConfig, Propagator};
use holoar_sensors::angles::AngularRect;

/// A rendered viewport: row-major luminance in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewportImage {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major luminance.
    pub pixels: Vec<f64>,
}

impl ViewportImage {
    /// Total luminance (how much hologram light the view contains).
    pub fn total_luminance(&self) -> f64 {
        self.pixels.iter().sum()
    }
}

/// Renders the composed view of a frame's plan.
///
/// Objects with zero planes and zero coverage (outside the window) do not
/// appear. Reused objects render at their cached budget — they are still
/// displayed, just not recomputed.
///
/// Per-object reconstruction fans out over the context's worker pool —
/// whole-frame synthesis parallelizes across objects while the viewport
/// splat stays serial in plan order, so the image is bit-identical for
/// every worker count.
///
/// # Panics
///
/// Panics if viewport dimensions are zero.
pub fn render_view(
    items: &[PlanItem],
    window: &AngularRect,
    rows: usize,
    cols: usize,
    ctx: &ExecutionContext,
) -> ViewportImage {
    let par = ctx.parallelism();
    assert!(rows > 0 && cols > 0, "viewport must be non-empty");
    let _span = holoar_telemetry::span_cat("core.view.render_view", "core");
    let mut pixels = vec![0.0f64; rows * cols];
    let optics = OpticalConfig::default();
    const TILE: usize = 24;
    // Workers run serial FFTs (the fan-out is across objects) but share one
    // transfer-function cache through cloned propagators.
    let prop = Propagator::new();

    // Stage 1: reconstruct every displayed object's tile concurrently.
    let tiles: Vec<Option<Vec<f64>>> = par.map(items, |item| {
        if item.planes == 0 || item.coverage <= 0.0 {
            return None;
        }
        let _tile_span = holoar_telemetry::span_cat("core.view.tile", "core");
        let obj = &item.object;
        let z = (obj.distance * OPTICAL_SCALE).max(0.001);
        let extent = (obj.size * OPTICAL_SCALE).min(z * 0.8);
        let depthmap = virtual_object_for(obj.track_id).render(TILE, TILE, z, extent);
        let stack = depthmap.slice(item.planes as usize, optics);
        let mut prop = prop.clone();
        let mut images = reconstruct::incoherent_focal_stack(&stack, &[z], &mut prop);
        Some(images.swap_remove(0))
    });

    // Stage 2: splat serially, in plan order.
    for (item, tile) in items.iter().zip(&tiles) {
        let Some(tile) = tile else {
            continue;
        };
        let obj = &item.object;
        let peak = tile.iter().cloned().fold(0.0, f64::max).max(f64::MIN_POSITIVE);

        // Angular footprint → pixel footprint.
        let half_w = window.width / 2.0;
        let half_h = window.height / 2.0;
        let cx = ((obj.direction.azimuth - window.center.azimuth + half_w)
            / window.width
            * cols as f64)
            .round();
        let cy = ((-(obj.direction.elevation - window.center.elevation) + half_h)
            / window.height
            * rows as f64)
            .round();
        let radius = obj.angular_radius();
        let px_w = ((2.0 * radius / window.width) * cols as f64).max(2.0);
        let px_h = ((2.0 * radius / window.height) * rows as f64).max(2.0);

        // Splat the tile (nearest-neighbour) into the viewport; brightness
        // falls off with distance (inverse-square, normalized at 0.5 m).
        let brightness = (0.5 / obj.distance.max(0.1)).powi(2).min(1.0);
        let (w, h) = (px_w as isize, px_h as isize);
        for dy in 0..h {
            for dx in 0..w {
                let vr = cy as isize - h / 2 + dy;
                let vc = cx as isize - w / 2 + dx;
                if vr < 0 || vc < 0 || vr >= rows as isize || vc >= cols as isize {
                    continue;
                }
                let tr = (dy as f64 / h as f64 * TILE as f64) as usize;
                let tc = (dx as f64 / w as f64 * TILE as f64) as usize;
                let v = tile[tr.min(TILE - 1) * TILE + tc.min(TILE - 1)] / peak * brightness;
                let idx = vr as usize * cols + vc as usize;
                pixels[idx] = pixels[idx].max(v);
            }
        }
    }
    ViewportImage { rows, cols, pixels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HoloArConfig, Scheme};
    use crate::planner::PlanItem;
    use holoar_sensors::angles::{deg, AngularPoint};
    use holoar_sensors::objectron::ObjectAnnotation;

    fn ctx() -> ExecutionContext {
        ExecutionContext::serial()
    }

    /// Luminance of `v` inside an axis-aligned pixel box.
    fn luminance_in(v: &ViewportImage, row0: usize, col0: usize, rows: usize, cols: usize) -> f64 {
        assert!(row0 + rows <= v.rows && col0 + cols <= v.cols, "box out of bounds");
        let mut sum = 0.0;
        for r in row0..row0 + rows {
            for c in col0..col0 + cols {
                sum += v.pixels[r * v.cols + c];
            }
        }
        sum
    }

    fn window() -> AngularRect {
        AngularRect::new(AngularPoint::CENTER, deg(43.0), deg(29.0))
    }

    fn item(az_deg: f64, el_deg: f64, planes: u32) -> PlanItem {
        PlanItem {
            object: ObjectAnnotation {
                track_id: 3, // Planet
                direction: AngularPoint::new(deg(az_deg), deg(el_deg)),
                distance: 0.6,
                size: 0.25,
            },
            planes,
            coverage: 1.0,
            in_rof: true,
            reused: false,
        }
    }

    #[test]
    fn empty_plan_renders_black() {
        let v = render_view(&[], &window(), 32, 48, &ctx());
        assert_eq!(v.total_luminance(), 0.0);
        assert_eq!(v.pixels.len(), 32 * 48);
    }

    #[test]
    fn skipped_objects_do_not_appear() {
        let mut it = item(0.0, 0.0, 0);
        it.coverage = 0.0;
        let v = render_view(&[it], &window(), 32, 48, &ctx());
        assert_eq!(v.total_luminance(), 0.0);
    }

    #[test]
    fn centered_object_lights_the_center() {
        let v = render_view(&[item(0.0, 0.0, 8)], &window(), 32, 48, &ctx());
        assert!(v.total_luminance() > 0.0);
        let center = luminance_in(&v, 12, 18, 8, 12);
        let corner = luminance_in(&v, 0, 0, 8, 12);
        assert!(center > corner, "center {center} vs corner {corner}");
    }

    #[test]
    fn object_position_maps_to_viewport_side() {
        let v =
            render_view(&[item(15.0, 0.0, 8)], &window(), 32, 48, &ctx());
        let right = luminance_in(&v, 8, 24, 16, 24);
        let left = luminance_in(&v, 8, 0, 16, 24);
        assert!(right > left, "right {right} vs left {left}");
    }

    #[test]
    fn closer_objects_are_brighter() {
        let near = {
            let mut it = item(0.0, 0.0, 8);
            it.object.distance = 0.4;
            render_view(&[it], &window(), 32, 48, &ctx())
        };
        let far = {
            let mut it = item(0.0, 0.0, 8);
            it.object.distance = 1.6;
            render_view(&[it], &window(), 32, 48, &ctx())
        };
        assert!(near.total_luminance() > far.total_luminance());
    }

    #[test]
    fn full_plan_composites_multiple_objects() {
        let mut planner = crate::planner::Planner::new(HoloArConfig::for_scheme(
            Scheme::InterIntraHolo,
        ))
        .unwrap();
        let frame = holoar_sensors::objectron::Frame {
            index: 0,
            objects: vec![item(-8.0, 0.0, 0).object, {
                let mut o = item(8.0, 3.0, 0).object;
                o.track_id = 5;
                o
            }],
        };
        let pose = holoar_sensors::pose::PoseEstimate {
            orientation: AngularPoint::CENTER,
            latency: 0.01375,
        };
        let plan = planner.plan_frame(&frame, &pose, AngularPoint::new(deg(-8.0), 0.0), 0.0);
        let v = render_view(&plan.items, &pose.viewing_window(), 32, 48, &ctx());
        assert!(v.total_luminance() > 0.0);
        // Both sides of the view carry light.
        assert!(luminance_in(&v, 0, 0, 32, 24) > 0.0);
        assert!(luminance_in(&v, 0, 24, 32, 24) > 0.0);
    }

    #[test]
    fn parallel_render_is_bit_identical_to_serial() {
        let items = [item(-8.0, 0.0, 8), item(8.0, 3.0, 4), item(0.0, -5.0, 2)];
        let serial = render_view(&items, &window(), 32, 48, &ctx());
        for workers in [2usize, 7] {
            let par = render_view(
                &items,
                &window(),
                32,
                48,
                &ExecutionContext::with_workers(workers),
            );
            assert_eq!(par, serial, "workers {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "viewport must be non-empty")]
    fn zero_viewport_panics() {
        render_view(&[], &window(), 0, 10, &ctx());
    }
}
