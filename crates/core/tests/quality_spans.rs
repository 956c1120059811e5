//! Span shape of the memoized quality path: one `core.quality.object_psnr`
//! span per score computed, none for a memo hit or a full budget, and never
//! one inside another. Span capture is process-wide, so these checks live
//! in their own test binary and run as one test.

use holoar_core::quality::PsnrMemo;
use holoar_core::{ExecutionContext, HoloArConfig};
use holoar_sensors::angles::AngularPoint;
use holoar_sensors::objectron::ObjectAnnotation;
use holoar_telemetry::TelemetryMode;

const SPAN: &str = "core.quality.object_psnr";

#[test]
fn each_computed_score_records_one_unnested_span() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    holoar_telemetry::reset();
    let config = HoloArConfig::default();
    let ctx = ExecutionContext::with_workers(2);
    let object = |track_id| ObjectAnnotation {
        track_id,
        direction: AngularPoint::CENTER,
        distance: 0.7,
        size: 0.2,
    };
    let mut memo = PsnrMemo::new();
    for _ in 0..2 {
        for planes in [1, 4, 9, 16] {
            // Track ids 1 and 7 show the same virtual object.
            memo.object_psnr(&object(1), planes, &config, &ctx);
            memo.object_psnr(&object(7), planes, &config, &ctx);
        }
    }
    let spans = holoar_telemetry::span_snapshot();
    holoar_telemetry::set_mode(previous);

    let ancestors = |span: &holoar_telemetry::SpanRecord| {
        let mut names = Vec::new();
        let mut parent = span.parent;
        while let Some(enclosing) =
            parent.and_then(|id| spans.iter().find(|s| s.tid == span.tid && s.id == id))
        {
            names.push(enclosing.name.clone());
            parent = enclosing.parent;
        }
        names
    };
    let scores: Vec<_> = spans.iter().filter(|s| s.name == SPAN).collect();
    assert_eq!(scores.len(), 3, "one span per computed score (1, 4 and 9 planes)");
    for score in &scores {
        assert!(!ancestors(score).iter().any(|name| name == SPAN), "a score span nests");
    }
    // Every reconstruction, the reference's included, runs inside a score.
    let propagations: Vec<_> =
        spans.iter().filter(|s| s.name == "optics.propagate_batch_window").collect();
    assert!(!propagations.is_empty());
    for propagation in propagations {
        assert!(ancestors(propagation).iter().any(|name| name == SPAN), "work outside a score");
    }
}
