//! Per-session SLO tracking: latency quantile sketches, error-budget
//! accounting, multi-window burn-rate alerts, and per-frame critical-path
//! profiles.
//!
//! The serving layer's promise is an availability-style SLO — "X% of
//! frames meet the 90 Hz budget". This module does the bookkeeping the SRE
//! literature prescribes for such objectives, but over **frame index**
//! instead of wall clock so every signal replays bit-identically:
//!
//! - an error budget: a run of `N` frames at target `t` may miss at most
//!   `(1 − t) × N` deadlines; [`SloTracker::error_budget_remaining`] reports
//!   the unspent fraction (negative once overdrawn);
//! - multi-window burn rates: the miss rate over a fast (recent) and a slow
//!   (sustained) window, each normalized by the budgeted miss rate `1 − t`.
//!   Crossing a window's threshold emits one edge-triggered [`BurnEvent`]
//!   (re-armed when the burn drops back under), mirroring Google-style
//!   fast/slow-burn paging rules;
//! - a [`QuantileSketch`] of completion latencies, so per-session p50/p99/
//!   p99.9 are exact-to-α and *mergeable* into fleet quantiles;
//! - synthesized per-frame span trees ([`record_frame_spans`]) built from
//!   the simulated stage timings, so a missed deadline names the stage on
//!   its critical path (own batch share, co-tenant queue wait, fault
//!   stretch, injected overrun, or reprojection).

use std::borrow::Cow;

use holoar_core::degrade::Transition;
use holoar_telemetry::{QuantileSketch, SlidingWindow, SpanRecord, SpanTreeAnalysis};

/// Synthesized span-tree names: the per-frame root.
pub const PROFILE_FRAME: &str = "profile.frame";
/// Stage: this session's own share of the merged batch.
pub const STAGE_BATCH: &str = "profile.stage.batch";
/// Stage: waiting on co-tenants' share of the merged batch.
pub const STAGE_QUEUE_WAIT: &str = "profile.stage.queue_wait";
/// Stage: extra time from the session's injected clock/DRAM derating.
pub const STAGE_FAULT_STRETCH: &str = "profile.stage.fault_stretch";
/// Stage: the session's injected stage overrun.
pub const STAGE_OVERRUN: &str = "profile.stage.overrun";
/// Stage: stale-hologram reprojection (deferred or last-good frames).
pub const STAGE_REPROJECT: &str = "profile.stage.reproject";

/// Deadline-hit objective: the fraction of frames that must meet the
/// budget.
pub const TARGET: f64 = 0.95;
/// Fast (paging-speed) burn window, frames.
pub const FAST_WINDOW: usize = 16;
/// Slow (sustained) burn window, frames.
pub const SLOW_WINDOW: usize = 64;
/// Fast-window burn-rate alert threshold (multiples of the budgeted miss
/// rate `1 − TARGET`).
pub const FAST_BURN: f64 = 4.0;
/// Slow-window burn-rate alert threshold.
pub const SLOW_BURN: f64 = 1.5;
/// Relative-error bound for the latency quantile sketches.
pub const SKETCH_ALPHA: f64 = 0.01;

/// One edge-triggered burn-rate alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnEvent {
    /// Frame index at which the window's burn rate crossed its threshold.
    pub frame: u64,
    /// Which window tripped: `"fast"` or `"slow"`.
    pub window: &'static str,
    /// The burn rate at the crossing (window miss rate over `1 − target`).
    pub burn_rate: f64,
    /// Error budget remaining at the crossing (fraction of the whole-run
    /// budget; negative when overdrawn).
    pub budget_remaining: f64,
}

/// Per-session SLO bookkeeping, advanced once per tick via
/// [`observe`](SloTracker::observe).
#[derive(Debug, Clone)]
pub struct SloTracker {
    fast: SlidingWindow,
    slow: SlidingWindow,
    latency: QuantileSketch,
    frames: u64,
    misses: u64,
    events: Vec<BurnEvent>,
    fast_alerting: bool,
    slow_alerting: bool,
}

impl Default for SloTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SloTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        SloTracker {
            fast: SlidingWindow::new(FAST_WINDOW),
            slow: SlidingWindow::new(SLOW_WINDOW),
            latency: QuantileSketch::new(SKETCH_ALPHA),
            frames: 0,
            misses: 0,
            events: Vec::new(),
            fast_alerting: false,
            slow_alerting: false,
        }
    }

    /// Feeds one frame outcome: whether it met the deadline and its
    /// completion latency in seconds. Emits burn-rate alerts (as recorded
    /// [`BurnEvent`]s and `slo.burn.*` telemetry counters) on threshold
    /// crossings.
    pub fn observe(&mut self, frame: u64, hit: bool, latency_s: f64) {
        self.frames += 1;
        if !hit {
            self.misses += 1;
        }
        let miss = if hit { 0.0 } else { 1.0 };
        self.fast.push(frame, miss);
        self.slow.push(frame, miss);
        self.latency.record(latency_s);

        // Edge-triggered multi-window alerts. A window only speaks once it
        // is full — a cold window's miss rate is too noisy to page on.
        let budgeted_miss = 1.0 - TARGET;
        for (window, threshold, alerting, name) in [
            (&self.fast, FAST_BURN, &mut self.fast_alerting, "fast"),
            (&self.slow, SLOW_BURN, &mut self.slow_alerting, "slow"),
        ] {
            if !window.is_full() {
                continue;
            }
            let burn_rate = window.mean().unwrap_or(0.0) / budgeted_miss;
            if burn_rate > threshold {
                if !*alerting {
                    *alerting = true;
                    let budget_remaining = 1.0
                        - self.misses as f64 / (budgeted_miss * self.frames as f64);
                    self.events.push(BurnEvent {
                        frame,
                        window: name,
                        burn_rate,
                        budget_remaining,
                    });
                    if name == "fast" {
                        holoar_telemetry::counter_add("slo.burn.fast", 1);
                    } else {
                        holoar_telemetry::counter_add("slo.burn.slow", 1);
                    }
                }
            } else {
                *alerting = false;
            }
        }
    }

    /// Frames observed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Deadline misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Unspent fraction of the error budget: `1 − misses / ((1 − target) ×
    /// frames)`. `1.0` before any frame; negative once overdrawn.
    pub fn error_budget_remaining(&self) -> f64 {
        if self.frames == 0 {
            return 1.0;
        }
        1.0 - self.misses as f64 / ((1.0 - TARGET) * self.frames as f64)
    }

    /// Every burn-rate alert recorded, in frame order.
    pub fn burn_events(&self) -> &[BurnEvent] {
        &self.events
    }

    /// The completion-latency sketch (seconds) — mergeable across sessions.
    pub fn latency_sketch(&self) -> &QuantileSketch {
        &self.latency
    }
}

/// Per-session SLO summary published in the serving report.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSlo {
    /// Median completion latency, seconds (sketch estimate).
    pub latency_p50: f64,
    /// 90th-percentile completion latency, seconds.
    pub latency_p90: f64,
    /// 99th-percentile completion latency, seconds.
    pub latency_p99: f64,
    /// 99.9th-percentile completion latency, seconds.
    pub latency_p999: f64,
    /// Unspent error-budget fraction (negative when overdrawn).
    pub error_budget_remaining: f64,
    /// Burn-rate alerts, in frame order.
    pub burn_events: Vec<BurnEvent>,
    /// Degradation step-downs (deeper level), each carrying the recorded
    /// SLO signal that triggered it.
    pub step_downs: Vec<Transition>,
    /// Mean degradation-level index over the most recent window.
    pub recent_level: f64,
    /// Total time attributed to each profile stage across the run, heaviest
    /// first.
    pub stages: Vec<StageBreakdown>,
    /// Tick index of the slowest frame.
    pub worst_frame: u64,
    /// The slowest frame's duration, seconds.
    pub worst_frame_latency: f64,
    /// The slowest frame's critical path: `(stage, seconds)` hops from the
    /// frame root down the dominating children.
    pub worst_frame_path: Vec<(String, f64)>,
}

/// One row of a session's stage-time breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// Profile stage name (`profile.stage.*`).
    pub stage: String,
    /// Total attributed time across the run, seconds.
    pub total_s: f64,
    /// Fraction of the session's total attributed time.
    pub share: f64,
}

/// Fleet-level SLO summary: merged quantiles and pooled budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSlo {
    /// The deadline-hit objective the run was tracked against.
    pub target: f64,
    /// Sketch relative-error bound for the quantile fields.
    pub sketch_alpha: f64,
    /// Fleet median completion latency, seconds (merged sketch).
    pub latency_p50: f64,
    /// Fleet 90th-percentile completion latency, seconds.
    pub latency_p90: f64,
    /// Fleet 99th-percentile completion latency, seconds.
    pub latency_p99: f64,
    /// Fleet 99.9th-percentile completion latency, seconds.
    pub latency_p999: f64,
    /// Pooled unspent error-budget fraction.
    pub error_budget_remaining: f64,
    /// Fast-window burn alerts across all sessions.
    pub fast_burn_events: u64,
    /// Slow-window burn alerts across all sessions.
    pub slow_burn_events: u64,
    /// Fleet deadline-hit rate over the most recent window of ticks.
    pub recent_hit_rate: f64,
    /// Mean deferred-session count over the most recent window of ticks.
    pub recent_queue_depth: f64,
    /// Mean device occupancy over the most recent window of ticks.
    pub recent_occupancy: f64,
}

/// Nanoseconds for a span duration in seconds (non-negative, rounded).
fn span_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9).round() as u64
}

/// Appends the synthesized span tree for one frame: a `profile.frame` root
/// whose children are the `(stage, seconds)` components, laid out
/// back-to-back from `tick × budget` so the trace timeline matches the
/// simulated schedule. The root's duration is the exact sum of its
/// children, keeping self-times an exact partition. Ids are derived from
/// the tick, so each session's profile is self-consistent and replayable.
pub fn record_frame_spans(
    profile: &mut Vec<SpanRecord>,
    session: u32,
    tick: u64,
    frame_budget: f64,
    stages: &[(&'static str, f64)],
) {
    let start = tick.saturating_mul(span_ns(frame_budget));
    // Up to 8 spans per tick keeps ids unique and monotone per session.
    let base_id = (tick.saturating_mul(8) + 1).min(u64::from(u32::MAX)) as u32;
    let mut cursor = start;
    let mut total = 0u64;
    let mut children = Vec::with_capacity(stages.len());
    for (offset, &(stage, seconds)) in stages.iter().enumerate() {
        let dur = span_ns(seconds);
        children.push(SpanRecord {
            name: Cow::Borrowed(stage),
            cat: "profile",
            tid: session,
            id: base_id + 1 + offset as u32,
            parent: Some(base_id),
            start_ns: cursor,
            dur_ns: dur,
        });
        cursor += dur;
        total += dur;
    }
    profile.push(SpanRecord {
        name: Cow::Borrowed(PROFILE_FRAME),
        cat: "profile",
        tid: session,
        id: base_id,
        parent: None,
        start_ns: start,
        dur_ns: total,
    });
    profile.extend(children);
}

/// Builds the [`SessionSlo`] summary from a session's tracker, synthesized
/// profile spans, and recorded controller transitions.
pub(crate) fn session_slo(
    tracker: &SloTracker,
    profile: &[SpanRecord],
    transitions: &[Transition],
    level_window: &SlidingWindow,
    frame_budget: f64,
) -> SessionSlo {
    let sketch = tracker.latency_sketch();
    let tree = SpanTreeAnalysis::new(profile);

    // Stage totals: every non-root span is a leaf stage.
    let mut stages: Vec<StageBreakdown> = tree
        .self_time_by_name()
        .into_iter()
        .filter(|row| row.name != PROFILE_FRAME)
        .map(|row| StageBreakdown {
            stage: row.name,
            total_s: row.self_ns as f64 / 1e9,
            share: 0.0,
        })
        .collect();
    let total: f64 = stages.iter().map(|s| s.total_s).sum();
    for s in &mut stages {
        s.share = if total > 0.0 { s.total_s / total } else { 0.0 };
    }

    let worst = tree.worst_root(PROFILE_FRAME);
    let budget_ns = span_ns(frame_budget).max(1);
    let (worst_frame, worst_frame_latency, worst_frame_path) = match worst {
        Some(root) => (
            root.start_ns / budget_ns,
            root.dur_ns as f64 / 1e9,
            tree.critical_path(root.id)
                .into_iter()
                .map(|s| (s.name.to_string(), s.dur_ns as f64 / 1e9))
                .collect(),
        ),
        None => (0, 0.0, Vec::new()),
    };

    SessionSlo {
        latency_p50: sketch.p50().unwrap_or(0.0),
        latency_p90: sketch.p90().unwrap_or(0.0),
        latency_p99: sketch.p99().unwrap_or(0.0),
        latency_p999: sketch.p999().unwrap_or(0.0),
        error_budget_remaining: tracker.error_budget_remaining(),
        burn_events: tracker.burn_events().to_vec(),
        step_downs: transitions
            .iter()
            .filter(|t| t.to.index() > t.from.index())
            .copied()
            .collect(),
        recent_level: level_window.mean().unwrap_or(0.0),
        stages,
        worst_frame,
        worst_frame_latency,
        worst_frame_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> SloTracker {
        SloTracker::new()
    }

    #[test]
    fn budget_accounting_matches_the_definition() {
        let mut t = tracker();
        assert_eq!(t.error_budget_remaining(), 1.0);
        // 100 frames at 5% target miss budget: 5 misses spend it exactly.
        for frame in 0..100u64 {
            t.observe(frame, frame % 20 != 0, 0.01);
        }
        assert_eq!(t.misses(), 5);
        assert!(t.error_budget_remaining().abs() < 1e-12);
        // Further misses overdraw it below zero.
        for frame in 100..110u64 {
            t.observe(frame, false, 0.02);
        }
        assert!(t.error_budget_remaining() < 0.0);
    }

    #[test]
    fn burn_alerts_are_edge_triggered_per_window() {
        let mut t = tracker();
        // Warm both windows clean, then a hard outage: every frame misses.
        for frame in 0..64u64 {
            t.observe(frame, true, 0.01);
        }
        for frame in 64..160u64 {
            t.observe(frame, false, 0.03);
        }
        let fast: Vec<&BurnEvent> =
            t.burn_events().iter().filter(|e| e.window == "fast").collect();
        let slow: Vec<&BurnEvent> =
            t.burn_events().iter().filter(|e| e.window == "slow").collect();
        assert_eq!(fast.len(), 1, "sustained outage must page fast exactly once");
        assert_eq!(slow.len(), 1, "sustained outage must page slow exactly once");
        assert!(fast[0].frame < slow[0].frame, "the fast window pages first");
        assert!(fast[0].burn_rate > FAST_BURN);
        // Recovery re-arms the alert; a second outage pages again.
        for frame in 160..260u64 {
            t.observe(frame, true, 0.01);
        }
        for frame in 260..300u64 {
            t.observe(frame, false, 0.03);
        }
        let fast_after: usize =
            t.burn_events().iter().filter(|e| e.window == "fast").count();
        assert_eq!(fast_after, 2, "a fresh outage must re-trigger the fast alert");
    }

    #[test]
    fn latency_sketch_tracks_quantiles() {
        let mut t = tracker();
        for frame in 0..1000u64 {
            t.observe(frame, true, (frame + 1) as f64 * 1e-5);
        }
        let p50 = t.latency_sketch().p50().unwrap();
        let p999 = t.latency_sketch().p999().unwrap();
        // Exact nearest-rank p50 of 1e-5 … 1e-2 is 0.005; the sketch is
        // within its 1% relative-error bound of it.
        assert!((p50 - 0.005).abs() <= 0.005 * 0.01 + 1e-9, "p50 {p50}");
        assert!(p999 > p50);
    }

    #[test]
    fn frame_spans_partition_and_name_the_critical_stage() {
        let mut profile = Vec::new();
        record_frame_spans(
            &mut profile,
            3,
            7,
            0.011,
            &[(STAGE_BATCH, 0.004), (STAGE_QUEUE_WAIT, 0.006), (STAGE_OVERRUN, 0.002)],
        );
        assert_eq!(profile.len(), 4);
        let tree = SpanTreeAnalysis::new(&profile);
        let root = tree.worst_root(PROFILE_FRAME).unwrap();
        assert_eq!(root.dur_ns, 12_000_000);
        let path = tree.critical_path(root.id);
        assert_eq!(path.last().unwrap().name, STAGE_QUEUE_WAIT);
        // Self-times partition the root exactly.
        let rows = tree.self_time_by_name();
        let self_total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_total, root.dur_ns);
    }

    #[test]
    fn session_slo_summarizes_stages_and_worst_frame() {
        let mut t = tracker();
        let mut profile = Vec::new();
        let budget = 0.011;
        for tick in 0..20u64 {
            let batch = if tick == 13 { 0.018 } else { 0.006 };
            let hit = batch <= budget;
            t.observe(tick, hit, batch);
            record_frame_spans(
                &mut profile,
                0,
                tick,
                budget,
                &[(STAGE_BATCH, batch * 0.4), (STAGE_QUEUE_WAIT, batch * 0.6)],
            );
        }
        let window = SlidingWindow::new(8);
        let slo = session_slo(&t, &profile, &[], &window, budget);
        assert_eq!(slo.worst_frame, 13);
        assert!((slo.worst_frame_latency - 0.018).abs() < 1e-9);
        assert_eq!(slo.worst_frame_path.first().unwrap().0, PROFILE_FRAME);
        assert_eq!(slo.worst_frame_path.last().unwrap().0, STAGE_QUEUE_WAIT);
        assert_eq!(slo.stages.len(), 2);
        assert!((slo.stages.iter().map(|s| s.share).sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(slo.latency_p999 >= slo.latency_p50);
        assert!(slo.step_downs.is_empty());
    }
}
