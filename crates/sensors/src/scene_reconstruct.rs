//! Scene reconstruction — the InfiniTAM \[50\] substitute.
//!
//! In the paper's pipeline characterization (Fig 2), scene reconstruction
//! fuses RGB-D frames into a consistent map, costs ~120 ms per run, and only
//! needs to run once every 2–3 frames (Table 1 allows 100 ms). The HoloAR
//! schemes themselves never read the map — it appears only in the pipeline
//! experiment — so the substitute is its published cost/cadence model.

/// Published characteristics of the substituted reconstruction.
pub mod spec {
    /// Measured execution latency on the edge GPU, seconds (§2.2.1).
    pub const LATENCY: f64 = 0.120;
    /// Table 1 ideal latency, seconds (run once per 2–3 frames).
    pub const DEADLINE: f64 = 0.100;
    /// Frames between runs (the paper cites once per 2–3 frames).
    pub const FRAME_CADENCE: u64 = 3;
}
