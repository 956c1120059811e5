//! Bridges simulated-GPU profiler aggregates onto the unified telemetry
//! timeline.
//!
//! The GPU model runs in *simulated* time: kernel durations come from the
//! analytical device model, not from the wall clock the CPU spans measure.
//! [`bridge_profiler`] lays each kernel's aggregate out as a completed span
//! on a named synthetic track (tid ≥ `EXTERNAL_TID_BASE` in the exported
//! Chrome trace), so a `repro --trace-out` capture shows the simulated
//! kernel mix next to the real CPU spans. Kernels are placed back to back
//! from the bridge call's timestamp, in profiler (name) order — the track
//! visualizes *relative* kernel cost, not true concurrency.

use crate::profiler::Profiler;

/// The synthetic track name bridged kernel spans appear under.
pub const GPU_TRACK: &str = "gpusim";

/// Exports every kernel aggregate in `profiler` to the telemetry collector:
/// one span per kernel (duration = total simulated seconds) laid
/// sequentially on the [`GPU_TRACK`] timeline, plus per-kernel invocation
/// counters and simulated-time histogram entries.
///
/// Returns the number of kernels bridged. No-op (returning 0) when
/// telemetry is off; spans additionally require `full` mode, counters work
/// in `summary` too — both gates live inside the telemetry crate, so this
/// is cheap to call unconditionally at end of run.
pub fn bridge_profiler(profiler: &Profiler) -> usize {
    let mut bridged = 0;
    let mut cursor_ns = holoar_telemetry::now_ns();
    for (name, agg) in profiler.iter() {
        let dur_ns = (agg.total_time * 1e9).max(0.0) as u64;
        holoar_telemetry::record_external_span(
            GPU_TRACK,
            format!("gpu.{name}"),
            "gpu",
            cursor_ns,
            dur_ns,
        );
        cursor_ns = cursor_ns.saturating_add(dur_ns);
        holoar_telemetry::counter_add(&format!("gpusim.kernel.{name}.launches"), agg.invocations);
        holoar_telemetry::histogram_record_us(
            &format!("gpusim.kernel.{name}.sim_time_us"),
            agg.total_time * 1e6,
        );
        bridged += 1;
    }
    holoar_telemetry::counter_add("gpusim.kernels.bridged", bridged as u64);
    bridged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::{InstructionMix, KernelDesc};

    fn profiler_with(names: &[&str]) -> Profiler {
        let device = Device::xavier();
        let mut profiler = Profiler::new();
        for name in names {
            let k = KernelDesc::new(
                *name,
                32,
                256,
                InstructionMix { flops: 20.0, loads: 4.0, stores: 2.0, ..Default::default() },
            );
            profiler.record(&device.execute(&k));
        }
        profiler
    }

    #[test]
    fn bridges_one_entry_per_kernel() {
        let profiler = profiler_with(&["fwd", "bwd", "fwd"]);
        assert_eq!(bridge_profiler(&profiler), 2, "aggregated by name");
    }

    #[test]
    fn empty_profiler_bridges_nothing() {
        assert_eq!(bridge_profiler(&Profiler::new()), 0);
    }
}
