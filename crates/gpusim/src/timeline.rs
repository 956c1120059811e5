//! Event-driven execution timeline: streams, block scheduling and
//! occupancy over time.
//!
//! The closed-form model in [`crate::device`] charges each kernel its total
//! cycles; this module simulates the same workload *over time*: kernels are
//! enqueued on streams (per-plane streams, the way a CUDA implementation of
//! Algorithm 1 would overlap independent depth planes), blocks from every
//! ready kernel compete for SM block slots, and the simulator advances
//! through block-retirement events. The output is a timeline — occupancy
//! samples, per-kernel start/end, makespan — which exposes *why* plane-level
//! parallelism raises sustained utilization (the Fig 8a activity mechanism)
//! instead of assuming it.

use crate::config::DeviceConfig;
use crate::device::expect_block_cost;
use crate::hologram_kernels::{plane_grid_blocks, propagation_kernel, HologramJob, Step};
use crate::kernel::KernelDesc;
use crate::sm::co_resident_blocks;

/// One kernel enqueued on a stream.
#[derive(Debug, Clone)]
pub struct StreamOp {
    /// Stream id; ops on the same stream execute in order, ops on different
    /// streams may overlap.
    pub stream: u32,
    /// The kernel to run.
    pub kernel: KernelDesc,
}

/// A kernel's realized execution interval.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// Kernel name.
    pub name: String,
    /// Stream it ran on.
    pub stream: u32,
    /// First block start time, seconds.
    pub start: f64,
    /// Last block retirement time, seconds.
    pub end: f64,
}

/// An occupancy sample: fraction of the device's block slots busy over one
/// inter-event interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySample {
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Occupied fraction of block slots in `[0, 1]`.
    pub occupancy: f64,
}

/// The simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-kernel spans, in completion order.
    pub spans: Vec<KernelSpan>,
    /// Occupancy trace over inter-event intervals.
    pub occupancy: Vec<OccupancySample>,
    /// Total makespan, seconds.
    pub makespan: f64,
}

impl Timeline {
    /// Time-weighted mean occupancy over the whole run.
    pub fn mean_occupancy(&self) -> f64 {
        let mut mean = MeanOccupancy::default();
        for s in &self.occupancy {
            mean.add(s);
        }
        mean.value()
    }

    /// The span for a kernel name, if it ran.
    pub fn span(&self, name: &str) -> Option<&KernelSpan> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Running time-weighted mean of occupancy samples, in sample order.
#[derive(Default)]
struct MeanOccupancy {
    weighted: f64,
    total: f64,
}

impl MeanOccupancy {
    fn add(&mut self, s: &OccupancySample) {
        let dt = s.end - s.start;
        self.weighted += s.occupancy * dt;
        self.total += dt;
    }

    fn value(&self) -> f64 {
        if self.total > 0.0 {
            self.weighted / self.total
        } else {
            0.0
        }
    }
}

/// Simulates a set of stream operations on the device.
///
/// Model: the device exposes `sm_count × slots_per_sm` block slots. At every
/// scheduling step, the frontier kernel of each stream (its predecessor on
/// the stream having fully retired) contributes blocks; free slots are
/// handed out round-robin across ready kernels (the hardware work
/// distributor). A slot services a block in
/// `block_time × slots_per_sm` — co-resident blocks share their SM's
/// throughput — which makes the simulator's full-occupancy throughput equal
/// the calibrated closed-form model's (one block per SM per `block_time`).
/// The simulation advances to the next block-retirement event.
///
/// # Panics
///
/// Panics if any kernel is invalid.
pub fn simulate(ops: &[StreamOp], config: &DeviceConfig) -> Timeline {
    let slots = Slots::new(config);
    // Group ops by stream (stable: enqueue order within a stream); each
    // stream's queue is then a contiguous run.
    let mut by_stream: Vec<usize> = (0..ops.len()).collect();
    by_stream.sort_by_key(|&i| ops[i].stream);
    let mut engine = Engine::new(slots.total, ops.len());
    let mut stream = None;
    for &i in &by_stream {
        if stream != Some(ops[i].stream) {
            stream = Some(ops[i].stream);
            engine.open_stream();
        }
        let (block_time, cap) = slots.timing(&ops[i].kernel, config);
        engine.push(i, u64::from(ops[i].kernel.grid_blocks), block_time, cap);
    }
    let mut occupancy = Vec::new();
    engine.run(|s| occupancy.push(s));

    let mut states = engine.ops;
    states.sort_unstable_by_key(|s| s.order);
    let mut spans: Vec<KernelSpan> = ops
        .iter()
        .zip(&states)
        .map(|(op, state)| KernelSpan {
            name: op.kernel.name.clone(),
            stream: op.stream,
            start: state.started_at.unwrap_or(0.0),
            end: state.end,
        })
        .collect();
    spans.sort_by(|a, b| a.end.total_cmp(&b.end));
    let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    Timeline { spans, occupancy, makespan }
}

/// Time-weighted mean occupancy of a fleet of hologram jobs sharing the
/// device: bit-identical to
/// `simulate(&session_stream_ops(jobs), config).mean_occupancy()`, without
/// building the kernels. Every plane propagation of one step has the same
/// block cost, so the timeline needs two block costs (forward and
/// backward) and each job's grid size. Jobs with `plane_count == 0`
/// contribute nothing; no work at all is zero occupancy.
///
/// # Panics
///
/// Panics if any job with planes is invalid.
pub fn session_occupancy(jobs: &[HologramJob], config: &DeviceConfig) -> f64 {
    let _span = holoar_telemetry::span_cat("gpusim.price.occupancy", "gpusim");
    let slots = Slots::new(config);
    let fwd = slots.timing(&propagation_kernel(Step::Forward, 1), config);
    let bwd = slots.timing(&propagation_kernel(Step::Backward, 1), config);
    let ops: usize = jobs
        .iter()
        .map(|j| 2 * j.gsw_iterations as usize * j.plane_count as usize)
        .sum();
    let mut engine = Engine::new(slots.total, ops);
    for job in jobs.iter().filter(|j| j.plane_count > 0) {
        job.expect_valid();
        let blocks = u64::from(plane_grid_blocks(job.covered_pixels()));
        engine.open_stream();
        for _ in 0..job.gsw_iterations {
            for (block_time, cap) in [fwd, bwd] {
                for _ in 0..job.plane_count {
                    engine.push(engine.ops.len(), blocks, block_time, cap);
                }
            }
        }
    }
    let mut mean = MeanOccupancy::default();
    engine.run(|s| mean.add(&s));
    mean.value()
}

/// The device's block slots.
struct Slots {
    per_sm: u64,
    total: u64,
}

impl Slots {
    fn new(config: &DeviceConfig) -> Self {
        let per_sm =
            (u64::from(config.sm.max_resident_warps) * u64::from(config.sm.warp_size) / 256).max(1);
        Slots { per_sm, total: per_sm * u64::from(config.sm_count) }
    }

    /// A kernel's per-block slot service time — SM throughput is shared
    /// among its co-resident slots — and its device-wide slot cap.
    fn timing(&self, kernel: &KernelDesc, config: &DeviceConfig) -> (f64, u64) {
        let cost = expect_block_cost(kernel, config);
        let block_time =
            cost.total_cycles() / config.kernel_efficiency / config.clock_hz * self.per_sm as f64;
        let cap = (co_resident_blocks(kernel, config) as u64)
            .max(1)
            .saturating_mul(u64::from(config.sm_count));
        (block_time, cap)
    }
}

/// One op as the event core tracks it.
struct OpState {
    /// Enqueue index: the work distributor favours lower ones.
    order: usize,
    /// Index of the op's stream in [`Engine::streams`].
    stream: usize,
    blocks_left: u64,
    in_flight: u64,
    retired: u64,
    total: u64,
    block_time: f64,
    slots_cap: u64,
    started_at: Option<f64>,
    end: f64,
}

/// One stream's queue: `ops[next..end]` are its unfinished ops in enqueue
/// order, `ops[next]` its frontier.
struct StreamQueue {
    next: usize,
    end: usize,
}

/// Blocks of one op dispatched at the same instant, retiring together.
struct Wave {
    op: usize,
    retire: f64,
    count: u64,
}

/// The event core shared by [`simulate`] and [`session_occupancy`]. Ops
/// are stored grouped by stream, so each stream's queue is a contiguous
/// run of `ops`.
struct Engine {
    ops: Vec<OpState>,
    streams: Vec<StreamQueue>,
    total_slots: u64,
}

impl Engine {
    fn new(total_slots: u64, ops: usize) -> Self {
        Engine { ops: Vec::with_capacity(ops), streams: Vec::new(), total_slots }
    }

    /// Starts a new stream; later [`Engine::push`]es enqueue on it.
    fn open_stream(&mut self) {
        let at = self.ops.len();
        self.streams.push(StreamQueue { next: at, end: at });
    }

    /// Enqueues an op of `blocks` blocks on the newest stream.
    fn push(&mut self, order: usize, blocks: u64, block_time: f64, slots_cap: u64) {
        let stream = self.streams.len() - 1;
        self.ops.push(OpState {
            order,
            stream,
            blocks_left: blocks,
            in_flight: 0,
            retired: 0,
            total: blocks,
            block_time,
            slots_cap,
            started_at: None,
            end: 0.0,
        });
        self.streams[stream].end = self.ops.len();
    }

    /// Runs every op to completion, reporting each inter-event interval's
    /// occupancy to `sample` in time order. Allocates nothing per event.
    fn run(&mut self, mut sample: impl FnMut(OccupancySample)) {
        let Engine { ops, streams, total_slots } = self;
        let total_slots = *total_slots;
        let mut ready: Vec<usize> = Vec::with_capacity(streams.len());
        // A wave holds at least one in-flight block, so this never grows.
        let max_in_flight = ops.iter().map(|op| op.total).sum::<u64>().min(total_slots);
        let mut waves: Vec<Wave> = Vec::with_capacity(max_in_flight as usize);
        let mut in_flight = 0u64;
        let mut now = 0.0f64;
        let mut done = 0usize;
        while done < ops.len() {
            // Ready ops: each stream's frontier with blocks left to dispatch,
            // in enqueue order.
            ready.clear();
            for queue in streams.iter() {
                if queue.next < queue.end && ops[queue.next].blocks_left > 0 {
                    ready.push(queue.next);
                }
            }
            ready.sort_unstable_by_key(|&i| ops[i].order);
            let free = total_slots.saturating_sub(in_flight);
            in_flight += dispatch(ops, &ready, free, now, &mut waves);

            // Advance to the next retirement.
            let Some(next_t) = waves.iter().map(|w| w.retire).min_by(f64::total_cmp) else {
                // Nothing in flight and nothing ready: streams are blocked on
                // ops with zero remaining blocks (shouldn't happen) — bail.
                break;
            };
            sample(OccupancySample {
                start: now,
                end: next_t,
                occupancy: (in_flight as f64 / total_slots as f64).min(1.0),
            });
            now = next_t;
            // Retire everything due now.
            waves.retain(|w| {
                if w.retire > now + 1e-18 {
                    return true;
                }
                let op = &mut ops[w.op];
                op.in_flight -= w.count;
                op.retired += w.count;
                in_flight -= w.count;
                if op.retired == op.total {
                    op.end = now;
                    done += 1;
                    streams[op.stream].next += 1;
                }
                false
            });
        }
    }
}

/// Hands `free` slots to the `ready` ops (in priority order) the way the
/// round-robin work distributor does — one block per op per pass, each op
/// bounded by its blocks left and its co-residency room — in closed form:
/// every op gets an equal share up to its room, and the remainder goes one
/// block each to the first ops with room to spare. Returns the blocks
/// dispatched.
fn dispatch(
    ops: &mut [OpState],
    ready: &[usize],
    free: u64,
    now: f64,
    waves: &mut Vec<Wave>,
) -> u64 {
    let room = |op: &OpState| op.blocks_left.min(op.slots_cap.saturating_sub(op.in_flight));
    // Raise a common level until the free slots run out; ops whose room is
    // below the level are capped at their room.
    let mut level = 0u64;
    let mut left = free;
    loop {
        let (above, next) = ready
            .iter()
            .map(|&i| room(&ops[i]))
            .filter(|&r| r > level)
            .fold((0u64, u64::MAX), |(n, low), r| (n + 1, low.min(r)));
        if above == 0 {
            break;
        }
        let full_passes = (next - level).min(left / above);
        level += full_passes;
        left -= full_passes * above;
        if level < next {
            break;
        }
    }
    let mut dispatched = 0;
    for &i in ready {
        let op = &mut ops[i];
        let r = room(op);
        let mut count = r.min(level);
        if r > level && left > 0 {
            count += 1;
            left -= 1;
        }
        if count > 0 {
            op.blocks_left -= count;
            op.in_flight += count;
            op.started_at.get_or_insert(now);
            waves.push(Wave { op: i, retire: now + op.block_time, count });
            dispatched += count;
        }
    }
    dispatched
}

/// Builds the per-plane stream workload for one GSW sweep: each depth plane
/// on its own stream (forward then backward), the way a stream-parallel
/// implementation of Algorithm 1 overlaps planes.
pub fn plane_stream_ops(pixels: u64, planes: u32) -> Vec<StreamOp> {
    let mut ops = Vec::with_capacity(planes as usize * 2);
    for p in 0..planes {
        let mut fwd = propagation_kernel(Step::Forward, pixels);
        fwd.name = format!("fwd_plane{p}");
        ops.push(StreamOp { stream: p, kernel: fwd });
        let mut bwd = propagation_kernel(Step::Backward, pixels);
        bwd.name = format!("bwd_plane{p}");
        ops.push(StreamOp { stream: p, kernel: bwd });
    }
    ops
}

/// Builds the shared-device workload for a fleet of hologram jobs: session
/// `s`'s kernel sequence (per iteration, per plane, forward then backward)
/// goes on stream `s`, so the timeline interleaves the sessions' block
/// waves on one SM/DRAM model the way concurrent CUDA contexts share a GPU.
/// Jobs with `plane_count == 0` contribute nothing.
///
/// # Panics
///
/// Panics if any job with planes is invalid.
pub fn session_stream_ops(jobs: &[HologramJob]) -> Vec<StreamOp> {
    use crate::hologram_kernels::job_kernels;
    let mut ops = Vec::new();
    for (s, job) in jobs.iter().enumerate() {
        if job.plane_count == 0 {
            continue;
        }
        for kernel in job_kernels(job) {
            let mut kernel = kernel;
            let step = if kernel.name == Step::Forward.kernel_name() { "fwd" } else { "bwd" };
            kernel.name = format!("s{s}_{step}");
            ops.push(StreamOp { stream: s as u32, kernel });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::InstructionMix;

    fn kernel(name: &str, blocks: u32) -> KernelDesc {
        KernelDesc::new(
            name,
            blocks,
            256,
            InstructionMix { flops: 100.0, loads: 8.0, stores: 4.0, ..Default::default() },
        )
    }

    #[test]
    fn empty_workload_is_empty_timeline() {
        let t = simulate(&[], &DeviceConfig::default());
        assert_eq!(t.makespan, 0.0);
        assert!(t.spans.is_empty());
        assert_eq!(t.mean_occupancy(), 0.0);
    }

    #[test]
    fn single_kernel_matches_closed_form_throughput() {
        let cfg = DeviceConfig::default();
        let k = kernel("solo", 512);
        let t = simulate(&[StreamOp { stream: 0, kernel: k.clone() }], &cfg);
        assert_eq!(t.spans.len(), 1);
        // Closed form: blocks_per_sm × block_time (+ drain tail); the
        // timeline should land within ~20%.
        let mut device = Device::new(cfg).unwrap();
        let closed = device.execute(&k).time - cfg.launch_overhead;
        let ratio = t.makespan / closed;
        assert!((0.8..1.2).contains(&ratio), "timeline/closed-form ratio {ratio}");
    }

    #[test]
    fn same_stream_serializes_different_streams_overlap() {
        let cfg = DeviceConfig::default();
        // Two small kernels that each fill a fraction of the device.
        let serial = simulate(
            &[
                StreamOp { stream: 0, kernel: kernel("a", 16) },
                StreamOp { stream: 0, kernel: kernel("b", 16) },
            ],
            &cfg,
        );
        let parallel = simulate(
            &[
                StreamOp { stream: 0, kernel: kernel("a", 16) },
                StreamOp { stream: 1, kernel: kernel("b", 16) },
            ],
            &cfg,
        );
        assert!(
            parallel.makespan < serial.makespan,
            "streams should overlap: {} vs {}",
            parallel.makespan,
            serial.makespan
        );
        // Serial: b starts only after a ends.
        let a_end = serial.span("a").unwrap().end;
        let b_start = serial.span("b").unwrap().start;
        assert!(b_start >= a_end - 1e-15);
    }

    #[test]
    fn more_streams_raise_occupancy() {
        let cfg = DeviceConfig::default();
        // Small per-plane kernels: 2 planes cannot fill the device, 16 can.
        let low = simulate(&plane_stream_ops(8 * 256, 2), &cfg);
        let high = simulate(&plane_stream_ops(8 * 256, 16), &cfg);
        assert!(
            high.mean_occupancy() > low.mean_occupancy(),
            "occupancy {:.2} vs {:.2}",
            high.mean_occupancy(),
            low.mean_occupancy()
        );
    }

    #[test]
    fn occupancy_samples_are_contiguous_and_bounded() {
        let cfg = DeviceConfig::default();
        let t = simulate(&plane_stream_ops(64 * 256, 4), &cfg);
        for pair in t.occupancy.windows(2) {
            assert!((pair[0].end - pair[1].start).abs() < 1e-15, "gap in occupancy trace");
        }
        for s in &t.occupancy {
            assert!((0.0..=1.0).contains(&s.occupancy));
            assert!(s.end >= s.start);
        }
    }

    #[test]
    fn stream_parallel_sweep_beats_serial_sweep() {
        // The stream-parallel plane sweep should finish no later than
        // running the same kernels back-to-back on one stream.
        let cfg = DeviceConfig::default();
        let parallel = simulate(&plane_stream_ops(128 * 256, 8), &cfg);
        let serial_ops: Vec<StreamOp> = plane_stream_ops(128 * 256, 8)
            .into_iter()
            .map(|mut op| {
                op.stream = 0;
                op
            })
            .collect();
        let serial = simulate(&serial_ops, &cfg);
        assert!(parallel.makespan <= serial.makespan + 1e-12);
    }

    #[test]
    fn session_streams_overlap_on_the_shared_device() {
        use crate::hologram_kernels::HologramJob;
        let cfg = DeviceConfig::default();
        let small = HologramJob {
            pixels: 64 * 64,
            plane_count: 4,
            coverage: 1.0,
            gsw_iterations: 1,
        };
        let fleet = vec![small; 4];
        let shared = simulate(&session_stream_ops(&fleet), &cfg);
        // Same kernels forced onto one stream: strictly serial.
        let serial_ops: Vec<StreamOp> = session_stream_ops(&fleet)
            .into_iter()
            .map(|mut op| {
                op.stream = 0;
                op
            })
            .collect();
        let serial = simulate(&serial_ops, &cfg);
        assert!(
            shared.makespan < serial.makespan,
            "session streams should interleave: {} vs {}",
            shared.makespan,
            serial.makespan
        );
        // Zero-plane sessions contribute nothing.
        let skipped = HologramJob { plane_count: 0, ..small };
        assert_eq!(session_stream_ops(&[skipped]).len(), 0);
    }

    /// FNV-1a over every bit a timeline reports: each span's name, stream
    /// and interval, each occupancy sample, and the makespan.
    fn digest(t: &Timeline) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for s in &t.spans {
            eat(s.name.as_bytes());
            eat(&s.stream.to_le_bytes());
            eat(&s.start.to_bits().to_le_bytes());
            eat(&s.end.to_bits().to_le_bytes());
        }
        for o in &t.occupancy {
            eat(&o.start.to_bits().to_le_bytes());
            eat(&o.end.to_bits().to_le_bytes());
            eat(&o.occupancy.to_bits().to_le_bytes());
        }
        eat(&t.makespan.to_bits().to_le_bytes());
        h
    }

    #[test]
    fn timelines_match_pinned_digests() {
        use crate::hologram_kernels::HologramJob;
        let job = |plane_count, coverage, gsw_iterations| HologramJob {
            pixels: 64 * 64,
            plane_count,
            coverage,
            gsw_iterations,
        };
        let fleet = [job(0, 1.0, 2), job(3, 0.37, 2), job(24, 1.0, 2), job(7, 0.81, 1)];
        let sms = |sm_count| DeviceConfig { sm_count, ..DeviceConfig::default() };
        // Non-contiguous stream ids, interleaved enqueue order, and a
        // 1024-thread kernel whose co-residency cap (2 blocks per SM) binds
        // below the SM's 8 slots.
        let wide = KernelDesc { block_threads: 1024, ..kernel("wide", 40) };
        let narrow = KernelDesc { block_threads: 32, ..kernel("narrow", 90) };
        let hand = [
            StreamOp { stream: 100, kernel: wide.clone() },
            StreamOp { stream: 3, kernel: kernel("a3", 24) },
            StreamOp { stream: 7, kernel: narrow },
            StreamOp { stream: 3, kernel: kernel("b3", 5) },
            StreamOp { stream: 100, kernel: kernel("tail100", 33) },
            StreamOp { stream: 7, kernel: KernelDesc { name: "wide7".into(), ..wide } },
        ];
        let cases = [
            (simulate(&plane_stream_ops(8 * 256, 2), &sms(8)), 0xde3c_7074_6e07_ee65),
            (simulate(&plane_stream_ops(8 * 256, 16), &sms(8)), 0x5485_eeb0_99ce_d2df),
            (simulate(&session_stream_ops(&fleet), &sms(4)), 0x4dcb_b2c4_76dc_1970),
            (simulate(&session_stream_ops(&fleet), &sms(32)), 0xc53a_f97d_aece_0499),
            (simulate(&hand, &sms(4)), 0xa3c4_f107_e285_6367),
        ];
        for (i, (timeline, pinned)) in cases.iter().enumerate() {
            assert_eq!(digest(timeline), *pinned, "case {i} drifted");
        }
    }

    #[test]
    fn all_kernels_complete() {
        let cfg = DeviceConfig::default();
        let ops = plane_stream_ops(16 * 256, 6);
        let t = simulate(&ops, &cfg);
        assert_eq!(t.spans.len(), ops.len());
        for s in &t.spans {
            assert!(s.end > s.start - 1e-18, "{} never ran", s.name);
        }
    }
}
