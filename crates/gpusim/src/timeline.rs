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
//!
//! The event core walks each stream's ops with one frontier cursor per
//! stream, and keeps in-flight block waves in one FIFO per distinct block
//! time. Waves of one block time retire in dispatch order, so each FIFO
//! stays sorted by retire time without a search. Serving does not run it:
//! a serve tick is one stream of equal-grid merged launches, whose
//! occupancy has a closed form ([`JobPricer::batch`](crate::JobPricer::batch)).

use std::collections::VecDeque;

use crate::config::DeviceConfig;
use crate::device::expect_block_cost;
use crate::hologram_kernels::{propagation_kernel, HologramJob, Step};
use crate::kernel::KernelDesc;
use crate::sm::{co_resident_blocks, BlockCost};

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
        let (mut weighted, mut total) = (0.0, 0.0);
        for s in &self.occupancy {
            let dt = s.end - s.start;
            weighted += s.occupancy * dt;
            total += dt;
        }
        if total > 0.0 {
            weighted / total
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
    // Group ops by stream (stable: enqueue order within a stream). An op's
    // priority is its enqueue index.
    let mut by_stream: Vec<usize> = (0..ops.len()).collect();
    by_stream.sort_by_key(|&i| ops[i].stream);
    let mut engine = Engine::new(slots.total, ops.len());
    let mut stream = None;
    for &i in &by_stream {
        if stream != Some(ops[i].stream) {
            stream = Some(ops[i].stream);
            engine.open_stream();
        }
        let kernel = &ops[i].kernel;
        let timing = slots.timing(kernel, &expect_block_cost(kernel, config), config);
        engine.push(u64::from(kernel.grid_blocks), timing, i);
    }
    let mut intervals = vec![(0.0, 0.0); ops.len()];
    let mut occupancy = Vec::new();
    engine.run(
        |s| occupancy.push(s),
        |op, start, end| intervals[by_stream[op]] = (start, end),
    );

    let mut spans: Vec<KernelSpan> = ops
        .iter()
        .zip(&intervals)
        .map(|(op, &(start, end))| KernelSpan {
            name: op.kernel.name.clone(),
            stream: op.stream,
            start,
            end,
        })
        .collect();
    spans.sort_by(|a, b| a.end.total_cmp(&b.end));
    let makespan = spans.iter().map(|s| s.end).fold(0.0, f64::max);
    Timeline { spans, occupancy, makespan }
}

/// The device's block slots.
pub(crate) struct Slots {
    per_sm: u64,
    pub(crate) total: u64,
}

impl Slots {
    pub(crate) fn new(config: &DeviceConfig) -> Self {
        let per_sm =
            (u64::from(config.sm.max_resident_warps) * u64::from(config.sm.warp_size) / 256).max(1);
        Slots { per_sm, total: per_sm * u64::from(config.sm_count) }
    }

    /// The slots `kernel`'s blocks may hold at once: its co-resident blocks
    /// per SM on every SM.
    pub(crate) fn cap(kernel: &KernelDesc, config: &DeviceConfig) -> u64 {
        let per_sm = (co_resident_blocks(kernel, config) as u64).max(1);
        per_sm.saturating_mul(u64::from(config.sm_count))
    }

    /// The slot timing of `kernel`, whose block cost is `cost`.
    fn timing(&self, kernel: &KernelDesc, cost: &BlockCost, config: &DeviceConfig) -> SlotTiming {
        let block_time =
            cost.total_cycles() / config.kernel_efficiency / config.clock_hz * self.per_sm as f64;
        SlotTiming { block_time, cap: Slots::cap(kernel, config) }
    }
}

/// A kernel's per-block slot service time — SM throughput is shared among
/// its co-resident slots — and its device-wide slot cap.
#[derive(Debug, Clone, Copy)]
struct SlotTiming {
    block_time: f64,
    cap: u64,
}

/// One op on a stream.
#[derive(Clone, Copy)]
struct Op {
    blocks: u64,
    timing: SlotTiming,
    /// Index of the wave FIFO of `timing.block_time`.
    class: usize,
    /// Work-distributor priority: ready frontiers are served in ascending
    /// key order.
    key: usize,
}

/// One stream's frontier op, its first unfinished op.
struct Cursor {
    frontier: Op,
    /// Index of the frontier in [`Engine::ops`].
    op: usize,
    /// One past the stream's last op.
    end: usize,
    blocks_left: u64,
    in_flight: u64,
    started_at: f64,
}

impl Cursor {
    fn at(ops: &[Op], op: usize, end: usize) -> Self {
        let frontier = ops[op];
        Cursor { frontier, op, end, blocks_left: frontier.blocks, in_flight: 0, started_at: 0.0 }
    }

    /// Moves past the finished frontier op. When the stream has no op
    /// left, `op` reaches `end` and no blocks are left to dispatch.
    fn advance(&mut self, ops: &[Op]) {
        self.op += 1;
        if self.op == self.end {
            return;
        }
        self.frontier = ops[self.op];
        self.blocks_left = self.frontier.blocks;
    }
}

/// Blocks of one stream's frontier dispatched at the same instant,
/// retiring together.
#[derive(Clone, Copy)]
struct Wave {
    stream: usize,
    retire: f64,
    count: u64,
}

/// The event core behind [`simulate`]: streams of ops, walked by one
/// frontier cursor per stream.
struct Engine {
    ops: Vec<Op>,
    /// Each stream's ops, `ops[start..end]`, in enqueue order.
    streams: Vec<(usize, usize)>,
    /// Block time of each wave class, one per distinct bit pattern.
    block_times: Vec<f64>,
    total_slots: u64,
}

impl Engine {
    fn new(total_slots: u64, ops: usize) -> Self {
        Engine {
            ops: Vec::with_capacity(ops),
            streams: Vec::new(),
            block_times: Vec::new(),
            total_slots,
        }
    }

    /// Starts a new stream; later [`Engine::push`]es enqueue on it.
    fn open_stream(&mut self) {
        let at = self.ops.len();
        self.streams.push((at, at));
    }

    /// Enqueues an op of `blocks` blocks on the newest stream.
    fn push(&mut self, blocks: u64, timing: SlotTiming, key: usize) {
        let Some(stream) = self.streams.last_mut() else {
            return;
        };
        let bits = timing.block_time.to_bits();
        let class = match self.block_times.iter().position(|t| t.to_bits() == bits) {
            Some(class) => class,
            None => {
                self.block_times.push(timing.block_time);
                self.block_times.len() - 1
            }
        };
        self.ops.push(Op { blocks, timing, class, key });
        stream.1 = self.ops.len();
    }

    /// Runs every op to completion, reporting each inter-event interval's
    /// occupancy to `sample` in time order and each finished op to
    /// `finished` as `(op, start, end)`. Allocates nothing per event.
    ///
    /// In-flight waves wait in one FIFO per block time. A wave dispatched at
    /// `now` retires at `now + block_time` and `now` never decreases, so
    /// each FIFO is sorted by retire time: the next event is the least head,
    /// and the waves due are a prefix of each FIFO.
    fn run(
        &self,
        mut sample: impl FnMut(OccupancySample),
        mut finished: impl FnMut(usize, f64, f64),
    ) {
        let Engine { ops, streams, block_times, total_slots } = self;
        let total_slots = *total_slots;
        let mut cursors: Vec<Cursor> = streams
            .iter()
            .filter(|&&(start, end)| start < end)
            .map(|&(start, end)| Cursor::at(ops, start, end))
            .collect();
        // A wave holds at least one in-flight block, so no FIFO outgrows
        // its class's blocks or the device's slots.
        let mut class_blocks = vec![0u64; block_times.len()];
        for op in ops {
            class_blocks[op.class] = class_blocks[op.class].saturating_add(op.blocks);
        }
        let mut waves: Vec<VecDeque<Wave>> = class_blocks
            .iter()
            .map(|&blocks| VecDeque::with_capacity(blocks.min(total_slots) as usize))
            .collect();
        // Cursor indices in priority order of their frontiers. A frontier's
        // key changes only when its stream advances, so the order is
        // re-sorted then, and a finished stream leaves it. A frontier with
        // no blocks left has no room and takes no slot.
        let mut order: Vec<usize> = (0..cursors.len()).collect();
        order.sort_unstable_by_key(|&i| cursors[i].frontier.key);
        let mut rooms = vec![0u64; cursors.len()];
        let mut in_flight = 0u64;
        let mut now = 0.0f64;
        while !order.is_empty() {
            let free = total_slots.saturating_sub(in_flight);
            in_flight += dispatch(&mut cursors, &order, &mut rooms, free, now, &mut waves);

            // Advance to the next retirement.
            let Some(next_t) =
                waves.iter().filter_map(|q| q.front()).map(|w| w.retire).min_by(f64::total_cmp)
            else {
                // Nothing in flight and nothing ready: streams are blocked on
                // ops with zero blocks (shouldn't happen) — bail.
                break;
            };
            sample(OccupancySample {
                start: now,
                end: next_t,
                occupancy: (in_flight as f64 / total_slots as f64).min(1.0),
            });
            now = next_t;
            // Retire everything due now.
            let due = now + 1e-18;
            let mut reorder = false;
            for queue in &mut waves {
                while let Some(w) = queue.pop_front_if(|w| w.retire <= due) {
                    let cursor = &mut cursors[w.stream];
                    cursor.in_flight -= w.count;
                    in_flight -= w.count;
                    if cursor.blocks_left == 0 && cursor.in_flight == 0 {
                        finished(cursor.op, cursor.started_at, now);
                        cursor.advance(ops);
                        reorder = true;
                    }
                }
            }
            if reorder {
                order.retain(|&i| cursors[i].op < cursors[i].end);
                order.sort_unstable_by_key(|&i| cursors[i].frontier.key);
            }
        }
    }
}

/// Hands `free` slots to the frontiers in `order` (their priority order)
/// the way the round-robin work distributor does — one block per op per
/// pass, each op bounded by its blocks left and its co-residency room — in
/// closed form: every op gets an equal share up to its room, and the
/// remainder goes one block each to the first ops with room to spare.
/// `rooms` is scratch space of at least `order.len()`. Returns the blocks
/// dispatched.
fn dispatch(
    cursors: &mut [Cursor],
    order: &[usize],
    rooms: &mut [u64],
    free: u64,
    now: f64,
    waves: &mut [VecDeque<Wave>],
) -> u64 {
    let rooms = &mut rooms[..order.len()];
    // Ops with room above the level, and the least such room.
    let (mut above, mut next) = (0u64, u64::MAX);
    for (room, &i) in rooms.iter_mut().zip(order) {
        let c = &cursors[i];
        let r = c.blocks_left.min(c.frontier.timing.cap.saturating_sub(c.in_flight));
        *room = r;
        if r > 0 {
            above += 1;
            next = next.min(r);
        }
    }
    // Raise a common level until the free slots run out; ops whose room is
    // below the level are capped at their room.
    let mut level = 0u64;
    let mut left = free;
    while above > 0 {
        let step = next - level;
        let full_passes = match step.checked_mul(above) {
            Some(blocks) if blocks <= left => step,
            _ if left < above => 0,
            _ => left / above,
        };
        level += full_passes;
        left -= full_passes * above;
        if level < next {
            break;
        }
        (above, next) = rooms
            .iter()
            .filter(|&&r| r > level)
            .fold((0u64, u64::MAX), |(n, low), &r| (n + 1, low.min(r)));
    }
    let mut dispatched = 0;
    for (&r, &i) in rooms.iter().zip(order) {
        if level == 0 && left == 0 {
            break;
        }
        let mut count = r.min(level);
        if r > level && left > 0 {
            count += 1;
            left -= 1;
        }
        if count > 0 {
            let cursor = &mut cursors[i];
            if cursor.blocks_left == cursor.frontier.blocks {
                cursor.started_at = now;
            }
            cursor.blocks_left -= count;
            cursor.in_flight += count;
            let retire = now + cursor.frontier.timing.block_time;
            waves[cursor.frontier.class].push_back(Wave { stream: i, retire, count });
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
// holoar-lint: allow(unreached, reason = "test workload: session_timelines_match_the_linear_scan_oracle in gpusim tests/timeline_oracle.rs and the timeline unit tests simulate multi-stream session timelines with it")
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
        let device = Device::new(cfg).unwrap();
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
        let kernel = |name: &str| serial.spans.iter().find(|s| s.name == name).unwrap();
        let a_end = kernel("a").end;
        let b_start = kernel("b").start;
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
