//! The timeline's event core against a linear-scan oracle: the engine it
//! replaced, which kept one state per op and scanned every in-flight wave
//! twice per event (once for the next retirement, once to retire). Every
//! `Timeline` field must match the oracle bit for bit.

use holoar_gpusim::sm::{block_cost, co_resident_blocks};
use holoar_gpusim::timeline::{session_stream_ops, KernelSpan};
use holoar_gpusim::{
    simulate, DeviceConfig, HologramJob, InstructionMix, KernelDesc, OccupancySample,
    StreamOp, Timeline,
};
use proptest::prelude::*;

/// One op as the oracle tracks it.
struct OpState {
    order: usize,
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

/// Blocks of one op dispatched at the same instant.
struct Wave {
    op: usize,
    retire: f64,
    count: u64,
}

/// The linear-scan simulator: same model as `simulate`, one `OpState` per
/// kernel and one flat wave list.
fn oracle(ops: &[StreamOp], config: &DeviceConfig) -> Timeline {
    let per_sm =
        (u64::from(config.sm.max_resident_warps) * u64::from(config.sm.warp_size) / 256).max(1);
    let total_slots = per_sm * u64::from(config.sm_count);
    let mut by_stream: Vec<usize> = (0..ops.len()).collect();
    by_stream.sort_by_key(|&i| ops[i].stream);
    let mut states: Vec<OpState> = Vec::new();
    // Each stream's unfinished ops are `states[next..end]`.
    let mut streams: Vec<(usize, usize)> = Vec::new();
    let mut stream = None;
    for &i in &by_stream {
        if stream != Some(ops[i].stream) {
            stream = Some(ops[i].stream);
            streams.push((states.len(), states.len()));
        }
        let kernel = &ops[i].kernel;
        let cost = block_cost(kernel, config).expect("valid kernel");
        let block_time =
            cost.total_cycles() / config.kernel_efficiency / config.clock_hz * per_sm as f64;
        let slots_cap = (co_resident_blocks(kernel, config) as u64)
            .max(1)
            .saturating_mul(u64::from(config.sm_count));
        let blocks = u64::from(kernel.grid_blocks);
        states.push(OpState {
            order: i,
            stream: streams.len() - 1,
            blocks_left: blocks,
            in_flight: 0,
            retired: 0,
            total: blocks,
            block_time,
            slots_cap,
            started_at: None,
            end: 0.0,
        });
        streams.last_mut().expect("stream opened").1 = states.len();
    }

    let mut occupancy = Vec::new();
    let mut waves: Vec<Wave> = Vec::new();
    let mut in_flight = 0u64;
    let mut now = 0.0f64;
    let mut done = 0usize;
    while done < states.len() {
        let mut ready: Vec<usize> = streams
            .iter()
            .filter(|&&(next, end)| next < end && states[next].blocks_left > 0)
            .map(|&(next, _)| next)
            .collect();
        ready.sort_unstable_by_key(|&i| states[i].order);
        let free = total_slots.saturating_sub(in_flight);
        in_flight += dispatch(&mut states, &ready, free, now, &mut waves);
        let Some(next_t) = waves.iter().map(|w| w.retire).min_by(f64::total_cmp) else {
            break;
        };
        occupancy.push(OccupancySample {
            start: now,
            end: next_t,
            occupancy: (in_flight as f64 / total_slots as f64).min(1.0),
        });
        now = next_t;
        waves.retain(|w| {
            if w.retire > now + 1e-18 {
                return true;
            }
            let op = &mut states[w.op];
            op.in_flight -= w.count;
            op.retired += w.count;
            in_flight -= w.count;
            if op.retired == op.total {
                op.end = now;
                done += 1;
                streams[op.stream].0 += 1;
            }
            false
        });
    }

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

/// The round-robin work distributor in closed form: equal shares up to
/// each op's room, the remainder one block each to the first ops with room.
fn dispatch(
    ops: &mut [OpState],
    ready: &[usize],
    free: u64,
    now: f64,
    waves: &mut Vec<Wave>,
) -> u64 {
    let room = |op: &OpState| op.blocks_left.min(op.slots_cap.saturating_sub(op.in_flight));
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

/// Asserts two timelines agree on every bit: each span's name, stream and
/// interval, each occupancy sample, and the makespan.
fn assert_same_bits(got: &Timeline, want: &Timeline) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.spans.len(), want.spans.len());
    for (g, w) in got.spans.iter().zip(&want.spans) {
        prop_assert_eq!(&g.name, &w.name);
        prop_assert_eq!(g.stream, w.stream);
        prop_assert_eq!(g.start.to_bits(), w.start.to_bits());
        prop_assert_eq!(g.end.to_bits(), w.end.to_bits());
    }
    prop_assert_eq!(got.occupancy.len(), want.occupancy.len());
    for (g, w) in got.occupancy.iter().zip(&want.occupancy) {
        prop_assert_eq!(g.start.to_bits(), w.start.to_bits());
        prop_assert_eq!(g.end.to_bits(), w.end.to_bits());
        prop_assert_eq!(g.occupancy.to_bits(), w.occupancy.to_bits());
    }
    prop_assert_eq!(got.makespan.to_bits(), want.makespan.to_bits());
    Ok(())
}

/// Four instruction mixes with distinct block costs, so more than two
/// block times are in flight at once.
fn mixes() -> Vec<InstructionMix> {
    vec![
        InstructionMix { flops: 100.0, loads: 8.0, stores: 4.0, ..Default::default() },
        InstructionMix {
            flops: 368.0,
            transcendentals: 12.0,
            loads: 14.0,
            stores: 20.0,
            ..Default::default()
        },
        InstructionMix {
            flops: 40.0,
            loads: 30.0,
            stores: 6.0,
            read_only_fraction: 0.9,
            ..Default::default()
        },
        InstructionMix { flops: 900.0, integer_ops: 120.0, loads: 2.0, ..Default::default() },
    ]
}

/// 1–24 ops on non-contiguous stream ids; 32-, 256- and 1024-thread blocks,
/// so co-residency caps bind below and at the SM's slot count.
fn arb_ops() -> impl Strategy<Value = Vec<StreamOp>> {
    let op = (
        prop::sample::select(vec![0u32, 3, 7, 100, 4096]),
        1u32..200,
        prop::sample::select(vec![32u32, 256, 1024]),
        prop::sample::select(mixes()),
    );
    prop::collection::vec(op, 1..25).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (stream, blocks, threads, mix))| StreamOp {
                stream,
                kernel: KernelDesc::new(format!("k{i}"), blocks, threads, mix),
            })
            .collect()
    })
}

fn arb_sm_count() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![1u32, 4, 32])
}

/// 1–11 session jobs of 0–24 planes, coverage in (0, 1] and 1–5 GSW
/// iterations.
fn arb_fleet() -> impl Strategy<Value = Vec<HologramJob>> {
    let job = (prop::sample::select(vec![16u64 * 16, 64 * 64]), 0u32..25, 0.0f64..1.0, 1u32..6)
        .prop_map(|(pixels, plane_count, x, gsw_iterations)| HologramJob {
            pixels,
            plane_count,
            coverage: 1.0 - x,
            gsw_iterations,
        });
    prop::collection::vec(job, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulate_matches_the_linear_scan_oracle(ops in arb_ops(), sm_count in arb_sm_count()) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        assert_same_bits(&simulate(&ops, &cfg), &oracle(&ops, &cfg))?;
    }

    #[test]
    fn session_timelines_match_the_linear_scan_oracle(
        jobs in arb_fleet(),
        sm_count in arb_sm_count(),
    ) {
        let cfg = DeviceConfig { sm_count, ..DeviceConfig::default() };
        let ops = session_stream_ops(&jobs);
        assert_same_bits(&simulate(&ops, &cfg), &oracle(&ops, &cfg))?;
    }
}
