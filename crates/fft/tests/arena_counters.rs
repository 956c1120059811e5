//! `ScratchArena::take` counts a pooled buffer too small for the request as
//! an allocation, because growing it reallocates, and an arena built with
//! its own counters counts nothing under the transforms' `fft.arena.*`.
//! Counter capture is process-wide, so this check lives in its own test
//! binary and runs as one test.

use holoar_fft::{ArenaCounters, Complex64, ScratchArena};
use holoar_telemetry::TelemetryMode;

fn counter(name: &str) -> u64 {
    holoar_telemetry::collector::with_registry(|r| r.counter(name))
}

#[test]
fn growing_a_pooled_buffer_counts_as_an_allocation() {
    let previous = holoar_telemetry::mode();
    holoar_telemetry::set_mode(TelemetryMode::Full);
    holoar_telemetry::reset();
    let arena = ScratchArena::default();
    arena.give(vec![Complex64::ZERO; 4]);
    let (alloc, reuse) = (counter("fft.arena.take.alloc"), counter("fft.arena.take.reuse"));

    let big = arena.take(1024);
    assert_eq!(big.len(), 1024);
    assert_eq!(counter("fft.arena.take.alloc"), alloc + 1, "the 4-element buffer had to grow");
    assert_eq!(counter("fft.arena.take.reuse"), reuse);

    // The grown buffer now serves any request up to its capacity.
    arena.give(big);
    arena.take(1024);
    assert_eq!(counter("fft.arena.take.alloc"), alloc + 1);
    assert_eq!(counter("fft.arena.take.reuse"), reuse + 1);

    // A pool with its own counters reads apart from the transforms' scratch.
    const OTHER: ArenaCounters =
        ArenaCounters { reuse: "fft.other.reuse", alloc: "fft.other.alloc", give: "fft.other.give" };
    let other = ScratchArena::counted(&OTHER);
    let buf = other.take(8);
    other.give(buf);
    other.take_from([Complex64::ONE; 8]);
    let counts = ["fft.other.alloc", "fft.other.reuse", "fft.other.give"].map(counter);
    assert_eq!(counts, [1, 1, 1]);
    assert_eq!(counter("fft.arena.take.alloc"), alloc + 1);
    assert_eq!(counter("fft.arena.take.reuse"), reuse + 1);
    holoar_telemetry::set_mode(previous);
}
