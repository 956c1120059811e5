//! Full-bit pin of one serving run: CI's `repro serve --sessions 4
//! --frames 30 --seed 11` shape. The checked-in artifacts print six
//! decimals; this pins every bit of the report, so a change to the batch
//! pricer or the tick's arithmetic that moves a low-order bit fails here.

use holoar_core::ExecutionContext;
use holoar_serve::{run_serve, DeviceSpec, ServeConfig, SessionSpec};

/// FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn ci_serve_shape_is_pinned_to_the_bit() {
    let config = ServeConfig::fleet(DeviceSpec::edge(), SessionSpec::fleet(4, 11), 30);
    let report = run_serve(&config, &ExecutionContext::serial()).expect("fleet config is valid");
    assert_eq!(report.mean_occupancy.to_bits(), 0x3fe4_6f77_7777_7777, "mean_occupancy drifted");
    assert_eq!(
        report.slo.recent_occupancy.to_bits(),
        0x3fe5_0d00_0000_0000,
        "recent_occupancy drifted"
    );
    assert_eq!(fnv1a(&format!("{report:?}")), 0x981f_6628_3726_b88e, "report digest drifted");
}

/// perfbench's `serve` shape: six sessions on a 4-SM edge device for 150
/// ticks, past the device's knee. The run defers frames and steps sessions
/// down through QoS, so every SLO stage (own batch share, queue wait, fault
/// stretch, injected overrun and reprojection) reaches each session's
/// `SessionSlo` stage breakdown and worst-frame path, and this digest pins
/// them to the bit.
#[test]
fn overloaded_serve_shape_is_pinned_to_the_bit() {
    let config =
        ServeConfig::fleet(DeviceSpec::edge().sm_count(4), SessionSpec::fleet(6, 7), 150);
    let report = run_serve(&config, &ExecutionContext::serial()).expect("fleet config is valid");
    let deferred: u64 = report.sessions.iter().map(|s| s.deferred).sum();
    let step_downs: u64 = report.sessions.iter().map(|s| s.qos_step_downs).sum();
    assert!(deferred > 0, "the overloaded run must defer frames");
    assert!(step_downs > 0, "the overloaded run must step sessions down");
    assert_eq!(fnv1a(&format!("{report:?}")), 0xcfbd_f0bf_42b6_1cde, "report digest drifted");
}
