//! Full-bit pin of one serving run: CI's `repro serve --sessions 4
//! --frames 30 --seed 11` shape. The checked-in artifacts print six
//! decimals; this pins every bit of the report, so a change to the
//! occupancy engine or the tick's arithmetic that moves a low-order bit
//! fails here.

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
    assert_eq!(report.mean_occupancy.to_bits(), 0x3fc2_ef53_0eca_8641, "mean_occupancy drifted");
    assert_eq!(
        report.slo.recent_occupancy.to_bits(),
        0x3fc4_4611_1111_110f,
        "recent_occupancy drifted"
    );
    assert_eq!(fnv1a(&format!("{report:?}")), 0x25db_67ce_1f4f_ea0a, "report digest drifted");
}
