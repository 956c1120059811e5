//! End-to-end tests of the `repro` command-line tool, driving the real
//! binary the way CI does.

use holoar_telemetry::jsonlite::{self, Json};
use std::process::Command;

/// `repro parallel --json FILE` measures once: the GSW serial time it
/// prints is the one its artifact records. Two measurements of a
/// millisecond-scale wall time would almost never agree to four decimals.
#[test]
fn printed_parallel_table_and_artifact_come_from_one_run() {
    let path = std::env::temp_dir().join(format!("repro_cli_parallel_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["parallel", "--json"])
        .arg(&path)
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("artifact written");
    std::fs::remove_file(&path).ok();

    let label = "gsw 48x48 8 planes";
    // Row layout: label, workers, serial (ref) ms, cell ms, speedup, identical.
    let printed: Vec<f64> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix(label))
        .map(|rest| {
            let cols: Vec<&str> = rest.split_whitespace().collect();
            cols[1].parse().unwrap_or_else(|_| panic!("serial ms in {rest:?}"))
        })
        .collect();
    let doc = jsonlite::parse(&text).expect("artifact is JSON");
    let recorded: Vec<f64> = doc
        .get("cells")
        .and_then(Json::as_array)
        .expect("cells")
        .iter()
        .filter(|cell| cell.get("label").and_then(Json::as_str) == Some(label))
        .map(|cell| cell.get("serial_ms").and_then(Json::as_f64).expect("serial_ms"))
        .collect();
    assert_eq!(printed.len(), 3, "one printed row per worker count:\n{stdout}");
    assert_eq!(printed, recorded, "printed:\n{stdout}\nartifact:\n{text}");
}
