//! Byte-pins the stdout of every experiment that is not host-timed.
//!
//! `fixtures/experiments/<id>.txt` holds the stdout of `repro <id>` at the
//! default config, for every id in `ALL_EXPERIMENTS` except `parallel`
//! (its table prints wall-clock times). Each test below runs the real
//! binary over every pinned id in one execution mode and compares bytes,
//! so a change that moves any reported number — or makes it depend on the
//! worker count or the telemetry mode — fails here.
//!
//! A change that means to move an experiment re-records its fixture and
//! explains the delta:
//!
//! ```text
//! repro <id> > crates/bench/fixtures/experiments/<id>.txt
//! ```

use holoar_bench::ALL_EXPERIMENTS;
use std::process::Command;

/// Experiments whose output is wall-clock time, so cannot be pinned.
const HOST_TIMED: &[&str] = &["parallel"];

/// Runs every pinned experiment with `env` set and compares its stdout to
/// its fixture; panics listing every experiment that differs.
fn check_all(env: &[(&str, &str)]) {
    let mut failures = Vec::new();
    for id in ALL_EXPERIMENTS.iter().filter(|id| !HOST_TIMED.contains(id)) {
        let path = format!("{}/fixtures/experiments/{id}.txt", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.arg(id).env_remove("HOLOAR_THREADS").env_remove("HOLOAR_TELEMETRY");
        for (key, value) in env {
            cmd.env(key, value);
        }
        let out = cmd.output().expect("repro runs");
        assert!(out.status.success(), "repro {id} failed: {}", String::from_utf8_lossy(&out.stderr));
        let got = String::from_utf8_lossy(&out.stdout);
        if got != want {
            let (line, (g, w)) = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w)
                .unwrap_or((got.lines().count().min(want.lines().count()), ("<end>", "<end>")));
            failures.push(format!("{id} line {}:\n  got:  {g}\n  want: {w}", line + 1));
        }
    }
    assert!(failures.is_empty(), "{env:?}: stdout differs from fixture:\n{}", failures.join("\n"));
}

#[test]
fn experiments_match_fixtures_at_one_worker() {
    check_all(&[("HOLOAR_THREADS", "1")]);
}

#[test]
fn experiments_match_fixtures_at_two_workers() {
    check_all(&[("HOLOAR_THREADS", "2")]);
}

#[test]
fn experiments_match_fixtures_at_seven_workers() {
    check_all(&[("HOLOAR_THREADS", "7")]);
}

#[test]
fn experiments_match_fixtures_with_full_telemetry() {
    check_all(&[("HOLOAR_TELEMETRY", "full")]);
}
