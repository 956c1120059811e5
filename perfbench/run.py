#!/usr/bin/env python3
"""Builds and runs the HoloAR benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <hologram|serve|fleet> --seed N \
        --seconds S --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (release, offline) into
$CARGO_TARGET_DIR (default .bench_build), runs the benchmark binary, and
adds what only the outside of the process can see: its peak resident set
(the `peak_rss_mb` end-to-end metric) and the toolchain and commit it was
built from (the manifest). The last stdout line is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

WORKLOADS = ("hologram", "serve", "fleet")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe(cmd, env=None):
    """First line of a command's stdout, or None when it fails."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def run_measured(cmd, cwd, env):
    """Runs `cmd`, returning (exit code, stdout text, peak RSS in MB)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "crates")):
        fail("the workspace crates are missing; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target, "release", "holoar-perfbench")
    # One worker unless the caller sets HOLOAR_THREADS: on a shared host a
    # fan-out waits for whichever core another tenant holds, and host
    # figures spread several times wider than on one worker.
    run_env = dict(os.environ)
    run_env.setdefault("HOLOAR_THREADS", "1")
    code, out, peak_rss_mb = run_measured(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, run_env,
    )
    lines = out.rstrip("\n").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"the benchmark exited with code {code} and no result")
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        commit = probe(["git", "-C", root, "rev-parse", "HEAD"], git_env)
    for line in lines[:-1]:
        if line.startswith('{"manifest"'):
            manifest = json.loads(line)
            manifest["manifest"]["rustc"] = probe(["rustc", "-V"])
            manifest["manifest"]["git_commit"] = commit
            if args.trace == 0:
                manifest["manifest"]["kinds"]["peak_rss_mb"] = "host"
                print(f"  {'peak_rss_mb':<32} {peak_rss_mb:>16.6f} {'MB':<9} ↓ {'host':<8} "
                      "peak resident set of the benchmark process")
            print(json.dumps(manifest))
        else:
            print(line)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
