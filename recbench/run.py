#!/usr/bin/env python3
"""Builds the reconciliation benchmark from source and runs one workload.

    python3 recbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 recbench/run.py --self-test

Run from the repository root. The benchmark binary (this directory's cargo
package) and the driver worker (`snr-driver-worker` of the repository's
workspace) are built in release mode into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, so the worker sits next to the benchmark
binary. Build output goes to standard error; the benchmark's table and its
JSON result line go to standard output. Scratch files (segments, spill runs,
driver checkpoints) live under `.recbench-tmp/` in the repository and are
removed when the run ends.

`--self-test` runs every workload at a tiny scale through the same code
path, checks that every metric named in BENCHMARK.json is printed with its
unit, and that a corrupted link set and a missing driver worker are both
reported as failures.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# Environment switches of the program that would change what is measured.
CLEARED_ENV = ("SNR_FAULT", "SNR_DRIVER_FAULT", "SNR_MR_SPILL_BUDGET", "SNR_TELEMETRY")
# glibc raises its mmap threshold after large frees, after which freed
# buffers stay resident in per-thread arenas from one executor run to the
# next; peak RSS then varied by +-15% between runs of one seed. Pinning the
# threshold at its 128 KiB default returns large buffers to the system.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=131072"
WORKLOADS = ("rmat17-table2", "pa-late", "rmat16-ooc")


def fail(msg):
    print(f"recbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark and the driver worker; returns the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail(f"no repository workspace at {ROOT}: run from a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "snr-driver", "--bin", "snr-driver-worker"],
    )
    for cmd in commands:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release", "recbench")


def run(binary, args, capture=False):
    """Runs the benchmark binary with a private scratch directory."""
    tmp = os.path.join(ROOT, ".recbench-tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = tmp
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    try:
        return subprocess.run(
            [binary] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            stderr=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    tiny = ["--tiny", "--seed", "7", "--seconds", "1"]
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(binary, ["--workload", workload, "--trace", str(trace)] + tiny, capture=True)
            res = result_of(proc)
            what = f"{workload} --trace {trace}"
            assert res["correct"] and res["failed"] == 0, f"{what}: {res}\n{proc.stderr}"
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == expected[trace], f"{what}: metrics {got} != {expected[trace]}"
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{what}: {name} = {m['value']}"
                assert f"\n{name} " in "\n" + proc.stdout, f"{what}: {name} missing from the table"
            print(f"self-test: {what}: {len(got)} metrics OK", file=sys.stderr)

    corrupt = result_of(run(binary, ["--workload", "rmat17-table2", "--trace", "0", "--corrupt"] + tiny,
                            capture=True))
    assert not corrupt["correct"] and corrupt["failed"] >= 1, f"corrupted links not caught: {corrupt}"
    print("self-test: corrupted link set reported as a failure", file=sys.stderr)

    missing = os.path.join(HERE, "no-such-worker")
    proc = run(binary, ["--workload", "pa-late", "--trace", "0", "--worker-bin", missing] + tiny, capture=True)
    res = result_of(proc)
    assert not res["correct"] and res["failed"] >= 1, f"missing worker not caught: {res}"
    assert "cargo build" in proc.stderr, "missing-worker message names no build command"
    assert set(res["metrics"]) == set(expected[0]), "a metric was dropped when the worker was missing"
    print("self-test: missing driver worker reported as a failure", file=sys.stderr)
    print("self-test OK")


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        binary = build()
        try:
            self_test(binary)
        except AssertionError as e:
            print(f"self-test FAILED: {e}", file=sys.stderr)
            sys.exit(1)
        return
    binary = build()
    sys.exit(run(binary, argv).returncode)


if __name__ == "__main__":
    main()
