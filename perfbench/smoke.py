#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny scale, untraced and traced, with two seeds
(also the two that ``BENCHMARK.json`` does not list, see README.md),
and checks that each run passes its oracle, prints every metric named
in ``BENCHMARK.json`` with its unit, changes its inputs but not its
metric names with the seed, and leaves no temp directory, shared-memory
segment or worker process behind.  Also checks that the benchmark
fails, without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _workers() -> int:
    """Live spawn-started worker processes on this host."""
    count = 0
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                count += b"spawn_main" in fh.read()
        except OSError:
            continue
    return count


def _run(cwd: str, workload: str, seed: int, trace: int):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
        "--scale", "0.01",
    ]
    return subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    spec = _spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shm_before, workers_before = _shm(), _workers()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (0, 1):
            digests = []
            for seed in SEEDS:
                label = f"{workload} seed={seed} trace={trace}"
                proc = _run(ROOT, workload, seed, trace)
                check(proc.returncode == 0, f"{label}: exit "
                      f"{proc.returncode}\n{proc.stderr[-3000:]}")
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                record = json.loads(lines[-2])["record"]
                check(
                    sorted(result) == ["attempted", "correct", "failed",
                                       "metrics"],
                    f"{label}: result keys {sorted(result)}",
                )
                check(
                    result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1,
                    f"{label}: oracle {result['failed']} of "
                    f"{result['attempted']} failed",
                )
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                check(units == expected[trace], f"{label}: metrics {units}")
                check(
                    all(isinstance(v["value"], (int, float))
                        for v in result["metrics"].values()),
                    f"{label}: non-numeric metric value",
                )
                check(record["children_left"] == 0,
                      f"{label}: {record['children_left']} children left")
                digests.append(record["input_digest"])
                print(f"ok  {label}: {result['attempted']} requests")
            check(len(set(digests)) == len(SEEDS),
                  f"{workload}: seeds {SEEDS} gave the same inputs")
    check(not os.path.exists(os.path.join(ROOT, ".perfbench-tmp")),
          ".perfbench-tmp left behind")
    check(_shm() <= shm_before, f"shared memory left: {_shm() - shm_before}")
    check(_workers() <= workers_before, "worker processes left behind")

    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(bare, spec["workloads"][0]["name"], 1, 0)
        check(proc.returncode != 0, "bare directory: exit 0")
        check('"metrics"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails without a result")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
