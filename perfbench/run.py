#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 36 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run is :data:`SUBRUNS` sub-runs, one after the
other, each in a fresh process: set-up (timed), warm-up, a timed
window of ``seconds / SUBRUNS`` and the oracle.  A read-only
workload gives the last ``write_share`` of its window to update
batches.  Metrics combine the sub-runs, so the speed a process happens
to get (its memory, the moment the host gives it) is averaged rather
than drawn once.  Each sub-run, and every process it starts,
runs on one CPU.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric of ``BENCHMARK.json``.  With ``--trace 1`` one sub-run measures
an untraced window and then a traced window (see ``perfbench/spans.py``),
each ``seconds / 2`` long less any write share, and the metrics are the
per-layer ones.  The line before the result is a record of the run:
host, configuration, per-sub-run figures, sample counts and the failed
fraction.  Exit status is 1 when any answer was wrong or any request
failed, 2 when the library is missing or a sub-run crashed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Sub-runs per untraced run.  Each costs a process start and a set-up
#: (~9 s on batch_point), so four keep a run under a minute.
SUBRUNS = 4
#: A run whose sub-runs have not all answered this long after it
#: started stops the one still going and fails (the limit for a whole
#: run is 180 s).
RUN_DEADLINE_S = 160
#: End-to-end metric -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "bytes_per_key": "B/key",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every input size (the smoke test runs tiny)",
    )
    return parser.parse_args(argv)


def _subrun(conn, args, seconds: float, tmp_root: str) -> None:
    """Child process: one set-up, warm-up, window(s) and oracle; sends
    the raw figures (or the traceback) to the parent."""
    # Stopped by the parent, unwind through the store's clean-up so
    # its shard workers and shared memory go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        conn.send(_measure(args, seconds, tmp_root))
    except BaseException:  # noqa: BLE001 - relayed, the parent fails
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


def _measure(args, seconds: float, tmp_root: str) -> dict:
    import numpy as np

    from perfbench.spans import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the client, the store's background thread and its
        # shard workers (which inherit it): a hand-off between them then
        # never waits for the host to wake an idle virtual CPU, a wait
        # that otherwise sets the tail latencies (see README.md).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed, args.scale, seconds, tmp_root)
    out = {"input_digest": workload.input_digest()}
    read_s = seconds * (1 - workload.write_share)
    try:
        start = time.perf_counter()
        workload.setup()
        out["setup_s"] = time.perf_counter() - start
        workload.warm_up()
        window = workload.measure(read_s)
        if args.trace:
            untraced = window
            begin = workload.counters_begin()
            with Tracer() as tracer:
                window = workload.measure(read_s, tracer)
            counters = workload.counters(begin)
        # Before any update phase, so it is the footprint the reads saw.
        out["bytes_per_key"] = workload.bytes_per_key()
        write_win = workload.measure_writes(seconds - read_s)
    finally:
        workload.close()
    out["attempted"], out["failed"] = workload.check()
    out["elapsed"] = window.elapsed
    out["latencies"] = np.asarray(window.latencies, dtype=np.float64)
    out["writes"] = np.asarray(window.writes, dtype=bool)
    if write_win is not None:
        out["write_source"] = "update phase"
        out["write_latencies"] = np.asarray(
            write_win.latencies, dtype=np.float64
        )
    else:
        out["write_source"] = "window"
        out["write_latencies"] = out["latencies"][out["writes"]]
    if args.trace:
        out["layers"] = layer_metrics(
            tracer,
            wall_s=window.elapsed,
            main_thread=threading.get_ident(),
            counters=counters,
            traced_ops_per_s=window.ops_per_s,
            untraced_ops_per_s=untraced.ops_per_s,
        )
        out["spans"] = len(tracer.records)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.npz"
        ))
    return out


def _spawn(args, seconds: float, tmp_root: str, deadline: float) -> dict:
    """Run :func:`_subrun` in a fresh process and wait for it to end;
    fail if it has not answered by ``deadline`` (``time.monotonic``)."""
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_subrun, args=(child, args, seconds, tmp_root))
    proc.start()
    child.close()
    out = None
    try:
        if not parent.poll(max(0.0, deadline - time.monotonic())):
            raise RuntimeError(f"sub-runs gave no answer in {RUN_DEADLINE_S} s")
        out = parent.recv()
    except EOFError:
        raise RuntimeError(f"sub-run died (exit code {proc.exitcode})") from None
    finally:
        # A sub-run that answered is closing its store; any other one
        # is stopped at once, and killed if it does not end.
        proc.join(30 if out is not None else 0)
        if proc.is_alive():
            proc.terminate()
            proc.join(5)
        if proc.is_alive():
            proc.kill()
            proc.join()
        parent.close()
    if "error" in out:
        raise RuntimeError("sub-run failed:\n" + out["error"])
    return out


def run(args, tmp_root: str) -> tuple[dict, dict]:
    """(record, result) of one run."""
    from perfbench.common import host_record, subrun_summary

    host = host_record(ROOT, args.seed)
    subruns = 1 if args.trace else SUBRUNS
    # A traced sub-run measures two windows, untraced and traced.
    seconds = args.seconds / (2 if args.trace else SUBRUNS)
    deadline = time.monotonic() + RUN_DEADLINE_S
    parts = [_spawn(args, seconds, tmp_root, deadline) for _ in range(subruns)]
    summary = subrun_summary(parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if args.trace:
        metrics = parts[0]["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in parts),
            "ops_per_s": summary["ops_per_s"],
            "read_p50_us": summary["read_us"][0],
            "read_p99_us": summary["read_us"][1],
            "write_p50_us": summary["write_us"][0],
            "write_p99_us": summary["write_us"][1],
            "bytes_per_key": statistics.median(
                p["bytes_per_key"] for p in parts
            ),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "host": host,
        "input_digest": parts[0]["input_digest"],
        "subruns": [
            {
                "setup_s": p["setup_s"],
                "window_s": p["elapsed"],
                "requests": int(p["latencies"].size),
                "ops_per_s": p["latencies"].size / p["elapsed"],
                "bytes_per_key": p["bytes_per_key"],
            }
            for p in parts
        ],
        "samples": {
            "requests": summary["requests"],
            "reads": summary["reads"],
            "writes": summary["writes"],
            "write_source": parts[0]["write_source"],
        },
        "failed_frac": failed / attempted if attempted else 1.0,
        "spans": parts[0].get("spans"),
        "children_left": len(multiprocessing.active_children()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss / 1024,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def _become_subreaper() -> None:
    """Make processes orphaned by a stopped sub-run (its shard workers)
    children of this one, so :func:`_end_children` can end them (Linux)."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _end_children() -> None:
    """Leave no process behind: kill and reap any orphan left by a
    stopped sub-run, then stop multiprocessing's resource tracker (which
    unlinks shared memory those orphans leaked) and wait for it.  The
    tracker is started with the first spawned process and otherwise
    ends only after it sees this process exit."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    # On SIGTERM, unwind through the clean-up below (sub-runs stopped,
    # temp dirs removed) instead of dying on the spot.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _become_subreaper()
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_LSM_BACKGROUND", None)
    # NumPy asks for huge pages on large arrays; whether it gets them,
    # and how long the kernel compacts memory first, depends on how
    # fragmented the host's memory is.  Plain pages make runs comparable
    # (inherited by every sub-run and shard worker).
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.spans import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    tmp_parent = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_parent)
    try:
        record, result = run(args, tmp_root)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run is still using it
        _end_children()
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
