"""Benchmark-side tracing: spans around calls into each layer.

:class:`Tracer` replaces the public entry points listed in
:data:`TARGETS` with wrappers for the duration of a ``with`` block and
restores them on exit; nothing in the program is edited, and the
program's own telemetry (``REPRO_OBS``) stays off.  Each wrapper
records ``(id, name, start, end, parent, thread, size)`` in memory;
``parent`` comes from a per-thread stack, so a background compaction
thread's spans nest among themselves.  A layer's self time is its
spans' time minus the time of their child spans.

Time inside shard worker processes is not traced: a sharded write is
one ``serving.sharded.write_rpc`` span on the client.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

#: (module, owner attribute or None for a module function, attribute,
#: span name, index of the positional argument whose size is recorded).
TARGETS = (
    ("repro.lsm", "LearnedLSMStore", "lookup_batch", "lsm.store.read", 1),
    ("repro.lsm", "LearnedLSMStore", "range_query_batch", "lsm.store.read", 1),
    ("repro.lsm", "LearnedLSMStore", "insert_batch", "lsm.store.write", 1),
    ("repro.serving", "ShardedLSMStore", "lookup_batch",
     "serving.sharded.local_read", 1),
    ("repro.serving", "ShardedLSMStore", "range_query_batch",
     "serving.sharded.local_read", 1),
    ("repro.serving", "ShardedLSMStore", "insert_batch",
     "serving.sharded.write_rpc", 1),
    ("repro.serving", "CDFSplitter", "shard_of_batch",
     "serving.splitter.route", 1),
    ("repro.serving", "CDFSplitter", "shards_overlapping",
     "serving.splitter.route", 1),
    ("repro.lsm", "SortedRun", "bloom_contains_batch", "bloom.contains", 1),
    ("repro.lsm", "SortedRun", "probe_batch", "lsm.run.probe", 1),
    ("repro.lsm", "SortedRun", "range_scan_batch", "lsm.run.range", 1),
    ("repro.lsm", "SortedRun", "__init__", "lsm.run.build", 1),
    ("repro.lsm", "SortedRun", "from_arrays", "lsm.run.build", 1),
    ("repro.core", "RecursiveModelIndex", "lookup_batch", "core.rmi.lookup", 1),
    ("repro.core", "RecursiveModelIndex", "range_query_batch",
     "core.rmi.range", 1),
    ("repro.lsm", "WriteAheadLog", "append_puts", "lsm.wal.append", 1),
    ("repro.lsm", "Memtable", "put_batch", "lsm.memtable.put", 1),
    # The store module calls these by their imported names.
    ("repro.lsm.store", None, "merge_runs", "lsm.compaction.merge", None),
    ("repro.lsm.store", None, "merge_scan_results", "range_scan.merge", None),
)

#: Spans a client records around its own read requests: through the
#: coalescer, or straight to the store.  They are not layer calls.
SERVED_READ = "serving.request"
DIRECT_READ = "client.read"

#: Per-layer metric -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER_UNITS = {
    "serving.coalescer.wait_p50_us": "us",
    "serving.coalescer.batch_keys_mean": "keys",
    "serving.coalescer.self_share": "ratio",
    "serving.sharded.local_read_self_us": "us",
    "serving.sharded.write_rpc_p50_us": "us",
    "serving.sharded.write_rpc_p99_us": "us",
    "serving.splitter.route_self_s": "s",
    "lsm.store.read_self_s": "s",
    "lsm.store.probes_per_lookup": "count",
    "lsm.store.runs_mean": "count",
    "lsm.store.write_amplification": "ratio",
    "lsm.store.write_stalls": "count",
    "lsm.store.stall_s": "s",
    "bloom.contains_self_s": "s",
    "bloom.share": "ratio",
    "bloom.useful_ratio": "ratio",
    "core.rmi.lookup_self_s": "s",
    "core.rmi.ns_per_key": "ns",
    "core.rmi.range_self_s": "s",
    "lsm.run.probe_self_s": "s",
    "lsm.run.range_self_s": "s",
    "lsm.run.build_s": "s",
    "range_scan.merge_self_s": "s",
    "lsm.wal.append_p50_us": "us",
    "lsm.wal.append_p99_us": "us",
    "lsm.memtable.put_self_s": "s",
    "lsm.compaction.merge_s": "s",
    "lsm.compaction.merges": "count",
    "lsm.compaction.entries_rewritten": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}

class Tracer:
    """Installs the :data:`TARGETS` wrappers while active."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, size_arg: int | None):
        records, ids, local = self.records, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                size = (
                    int(np.size(args[size_arg]))
                    if size_arg is not None and len(args) > size_arg
                    else 0
                )
                records.append((
                    sid, name, start, end, parent, threading.get_ident(),
                    size,
                ))

        return traced

    def record(self, name: str, start: float, end: float, size: int = 0):
        """A span measured by the caller (a client request)."""
        self.records.append((
            next(self._ids), name, start, end, -1, threading.get_ident(),
            size,
        ))

    def __enter__(self) -> "Tracer":
        import importlib

        try:
            for module_name, owner_name, attr, name, size_arg in TARGETS:
                module = importlib.import_module(module_name)
                owner = (
                    module if owner_name is None
                    else getattr(module, owner_name)
                )
                original = (
                    owner.__dict__[attr] if owner_name is not None
                    else getattr(owner, attr)
                )
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, original.__func__, size_arg)
                    )
                else:
                    wrapped = self._wrap(name, original, size_arg)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``; names as codes)."""
        s = _Spans(self.records)
        names, codes = np.unique(s.names.astype(str), return_inverse=True)
        np.savez(
            path, names=names, name=codes, id=s.ids, start=s.start,
            end=s.end, parent=s.parent, thread=s.thread, size=s.size,
        )


class _Spans:
    """Column view of a tracer's records with self times."""

    def __init__(self, records: list[tuple]):
        cols = list(zip(*records)) if records else [()] * 7
        self.ids = np.array(cols[0], dtype=np.int64)
        self.names = np.array(cols[1], dtype=object)
        self.start = np.array(cols[2], dtype=np.float64)
        self.end = np.array(cols[3], dtype=np.float64)
        self.parent = np.array(cols[4], dtype=np.int64)
        self.thread = np.array(cols[5], dtype=np.int64)
        self.size = np.array(cols[6], dtype=np.int64)
        self.dur = self.end - self.start
        # Subtract each span's duration from its parent; a parent still
        # open when tracing stopped was never recorded and is skipped.
        order = np.argsort(self.ids)
        sorted_ids = self.ids[order]
        pos = np.searchsorted(sorted_ids, self.parent)
        safe = np.minimum(pos, max(sorted_ids.size - 1, 0))
        has_parent = (self.parent >= 0) & (sorted_ids.size > 0)
        if sorted_ids.size:
            has_parent &= sorted_ids[safe] == self.parent
        child = np.zeros(self.ids.size)
        np.add.at(child, order[safe[has_parent]], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.names, names)

    def total_self(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())


def _pct_us(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q) * 1e6) if samples.size else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    wall_s: float,
    main_thread: int,
    counters: dict,
    traced_ops_per_s: float,
    untraced_ops_per_s: float,
) -> dict:
    """Every per-layer metric from one traced window; layers the
    workload bypasses read 0."""
    s = _Spans(tracer.records)
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    on_main = (s.thread == main_thread) & (s.parent < 0)
    calls = on_main & s.mask("lsm.store.read", "serving.sharded.local_read")

    # Coalescer: a read request's wait is its latency minus the store
    # call that served it (the last call ending before it resumed).
    reads = s.mask(SERVED_READ)
    if reads.any() and calls.any():
        call_order = np.argsort(s.end[calls])
        call_end = s.end[calls][call_order]
        call_start = s.start[calls][call_order]
        call_dur = s.dur[calls][call_order]
        t0, t1 = s.start[reads], s.end[reads]
        j = np.searchsorted(call_end, t1, side="right") - 1
        ok = (j >= 0) & (call_start[np.maximum(j, 0)] >= t0)
        wait = (t1 - t0)[ok] - call_dur[j[ok]]
        out["serving.coalescer.wait_p50_us"] = _pct_us(wait, 50)
        out["serving.coalescer.self_share"] = float(
            wait.sum() / (t1 - t0)[ok].sum()
        ) if ok.any() else 0.0
        out["serving.coalescer.batch_keys_mean"] = float(
            s.size[calls].mean()
        )

    local = s.mask("serving.sharded.local_read")
    if local.any():
        out["serving.sharded.local_read_self_us"] = float(
            s.self_time[local].mean() * 1e6
        )
    rpc = s.dur[s.mask("serving.sharded.write_rpc")]
    out["serving.sharded.write_rpc_p50_us"] = _pct_us(rpc, 50)
    out["serving.sharded.write_rpc_p99_us"] = _pct_us(rpc, 99)
    out["serving.splitter.route_self_s"] = s.total_self(
        "serving.splitter.route"
    )

    out["lsm.store.read_self_s"] = s.total_self("lsm.store.read")
    out["bloom.contains_self_s"] = s.total_self("bloom.contains")
    store_read = s.total("lsm.store.read")
    if store_read:
        out["bloom.share"] = s.total("bloom.contains") / store_read
    out["core.rmi.lookup_self_s"] = s.total_self("core.rmi.lookup")
    rmi_keys = int(s.size[s.mask("core.rmi.lookup")].sum())
    if rmi_keys:
        out["core.rmi.ns_per_key"] = (
            out["core.rmi.lookup_self_s"] / rmi_keys * 1e9
        )
    out["core.rmi.range_self_s"] = s.total_self("core.rmi.range")
    out["lsm.run.probe_self_s"] = s.total_self("lsm.run.probe")
    out["lsm.run.range_self_s"] = s.total_self("lsm.run.range")
    out["lsm.run.build_s"] = s.total("lsm.run.build")
    out["range_scan.merge_self_s"] = s.total_self("range_scan.merge")
    wal = s.dur[s.mask("lsm.wal.append")]
    out["lsm.wal.append_p50_us"] = _pct_us(wal, 50)
    out["lsm.wal.append_p99_us"] = _pct_us(wal, 99)
    out["lsm.memtable.put_self_s"] = s.total_self("lsm.memtable.put")
    out["lsm.compaction.merge_s"] = s.total("lsm.compaction.merge")

    # Store counters come from the workload (none on sharded_scan).
    out.update(counters)

    # Main-thread layer spans never overlap (one call stack), so their
    # summed top-level time is the attributed part of the window.
    top = on_main & ~s.mask(SERVED_READ, DIRECT_READ)
    out["trace.unattributed_share"] = max(
        0.0, 1.0 - float(s.dur[top].sum()) / wall_s
    )
    if untraced_ops_per_s:
        out["trace.overhead"] = 1.0 - traced_ops_per_s / untraced_ops_per_s
    return out
