"""The four benchmark workloads.

Each workload generates its inputs from the seed, builds its system
(``setup``, timed by the runner), drives it in a closed loop for a
fixed time (``measure``) and, after the timed window, checks every
answer it received against an oracle (``check``).  Concurrency is
coroutines on one event loop; the only extra threads and processes are
the ones the program starts itself (shard workers).

* ``serve_point`` — 16 clients, single-key lookups through
  ``CoalescingIndexServer`` to a memory-only ``LearnedLSMStore`` (1M
  bulk keys + 200k inserts: several runs and a non-empty memtable);
  keys 90% present (zipfian, theta 0.99) and 10% absent.
* ``batch_point`` — one client, 100k-key ``lookup_batch`` calls (90%
  uniform present, 10% absent) against the same store shape at 8M bulk
  keys, whose key and value arrays outgrow the last-level cache.
* ``ingest`` — one client alternating 250-key ``insert_batch`` updates
  of a 16k-key working set and 250-key ``lookup_batch`` calls on a
  durable 1M-key store whose seals sync the WAL; seals and merges run
  inline in the write that triggers them (YCSB-A-like).
* ``sharded_scan`` — 16 clients against a 2-shard ``ShardedLSMStore``
  (1M keys): 98% ~100-key range scans through the coalescer on the
  client-local shared-memory path, 2% single-key inserts through the
  worker pipes.

``serve_point`` and ``batch_point`` spend the last fifth of their timed
window on 128-key update batches of the keys their set-up inserted,
after the reads: every workload reports write latency, and these are
the writes such a store takes.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from .common import (
    lookup_reference,
    odd_keys,
    sorted_keys,
    sorted_unique,
    value_of,
    zipf_ranks,
)
from .spans import DIRECT_READ, SERVED_READ

CLIENTS = 16


@dataclass
class Window:
    """One timed closed-loop window: each request's end time, latency
    and kind."""

    start: float = 0.0
    elapsed: float = 0.0
    ends: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    writes: list = field(default_factory=list)

    def add(self, t0: float, t1: float, write: bool = False) -> None:
        self.ends.append(t1)
        self.latencies.append(t1 - t0)
        self.writes.append(write)

    @property
    def requests(self) -> int:
        return len(self.ends)

    @property
    def ops_per_s(self) -> float:
        return self.requests / self.elapsed if self.elapsed else 0.0


def _scaled(n: int, scale: float, floor: int = 16) -> int:
    return max(floor, int(n * scale))


def _lsm_counters(store, before: dict, runs_seen: list) -> dict:
    """Per-layer counters of one ``LearnedLSMStore``: read and
    compaction counts over the traced window, write history over the
    store's life (on the read-only workloads all writes are set-up)."""
    now = _lsm_snapshot(store)
    d = {k: now[k] - before[k] for k in now}
    write = store.write_stats
    filtered = d["bloom_rejects"] + d["probe_misses"]
    return {
        "lsm.store.probes_per_lookup": (
            d["run_probes"] / d["lookups"] if d["lookups"] else 0.0
        ),
        "lsm.store.runs_mean": (
            float(np.mean(runs_seen)) if runs_seen else store.num_runs
        ),
        "lsm.store.write_amplification": write.write_amplification,
        "lsm.store.write_stalls": write.write_stalls,
        "lsm.store.stall_s": write.stall_seconds,
        "bloom.useful_ratio": (
            d["bloom_rejects"] / filtered if filtered else 0.0
        ),
        "lsm.compaction.merges": d["compactions"],
        "lsm.compaction.entries_rewritten": d["entries_compacted"],
    }


def _lsm_snapshot(store) -> dict:
    read, write = store.read_stats, store.write_stats
    return {
        "lookups": read.lookups,
        "run_probes": read.run_probes,
        "probe_misses": read.probe_misses,
        "bloom_rejects": read.bloom_rejects,
        "compactions": write.compactions,
        "entries_compacted": write.entries_compacted,
    }


class Workload:
    """Lifecycle shared by every workload (see the module docstring)."""

    name = ""
    #: Share of the timed window given to :meth:`measure_writes`, after
    #: the reads; 0 where the window itself mixes reads and writes.
    write_share = 0.0

    def __init__(self, seed: int, scale: float, seconds: float, tmp_root: str):
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.tmp_root = tmp_root
        self.store = None

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def warm_up(self) -> None:
        self.measure(min(0.5, self.seconds))

    def measure(self, seconds: float, tracer=None) -> Window:
        raise NotImplementedError

    def measure_writes(self, seconds: float) -> Window | None:
        """A timed window of writes alone, for a workload whose
        :meth:`measure` sends none; ``None`` otherwise."""
        return None

    def bytes_per_key(self) -> float:
        raise NotImplementedError

    def counters_begin(self) -> dict | None:
        return _lsm_snapshot(self.store)

    def counters(self, begin) -> dict:
        return _lsm_counters(self.store, begin, [])

    def check(self) -> tuple[int, int]:
        """(requests attempted, requests failed or answered wrongly)."""
        raise NotImplementedError

    def input_digest(self) -> int:
        """Checksum of the bulk keys, which every other input follows."""
        return zlib.crc32(self.bulk.tobytes())


class _PreloadedStore(Workload):
    """Memory-only store: bulk load, then the set-up's insert batches.
    The timed window is lookups, then update batches of the inserted
    keys (:meth:`measure_writes`)."""

    n_bulk = 0
    n_insert = 200_000
    #: Keys per insert batch, in the set-up and in the timed updates.
    #: Of the timed batches 1.6% seal the 8192-entry memtable and 0.4%
    #: also merge runs, so the 99th percentile is the median seal
    #: without a merge, clear of both edges.
    insert_batch = 128
    write_share = 0.2

    def __init__(self, seed, scale, seconds, tmp_root):
        super().__init__(seed, scale, seconds, tmp_root)
        rng = np.random.default_rng([seed, 1])
        self.bulk = sorted_keys(rng, _scaled(self.n_bulk, scale))
        self.bulk_values = value_of(self.bulk)
        # Distinct, so each key's last update is its last batch's.
        self.inserts = rng.permutation(
            np.unique(odd_keys(rng, _scaled(self.n_insert, scale)))
        )
        self.insert_values = value_of(self.inserts)
        self.ref = sorted_unique(self.bulk, self.inserts)
        self._batches = 0
        self._write_errors = 0
        self._write_check = (0, 0)

    def setup(self) -> None:
        from repro.lsm import LearnedLSMStore

        store = LearnedLSMStore(
            self.bulk, self.bulk_values, background=False
        )
        self.store = store
        step = _scaled(self.insert_batch, self.scale, floor=4)
        for i in range(0, self.inserts.size, step):
            store.insert_batch(
                self.inserts[i:i + step], self.insert_values[i:i + step]
            )
        #: Version of each inserted key's value (-1: the set-up's).
        self._version = np.full(self.inserts.size, -1, dtype=np.int64)
        self._write_pos = 0

    def measure_writes(self, seconds: float) -> Window:
        """Update batches cycling through the inserted keys in order for
        ``seconds``: the memtable fills, seals and merges as in the
        set-up, and the store stays the same size.  Afterwards (not
        timed) every inserted key is read back for :meth:`check`."""
        store, keys_all, n = self.store, self.inserts, self.inserts.size
        step = _scaled(self.insert_batch, self.scale, floor=4)
        win = Window(start=time.perf_counter())
        deadline = win.start + seconds
        while not win.requests or time.perf_counter() < deadline:
            i = self._write_pos
            keys = keys_all[i:i + step]
            version = self._batches
            self._batches += 1
            t0 = time.perf_counter()
            try:
                store.insert_batch(keys, value_of(keys, version))
            except Exception:  # noqa: BLE001 - counted as failed
                self._write_errors += 1
            else:
                self._version[i:i + step] = version
            win.add(t0, time.perf_counter(), write=True)
            self._write_pos = i + step if i + step < n else 0
        win.elapsed = time.perf_counter() - win.start
        values, found = store.lookup_batch(keys_all)
        want = value_of(keys_all, self._version)
        wrong = ~np.asarray(found, dtype=bool) | (values != want)
        self._write_check = (
            win.requests,
            self._write_errors + np.unique(self._version[wrong]).size,
        )
        return win

    def _with_writes(self, attempted: int, failed: int) -> tuple[int, int]:
        return attempted + self._write_check[0], failed + self._write_check[1]

    def bytes_per_key(self) -> float:
        return self.store.size_bytes() / self.ref.size


class ServePoint(_PreloadedStore):
    name = "serve_point"
    n_bulk = 1_000_000
    #: Pre-generated keys per second of client time: several times the
    #: rate one event loop sustains, so the pool does not run dry.
    pool_per_s = 60_000

    def __init__(self, seed, scale, seconds, tmp_root):
        super().__init__(seed, scale, seconds, tmp_root)
        rng = np.random.default_rng([seed, 2])
        size = int(self.pool_per_s * (2 * seconds + 1))
        hot = self.ref[rng.permutation(self.ref.size)]
        present = hot[zipf_ranks(rng, self.ref.size, size, 0.99)]
        absent = odd_keys(rng, size)
        pool = np.where(rng.random(size) < 0.1, absent, present)
        self._pool = [pool[c::CLIENTS].tolist() for c in range(CLIENTS)]
        self._cursor = [0] * CLIENTS
        self._keys: list[list] = [[] for _ in range(CLIENTS)]
        self._values: list[list] = [[] for _ in range(CLIENTS)]
        self.server = None

    def setup(self) -> None:
        from repro.serving import CoalescingIndexServer

        super().setup()
        self.server = CoalescingIndexServer(self.store)

    def measure(self, seconds, tracer=None) -> Window:
        win = Window()

        async def client(c: int, deadline: float) -> None:
            pool, keys, values = self._pool[c], self._keys[c], self._values[c]
            lookup = self.server.lookup
            i = self._cursor[c]
            while i < len(pool) and time.perf_counter() < deadline:
                key = pool[i]
                i += 1
                start = time.perf_counter()
                try:
                    value = await lookup(key)
                except Exception:  # noqa: BLE001 - no value matches -1
                    value = -1
                end = time.perf_counter()
                keys.append(key)
                values.append(value)
                win.add(start, end)
                if tracer is not None:
                    tracer.record(SERVED_READ, start, end, 1)
            self._cursor[c] = i

        async def main() -> None:
            win.start = time.perf_counter()
            deadline = win.start + seconds
            await asyncio.gather(*(client(c, deadline) for c in range(CLIENTS)))
            win.elapsed = time.perf_counter() - win.start

        asyncio.run(main())
        return win

    def check(self) -> tuple[int, int]:
        keys = np.array([k for ks in self._keys for k in ks], dtype=np.int64)
        got = [v for vs in self._values for v in vs]
        found = np.array([v is not None for v in got], dtype=bool)
        values = np.array([0 if v is None else v for v in got], dtype=np.int64)
        want_values, want_found = lookup_reference(self.ref, keys)
        wrong = (found != want_found) | (want_found & (values != want_values))
        return self._with_writes(int(keys.size), int(np.count_nonzero(wrong)))


class BatchPoint(_PreloadedStore):
    name = "batch_point"
    n_bulk = 8_000_000
    batch = 100_000

    def __init__(self, seed, scale, seconds, tmp_root):
        super().__init__(seed, scale, seconds, tmp_root)
        self._batch = _scaled(self.batch, scale)
        self._rng = self._request_rng()
        self._digests: list[int] = []

    def _request_rng(self):
        return np.random.default_rng([self.seed, 3])

    def _request(self, rng) -> np.ndarray:
        absent = self._batch // 10
        present = self.ref[
            rng.integers(0, self.ref.size, self._batch - absent)
        ]
        queries = np.concatenate([present, odd_keys(rng, absent)])
        rng.shuffle(queries)
        return queries

    @staticmethod
    def _digest(values, found) -> int:
        values = np.ascontiguousarray(values, dtype=np.int64)
        found = np.ascontiguousarray(found, dtype=bool)
        return zlib.crc32(found.tobytes(), zlib.crc32(values.tobytes()))

    def warm_up(self) -> None:
        self.measure(0.0)

    def measure(self, seconds, tracer=None) -> Window:
        win = Window()
        lookup = self.store.lookup_batch
        win.start = time.perf_counter()
        deadline = win.start + seconds
        # At least one request, so a warm-up with seconds=0 still runs
        # every lazy path once.
        while not win.requests or time.perf_counter() < deadline:
            queries = self._request(self._rng)
            t0 = time.perf_counter()
            try:
                values, found = lookup(queries)
            except Exception:  # noqa: BLE001 - counted as failed
                values = found = None
            t1 = time.perf_counter()
            win.add(t0, t1)
            self._digests.append(
                -1 if values is None else self._digest(values, found)
            )
            if tracer is not None:
                tracer.record(DIRECT_READ, t0, t1, queries.size)
        win.elapsed = time.perf_counter() - win.start
        return win

    def check(self) -> tuple[int, int]:
        rng = self._request_rng()
        failed = 0
        for digest in self._digests:
            values, found = lookup_reference(self.ref, self._request(rng))
            failed += digest != self._digest(values, found)
        return self._with_writes(len(self._digests), failed)


class Ingest(Workload):
    name = "ingest"
    n_bulk = 1_000_000
    #: Keys the updates draw from.  A merge of four seals already spans
    #: it, so merged runs stay in one size tier: the merges cycle every
    #: 16 seals, and no bottom-level merge lands in some runs only.
    working_set = 16_384
    #: Keys per update and per lookup.  At 1k the merges took a larger
    #: and more variable share of the CPU: throughput and every tail
    #: moved 20-100% between runs of one seed.
    batch = 250
    #: Seals before timing starts: one full merge cycle, after which
    #: every window starts at the same point of the next one.
    warm_seals = 16
    #: Half the store's default 8192, so a merge of four seals spans the
    #: working set.  ~1.7% of update batches then run a merge inline,
    #: and the write p99 lies inside those, clear of the seals below.
    memtable_capacity = 4_096
    #: Upper bound on the warm-up, should the store stop sealing.
    warm_up_max_s = 60.0
    #: Ops between samples of ``size_bytes()`` in the timed window.
    size_every = 64

    def __init__(self, seed, scale, seconds, tmp_root):
        super().__init__(seed, scale, seconds, tmp_root)
        rng = np.random.default_rng([seed, 1])
        self.bulk = sorted_keys(rng, _scaled(self.n_bulk, scale))
        self.hot = rng.choice(
            self.bulk, min(self.bulk.size, _scaled(self.working_set, scale)),
            replace=False,
        )
        self._batch = _scaled(self.batch, scale, floor=4)
        self._dir = None

    def setup(self) -> None:
        from repro.lsm import LearnedLSMStore

        self._dir = tempfile.mkdtemp(prefix="ingest-", dir=self.tmp_root)
        self.store = LearnedLSMStore(
            self.bulk, value_of(self.bulk), path=self._dir,
            # WAL appends are written but not fsynced per batch; seals
            # sync the log.  With an fsync per batch, the host's disk
            # set the figures: in runs where its fsyncs slowed, ingest
            # fell to half its throughput and its p99s doubled, while
            # sharded_scan, run in between, did not move.  Compaction
            # runs inline: on a background thread sharing the one CPU,
            # the reads that overlapped a merge made the read p99, and
            # their share grew as the host slowed (p99 5.3-11.7 ms in
            # ten runs, p50 1.5-2.2 ms).
            wal_fsync=False, background=False,
            # Scaled with the working set, so a tiny run still seals
            # and merges.
            memtable_capacity=_scaled(self.memtable_capacity, self.scale),
        )
        # A fresh store replays the op stream from its start.
        self._rng = np.random.default_rng([self.seed, 4])
        self._op = 0
        self._writes: list[tuple[int, np.ndarray]] = []
        self._reads: list[tuple] = []
        self._runs_seen: list[int] = []
        self._sizes: list[int] = []
        self.errors = 0

    def close(self) -> None:
        try:
            super().close()
        finally:
            if self._dir is not None:
                shutil.rmtree(self._dir, ignore_errors=True)
                self._dir = None

    def _step(self, win: Window, tracer) -> None:
        """Even ops update ``batch`` working-set keys; odd ops read
        45% working-set keys, 45% bulk keys and 10% absent keys."""
        op, rng, n = self._op, self._rng, self._batch
        self._op += 1
        if op % 2 == 0:
            keys = np.unique(self.hot[rng.integers(0, self.hot.size, n)])
            values = value_of(keys, op)
            t0 = time.perf_counter()
            try:
                self.store.insert_batch(keys, values)
            except Exception:  # noqa: BLE001 - counted as failed
                self.errors += 1
            else:
                self._writes.append((op, keys))
            win.add(t0, time.perf_counter(), write=True)
        else:
            absent = n // 10
            hot = (n - absent) // 2
            queries = np.concatenate([
                self.hot[rng.integers(0, self.hot.size, hot)],
                self.bulk[rng.integers(0, self.bulk.size, n - absent - hot)],
                odd_keys(rng, absent),
            ])
            if tracer is not None:
                self._runs_seen.append(self.store.num_runs)
            t0 = time.perf_counter()
            try:
                values, found = self.store.lookup_batch(queries)
            except Exception:  # noqa: BLE001 - counted as failed
                self.errors += 1
                values = found = None
            t1 = time.perf_counter()
            win.add(t0, t1)
            self._reads.append((op, queries, values, found))
            if tracer is not None:
                tracer.record(DIRECT_READ, t0, t1, queries.size)

    def warm_up(self) -> None:
        deadline = time.perf_counter() + self.warm_up_max_s
        win = Window()
        while (
            self.store.write_stats.seals < self.warm_seals
            and time.perf_counter() < deadline
        ):
            self._step(win, None)

    def measure(self, seconds, tracer=None) -> Window:
        win = Window(start=time.perf_counter())
        deadline = win.start + seconds
        while time.perf_counter() < deadline:
            if self._op % self.size_every == 0:
                self._sizes.append(self.store.size_bytes())
            self._step(win, tracer)
        win.elapsed = time.perf_counter() - win.start
        return win

    def bytes_per_key(self) -> float:
        """Median over the timed window: the footprint swings with the
        merge cycle, and every key written is a bulk key."""
        return float(np.median(self._sizes)) / self.bulk.size

    def counters(self, begin) -> dict:
        return _lsm_counters(self.store, begin, self._runs_seen)

    def check(self) -> tuple[int, int]:
        """Replay the write log: each read must see, per key, the last
        write acknowledged before the read was issued (ops run one at a
        time, so that is the last write with a smaller op index)."""
        shift = 24
        w_keys = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [k for _, k in self._writes]
        )
        w_ops = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [np.full(k.size, op, dtype=np.int64) for op, k in self._writes]
        )
        composite = (w_keys << shift) | w_ops
        order = np.argsort(composite)
        composite, w_keys, w_ops = composite[order], w_keys[order], w_ops[order]
        failed = self.errors
        for op, queries, values, found in self._reads:
            if values is None:
                continue
            want_values, want_found = lookup_reference(self.bulk, queries)
            if composite.size:
                pos = np.searchsorted(composite, (queries << shift) | op) - 1
                safe = np.maximum(pos, 0)
                last = (pos >= 0) & (w_keys[safe] == queries)
                want_values[last] = value_of(queries[last], w_ops[safe[last]])
                want_found |= last
            found = np.asarray(found, dtype=bool)
            values = np.asarray(values, dtype=np.int64)
            wrong = (found != want_found) | (
                want_found & (values != want_values)
            )
            failed += bool(wrong.any())
        return len(self._reads) + len(self._writes), failed


class ShardedScan(Workload):
    name = "sharded_scan"
    n_bulk = 1_000_000
    shards = 2
    width = 100
    #: An insert's pipe round trip blocks the event loop, so every scan
    #: in flight waits for it.  At 5% inserts about half the ticks held
    #: one, and the median scan sat on the edge between the scans that
    #: waited and those that did not; at 2%, ~27% of ticks hold one.
    write_frac = 0.02
    block = 4_096

    def __init__(self, seed, scale, seconds, tmp_root):
        super().__init__(seed, scale, seconds, tmp_root)
        rng = np.random.default_rng([seed, 1])
        self.bulk = sorted_keys(rng, _scaled(self.n_bulk, scale, floor=1_024))
        self.bulk_values = value_of(self.bulk)
        self.server = None

    def setup(self) -> None:
        from repro.serving import CoalescingIndexServer, ShardedLSMStore

        self.store = ShardedLSMStore(
            self.shards, self.bulk, self.bulk_values, read_via="local"
        )
        self.server = CoalescingIndexServer(self.store)
        # A fresh store restarts every client's request stream.
        self._rngs = [
            np.random.default_rng([self.seed, 5, c]) for c in range(CLIENTS)
        ]
        self._blocks: list[list] = [[] for _ in range(CLIENTS)]
        self._written: list[int] = []
        # One list per field, not a tuple per scan: tens of thousands of
        # tuples would slow the collector's full passes in the window.
        self._scans = {"low": [], "high": [], "seen": [], "done": [], "keys": []}
        self.errors = 0

    def _next(self, c: int) -> tuple:
        """Client ``c``'s next request, from its own seeded stream."""
        block = self._blocks[c]
        if not block:
            rng = self._rngs[c]
            writes = (rng.random(self.block) < self.write_frac).tolist()
            starts = rng.integers(
                0, self.bulk.size - self.width, self.block
            ).tolist()
            fresh = odd_keys(rng, self.block).tolist()
            block.extend(reversed(list(zip(writes, starts, fresh))))
        return block.pop()

    def measure(self, seconds, tracer=None) -> Window:
        win = Window()
        store, bulk, written = self.store, self.bulk, self._written
        scans = self._scans

        async def client(c: int, deadline: float) -> None:
            while time.perf_counter() < deadline:
                is_write, first, fresh = self._next(c)
                if is_write:
                    keys = np.array([fresh], dtype=np.int64)
                    t0 = time.perf_counter()
                    try:
                        store.insert_batch(keys, value_of(keys))
                    except Exception:  # noqa: BLE001 - counted as failed
                        self.errors += 1
                    else:
                        written.append(fresh)
                    win.add(t0, time.perf_counter(), write=True)
                    # The RPC blocks the loop; let the other clients run.
                    await asyncio.sleep(0)
                    continue
                low = int(bulk[first])
                high = int(bulk[first + self.width - 1])
                seen = len(written)
                t0 = time.perf_counter()
                try:
                    keys = await self.server.range_query(low, high)
                except Exception:  # noqa: BLE001 - counted as failed
                    keys = None
                t1 = time.perf_counter()
                win.add(t0, t1)
                scans["low"].append(low)
                scans["high"].append(high)
                scans["seen"].append(seen)
                scans["done"].append(len(written))
                scans["keys"].append(keys)
                if tracer is not None:
                    tracer.record(SERVED_READ, t0, t1, 1)

        async def main() -> None:
            win.start = time.perf_counter()
            deadline = win.start + seconds
            await asyncio.gather(*(client(c, deadline) for c in range(CLIENTS)))
            win.elapsed = time.perf_counter() - win.start

        asyncio.run(main())
        return win

    def bytes_per_key(self) -> float:
        """Bytes of the runs in the shards' current epochs, per live key
        (the sharded store has no ``size_bytes``; memtables are left
        out).  The epochs are read from a pinned snapshot, so runs that
        a retired epoch still maps do not count."""
        live = sum(s["live_keys"] for s in self.store.shard_stats())
        with self.store.snapshot() as snap:
            runs = [
                run for epoch in snap._epochs if epoch is not None
                for run in epoch.runs
            ]
            return sum(run.size_bytes() for run in runs) / live

    def counters_begin(self):
        return None

    def counters(self, begin) -> dict:
        return {}

    def check(self) -> tuple[int, int]:
        """A scan issued after ``seen`` acknowledged writes and finished
        after ``done`` must return the bulk keys in range, every earlier
        write in range, and a prefix of the writes acknowledged while it
        was in flight (the epoch it read from).  Most ranges never held
        a write; those are checked at once against the bulk slice."""
        written = np.array(self._written, dtype=np.int64)
        order = np.argsort(written, kind="stable")
        w_sorted, w_index = written[order], order
        bulk = self.bulk
        scans = self._scans
        results = scans["keys"]
        lows = np.array(scans["low"], dtype=np.int64)
        highs = np.array(scans["high"], dtype=np.int64)
        quiet = np.searchsorted(w_sorted, lows) == np.searchsorted(
            w_sorted, highs, side="right"
        )
        answered = np.array([r is not None for r in results], dtype=bool)
        failed = self.errors + int(np.count_nonzero(~answered))

        fast = np.flatnonzero(quiet & answered)
        start = np.searchsorted(bulk, lows[fast])
        want = np.searchsorted(bulk, highs[fast], side="right") - start
        got = np.array([len(results[i]) for i in fast], dtype=np.int64)
        failed += int(np.count_nonzero(got != want))
        same = got == want
        fast, start, want = fast[same], start[same], want[same]
        if fast.size:
            flat = np.concatenate(
                [np.asarray(results[i], dtype=np.int64) for i in fast]
            )
            offsets = np.cumsum(want) - want
            pos = np.repeat(start - offsets, want) + np.arange(flat.size)
            scan_of = np.repeat(np.arange(fast.size), want)
            failed += np.unique(scan_of[flat != bulk[pos]]).size

        for i in np.flatnonzero(~quiet & answered):
            low, high = scans["low"][i], scans["high"][i]
            seen, done = scans["seen"][i], scans["done"][i]
            keys = np.asarray(results[i], dtype=np.int64)
            a, b = np.searchsorted(w_sorted, [low, high + 1])
            in_range = w_index[a:b]
            base = sorted_unique(
                bulk[np.searchsorted(bulk, low):np.searchsorted(bulk, high, "right")],
                written[in_range[in_range < seen]],
            )
            if done == seen:
                failed += not np.array_equal(keys, base)
                continue
            pending = written[seen:done]
            pending = pending[(pending >= low) & (pending <= high)]
            extra = np.setdiff1d(keys, base)
            present = np.isin(pending, keys) | np.isin(pending, base)
            prefix = present.size == 0 or not np.any(~present[:-1] & present[1:])
            ok = (
                np.all(np.diff(keys) > 0)
                and np.isin(base, keys).all()
                and np.isin(extra, pending).all()
                and prefix
            )
            failed += not ok
        return len(scans["keys"]) + len(self._written) + self.errors, failed


WORKLOADS = {
    cls.name: cls for cls in (ServePoint, BatchPoint, Ingest, ShardedScan)
}
