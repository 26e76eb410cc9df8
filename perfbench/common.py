"""Input generation, latency summaries and the host record.

Keys live in ``[0, 2**KEY_BITS)``.  Bulk-loaded keys are even and
written keys are odd, so a generated insert never collides with the
bulk load and a random odd key is absent unless the workload wrote it.
Every value is a function of its key and the operation that wrote it,
so the oracle recomputes expected answers instead of storing them.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

import numpy as np

KEY_BITS = 38
#: Writes carry their operation index in the value's high bits, so a
#: read that returns an older version of a key does not match.
_VERSION_SHIFT = 40


def sorted_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` sorted unique even keys from cumulative random gaps —
    O(n) with no sort, so an 8M-key input costs ~0.1 s."""
    mean_gap = max(2, (1 << KEY_BITS) // max(n, 1))
    gaps = rng.integers(1, mean_gap, n, dtype=np.int64) * 2
    return np.cumsum(gaps)


def odd_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random odd keys (fresh writes, or absent probes)."""
    return rng.integers(0, 1 << (KEY_BITS - 1), n, dtype=np.int64) * 2 + 1


def value_of(keys: np.ndarray, version: int = -1) -> np.ndarray:
    """The value stored for ``keys`` by operation ``version`` (-1 is
    the bulk load and every write of a workload without versions)."""
    return np.asarray(keys, dtype=np.int64) + ((version + 2) << _VERSION_SHIFT)


def zipf_ranks(
    rng: np.random.Generator, n_items: int, size: int, theta: float
) -> np.ndarray:
    """``size`` ranks in ``[0, n_items)`` with P(rank r) ~ 1/(r+1)^theta
    (YCSB's zipfian, which allows theta < 1 unlike ``Generator.zipf``)."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** theta
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ranks, n_items - 1)


def sorted_unique(*parts: np.ndarray) -> np.ndarray:
    """Sorted distinct keys of the concatenated ``parts`` (a plain sort;
    ``np.union1d`` costs ~100x more on 8M keys here)."""
    keys = np.sort(np.concatenate(parts))
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def lookup_reference(
    ref_keys: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, found) of a read-only store holding ``ref_keys`` (sorted)
    with bulk values — the ``np.searchsorted`` oracle."""
    queries = np.asarray(queries, dtype=np.int64)
    order = np.argsort(queries)
    pos = np.empty(queries.size, dtype=np.int64)
    # Sorted probes walk the reference in order: ~10x faster at 8M keys.
    pos[order] = np.searchsorted(ref_keys, queries[order])
    safe = np.minimum(pos, ref_keys.size - 1)
    found = (pos < ref_keys.size) & (ref_keys[safe] == queries)
    values = np.where(found, value_of(queries), 0)
    return values, found


def _percentiles_us(samples: list) -> tuple[float, float]:
    """(p50, p99) in µs: the mean over sub-runs of each one's own
    percentiles of ``samples`` (arrays of seconds, one per sub-run);
    (0, 0) when there are none.

    A mean, not a percentile of the pooled samples: on a shared VM a
    process can run this code ~45% slower than the next one for its
    whole life, so the pooled
    samples are a mixture whose p50 or p99 jumps from one cluster to the
    other as the share of slow sub-runs crosses it.  The mean moves in
    even steps.  Exact order statistics: the 4.4%-wide buckets of
    ``repro.obs.histogram.summarize_latencies`` would step a gated
    metric in jumps a sixth of its bound."""
    per_run = [np.percentile(s, [50, 99]) for s in samples if len(s)]
    if not per_run:
        return 0.0, 0.0
    p50, p99 = np.mean(per_run, axis=0) * 1e6
    return float(p50), float(p99)


def subrun_summary(parts: list) -> dict:
    """Throughput and latency over the timed windows of several
    sub-runs: all requests over all window time, and each percentile
    averaged over the sub-runs.  Write latencies are each part's
    ``write_latencies`` (the window's writes, or its update phase)."""
    requests = sum(p["latencies"].size for p in parts)
    elapsed = sum(p["elapsed"] for p in parts)
    reads = [p["latencies"][~p["writes"]] for p in parts]
    writes = [p["write_latencies"] for p in parts]
    return {
        "ops_per_s": requests / elapsed if elapsed else 0.0,
        "read_us": _percentiles_us(reads),
        "write_us": _percentiles_us(writes),
        "requests": int(requests),
        "reads": int(sum(r.size for r in reads)),
        "writes": int(sum(w.size for w in writes)),
    }


def searchsorted_floor(seed: int, n: int = 1_000_000, queries: int = 100_000) -> float:
    """Keys/s of ``np.searchsorted`` over ``n`` sorted keys — the floor
    every index layer is priced against.  Median of 5 batches."""
    rng = np.random.default_rng([seed, 99])
    keys = sorted_keys(rng, n)
    probe = rng.choice(keys, queries)
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        np.searchsorted(keys, probe)
        rates.append(queries / (time.perf_counter() - start))
    return float(np.median(rates))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_record(root: str, seed: int) -> dict:
    """Recorded with every result, never gated: lets records from
    different hosts be normalised later."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "searchsorted_floor_keys_per_s": searchsorted_floor(seed),
    }
