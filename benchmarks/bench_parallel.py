"""Micro-benchmark: serial vs worker-pool validation and ranking.

Times DHyFD's level-validation workload and the redundancy-ranking
workload with ``jobs=1`` against a 4-worker shared-memory pool, asserts
the results are byte-identical, and records the speedups into
``benchmarks/out/parallel_speedups.txt``.

The >= 2x speedup gates only fire on machines with at least 4 CPU
cores — on smaller hosts (CI runners, containers) the identity checks
still run and the measured ratios are still recorded, but a pool
physically cannot beat the serial loop without cores to run on.
"""

from __future__ import annotations

import os
import time

from repro.bench.tables import format_table
from repro.core.dhyfd import DHyFD
from repro.core.validation import validate_fd
from repro.datasets.synthetic import random_relation
from repro.parallel import ParallelExecutor, merge_validation_outcomes, validate_level
from repro.partitions.stripped import StrippedPartition
from repro.ranking.redundancy import NullPolicy, redundancy_positions
from repro.relational import attrset
from repro.relational.fd import FD

from _utils import pick, write_artifact

#: (n_rows, domain) per scale; small domains keep clusters large, the
#: regime where per-candidate validation work dominates dispatch cost.
SHAPE = pick(smoke=(2_000, 4), quick=(20_000, 6), full=(120_000, 8))
N_COLS = 8
JOBS = 4
REPEATS = pick(smoke=2, quick=3, full=3)

#: The speedup assertions need real cores to stand on.
ENOUGH_CORES = (os.cpu_count() or 1) >= JOBS

_rows = []


def _relation():
    n_rows, domain = SHAPE
    return random_relation(n_rows, N_COLS, domain_sizes=domain, seed=7)


def _time(fn):
    """Best-of-N wall clock and the last result."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _record(op, serial_seconds, parallel_seconds):
    speedup = (
        serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    )
    _rows.append(
        [op, f"{serial_seconds:.4f}", f"{parallel_seconds:.4f}", f"{speedup:.1f}x"]
    )
    return speedup


def _validation_items(rel):
    """All pair-LHS candidates with their singleton-product partitions."""
    singles = [StrippedPartition.for_attribute(rel, a) for a in range(N_COLS)]
    items = []
    for i in range(N_COLS):
        for j in range(i + 1, N_COLS):
            lhs = attrset.from_attrs([i, j])
            rhs = attrset.complement(lhs, N_COLS)
            items.append((lhs, rhs, singles[i].intersect(singles[j])))
    return items


def test_level_validation_speedup():
    """A full level-2 validation sweep, serial loop vs 4-worker pool."""
    rel = _relation()
    items = _validation_items(rel)

    def serial():
        return merge_validation_outcomes(
            validate_fd(rel, lhs, rhs, part) for lhs, rhs, part in items
        )

    def pooled():
        with ParallelExecutor(rel, jobs=JOBS) as executor:
            return merge_validation_outcomes(validate_level(executor, items))

    serial_s, serial_r = _time(serial)
    pool_s, pool_r = _time(pooled)
    assert serial_r == pool_r
    speedup = _record(f"validation ({len(items)} candidates)", serial_s, pool_s)
    if ENOUGH_CORES:
        assert speedup >= 2.0, f"validation speedup only {speedup:.1f}x"


def test_redundancy_ranking_speedup():
    """Per-FD redundancy counting, serial loop vs one-FD-per-task pool.

    Dense random data holds no FDs, so the workload uses a synthetic
    pair-LHS cover — redundancy counting only needs the partitions, not
    FD validity, and one π_LHS per task is exactly the parallel unit.
    """
    rel = _relation()
    cover = [
        FD(attrset.from_attrs([i, j]), attrset.complement(attrset.from_attrs([i, j]), N_COLS))
        for i in range(N_COLS)
        for j in range(i + 1, N_COLS)
    ]

    serial_s, serial_r = _time(
        lambda: redundancy_positions(rel, cover, NullPolicy.INCLUDE, jobs=1)
    )
    pool_s, pool_r = _time(
        lambda: redundancy_positions(rel, cover, NullPolicy.INCLUDE, jobs=JOBS)
    )
    assert (serial_r == pool_r).all()
    speedup = _record(f"redundancy ({len(cover)} FDs)", serial_s, pool_s)
    if ENOUGH_CORES:
        assert speedup >= 2.0, f"redundancy speedup only {speedup:.1f}x"


def test_discovery_end_to_end_identical():
    """Full DHyFD with jobs=4: identical cover and stats, timed."""
    rel = _relation()
    serial_s, serial_r = _time(lambda: DHyFD(jobs=1).discover(rel))
    pool_s, pool_r = _time(
        lambda: DHyFD(jobs=JOBS, parallel_min_rows=0).discover(rel)
    )
    assert set(serial_r.fds) == set(pool_r.fds)
    assert serial_r.stats.validations == pool_r.stats.validations
    assert serial_r.stats.comparisons == pool_r.stats.comparisons
    assert serial_r.stats.level_log == pool_r.stats.level_log
    _record("dhyfd end-to-end", serial_s, pool_s)


def teardown_module(module):
    write_artifact(
        "parallel_speedups",
        format_table(
            ["workload", "jobs=1 s", f"jobs={JOBS} s", "speedup"],
            _rows,
            title=f"Worker-pool micro-benchmarks, rows={SHAPE[0]}, "
            f"cols={N_COLS}, cores={os.cpu_count()}, "
            f"scale={pick('smoke', 'quick', 'full')}",
        ),
    )
