"""Micro-benchmark: join-FD discovery, virtual vs materialized join.

``repro.multitable`` claims two things (docs/multitable.md): the
lifted relation is *byte-identical* to the materialized join — same
fingerprint, same cover, same ranked order — and the virtual path
never pays for the join itself, only for the lifted code arrays.

The workload is the star schema (``repro.datasets.star``): one
expand step (authors fan out over posts) and one forward step (posts
resolve subreddits) under ``on_dangling="pad"``, so the join is
larger than any base table and carries outer-join nulls.

Assertions:

* identity at every scale: lifted fingerprint == materialized
  fingerprint, covers and ranked orders byte-identical, and the
  virtual path emits **zero** ``multitable.materialize`` telemetry
  events (the materialized oracle announces itself; silence proves
  the join was never built);
* above smoke scale, *join construction* (provenance + lift) beats
  the real hash join on both tracemalloc peak memory and wall time —
  the materialized path pays for decoded Python row tuples plus a
  full re-encode before discovery even starts — and the end-to-end
  pipelines (which share the identical discovery + ranking cost) stay
  within noise of each other.

Writes ``benchmarks/out/BENCH_multitable.json`` (uploaded by CI) plus
a human-readable table.
"""

from __future__ import annotations

import json
import os
import platform
import time
import tracemalloc

from repro import memplane
from repro.algorithms.registry import make_algorithm
from repro.bench.tables import format_table
from repro.datasets.star import STAR_PATH, reddit_star_graph
from repro.multitable import (
    build_provenance,
    discover_join_fds,
    lift_relation,
    materialize_join,
)
from repro.ranking.ranker import rank_cover
from repro.relational.fd_io import cover_to_json
from repro.settings import override
from repro.telemetry import Tracer, use_tracer

from _utils import OUT_DIR, SCALE, pick

#: Fact-table rows per scale (authors = posts/4, subreddits = posts/50).
N_POSTS = pick(smoke=300, quick=1_500, full=4_000)
#: Best-of batches per path (same role as bench_topk's REPEATS).
REPEATS = pick(smoke=1, quick=2, full=3)

#: Timing/memory gates need joins big enough to out-shout noise.
ASSERT_WINS = SCALE != "smoke"
#: Join construction alone — provenance + lift vs the real hash join —
#: is where the virtual path wins structurally (no decoded row tuples,
#: no re-encode).  Measured at quick scale: ~3.3x / ~1.6x.
MIN_JOIN_TIME_RATIO = 2.0
MIN_JOIN_MEM_RATIO = 1.3
#: End to end both sides pay the identical discovery + ranking, which
#: dominates the profile, so the ratio hovers around 1.0 and jitters
#: with discovery timing (measured spread on a loaded single-core
#: runner: 0.90x-1.24x time, 0.98x-1.16x memory).  These are loose
#: backstops against the virtual path becoming pathologically slower,
#: not win gates — the win gate is the join stage above.
MIN_TIME_RATIO = 0.75
MIN_MEM_RATIO = 0.85

_results = {}


def star_graph():
    return reddit_star_graph(n_posts=N_POSTS, seed=7)


def virtual_join(graph):
    """Join construction only: provenance + lift (no discovery)."""
    return lift_relation(
        graph, build_provenance(graph, STAR_PATH, on_dangling="pad")
    )


def materialized_join(graph):
    return materialize_join(graph, STAR_PATH, on_dangling="pad")


def virtual_pipeline(graph):
    """The multitable path: provenance + lift + discover + rank."""
    return discover_join_fds(graph, STAR_PATH, on_dangling="pad")


def materialized_pipeline(graph):
    """The strawman: really build the join, then the same pipeline."""
    joined = materialize_join(graph, STAR_PATH, on_dangling="pad")
    discovery = make_algorithm("dhyfd").discover(joined)
    ranking = rank_cover(joined, discovery.fds)
    return joined, discovery, ranking


def ranked_snapshot(ranking):
    return tuple(
        (entry.fd, entry.redundancy, entry.redundancy_excluding_null)
        for entry in ranking.ranked
    )


def timed(fn, *args):
    """Best-of-REPEATS *cold* wall clock plus the last return value.

    Both pipelines produce fingerprint-identical relations, so with
    the memory plane on the second path would inherit the first's
    warm shared partition tier — the comparison must run cold.
    """
    best, value = float("inf"), None
    try:
        with override(memplane=False):
            for _ in range(REPEATS):
                memplane.reset_tiers()
                start = time.perf_counter()
                value = fn(*args)
                best = min(best, time.perf_counter() - start)
    finally:
        memplane.reset_tiers()
    return best, value


def peak_memory(fn, *args):
    """tracemalloc peak (bytes) of one cold run."""
    tracemalloc.start()
    try:
        with override(memplane=False):
            memplane.reset_tiers()
            tracemalloc.reset_peak()
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        memplane.reset_tiers()


def test_identity_and_never_materializes():
    graph = star_graph()

    tracer = Tracer()
    with use_tracer(tracer):
        virtual = virtual_pipeline(graph)
    materialize_events = tracer.counter("multitable.materialize.calls").value
    assert materialize_events == 0, "virtual path built the join"

    joined, discovery, ranking = materialized_pipeline(graph)
    assert virtual.relation.fingerprint() == joined.fingerprint()
    assert cover_to_json(
        virtual.discovery.fds, virtual.relation.schema
    ) == cover_to_json(discovery.fds, joined.schema)
    assert ranked_snapshot(virtual.ranking) == ranked_snapshot(ranking)

    _results["identity"] = {
        "n_join_rows": virtual.provenance.n_rows,
        "padded_cells": virtual.provenance.padded_cells,
        "cover_size": len(discovery.fds),
        "intra": virtual.intra_count,
        "inter": virtual.inter_count,
        "materialize_events_on_virtual_path": materialize_events,
    }


def compare(key, virtual_fn, materialized_fn, min_time, min_mem):
    graph = star_graph()
    virtual_s, _ = timed(virtual_fn, graph)
    materialized_s, _ = timed(materialized_fn, graph)
    virtual_peak = peak_memory(virtual_fn, graph)
    materialized_peak = peak_memory(materialized_fn, graph)

    time_ratio = materialized_s / virtual_s if virtual_s > 0 else float("inf")
    mem_ratio = (
        materialized_peak / virtual_peak if virtual_peak > 0 else float("inf")
    )
    _results[key] = {
        "repeats": REPEATS,
        "virtual_seconds": round(virtual_s, 4),
        "materialized_seconds": round(materialized_s, 4),
        "time_ratio": round(time_ratio, 2),
        "virtual_peak_bytes": virtual_peak,
        "materialized_peak_bytes": materialized_peak,
        "memory_ratio": round(mem_ratio, 2),
    }
    if ASSERT_WINS:
        assert time_ratio >= min_time, (
            f"{key}: virtual only {time_ratio:.2f}x faster "
            f"({virtual_s:.3f}s vs {materialized_s:.3f}s)"
        )
        assert mem_ratio >= min_mem, (
            f"{key}: virtual only {mem_ratio:.2f}x smaller at peak "
            f"({virtual_peak} vs {materialized_peak} bytes)"
        )


def test_join_construction_wins():
    """Provenance + lift vs the real hash join, nothing else."""
    compare(
        "join", virtual_join, materialized_join,
        MIN_JOIN_TIME_RATIO, MIN_JOIN_MEM_RATIO,
    )


def test_virtual_beats_materialized():
    """End to end: both sides pay the same discovery + ranking."""
    compare(
        "pipeline", virtual_pipeline, materialized_pipeline,
        MIN_TIME_RATIO, MIN_MEM_RATIO,
    )


def teardown_module(module):
    report = {
        "bench": "multitable",
        "scale": SCALE,
        "workload": {
            "star_n_posts": N_POSTS,
            "path": list(STAR_PATH),
            "on_dangling": "pad",
        },
        "gates": {
            "join_time_ratio": MIN_JOIN_TIME_RATIO if ASSERT_WINS else None,
            "join_memory_ratio": MIN_JOIN_MEM_RATIO if ASSERT_WINS else None,
            "time_ratio": MIN_TIME_RATIO if ASSERT_WINS else None,
            "memory_ratio": MIN_MEM_RATIO if ASSERT_WINS else None,
        },
        "env": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "results": _results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "BENCH_multitable.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    rows = []
    for key, label in (("join", "join only"), ("pipeline", "discover + rank")):
        if key not in _results:
            continue
        r = _results[key]
        rows.append(
            [
                label,
                f"{r['virtual_seconds']:.4f}s / {r['virtual_peak_bytes'] // 1024}KiB",
                f"{r['materialized_seconds']:.4f}s / "
                f"{r['materialized_peak_bytes'] // 1024}KiB",
                f"{r['time_ratio']:.2f}x / {r['memory_ratio']:.2f}x",
            ]
        )
    if "identity" in _results:
        r = _results["identity"]
        rows.append(
            [
                "identity",
                f"{r['n_join_rows']} join rows",
                f"{r['cover_size']} FDs "
                f"({r['intra']} intra / {r['inter']} inter)",
                "byte-identical",
            ]
        )
    print(
        "\n"
        + format_table(
            ["workload", "virtual join", "materialized join", "win"],
            rows,
            title=f"Virtual vs materialized join, posts={N_POSTS}, "
            f"scale={SCALE}",
        )
        + f"\n[written to {path}]"
    )
