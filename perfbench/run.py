"""End-to-end benchmark of FD profiling, as a library and as a service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse_rows --seed 1 --seconds 24 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json and
perfbench/README.md):

* ``sparse_rows`` — ``profile()`` over the FD-sparse many-row Table II
  replicas; validation and partition refinement do nearly all the work.
* ``rich_wide`` — ``profile()`` over the FD-rich short-wide replicas;
  the canonical cover, induction and ranking do most of it.
* ``service_mix`` — a two-thread closed loop of warm reads, appends and
  cold uploads through a spawned 2-replica ``repro-fd cluster``.

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
additionally records spans and counters per layer.  Every operation's
output is checked; a failed check counts as a failed operation.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run's context and every figure with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("sparse_rows", "rich_wide", "service_mix")

#: The gated end-to-end metrics, reported by every workload.
END_TO_END = ("setup_s", "peak_rss_mb", "round_ms")

#: Per-layer metrics of the traced run; a layer a workload bypasses reads 0.
PER_LAYER = (
    "datasets.generate_s",
    "core.discover_s", "core.sampling_s", "core.validation_s",
    "core.refinement_s", "fdtree.induction_s",
    "core.validations", "core.comparisons", "core.levels",
    "core.partition_refreshes", "core.sampled_non_fds", "core.partition_peak_mb",
    "fdtree.induction_calls", "fdtree.nodes_visited", "fdtree.fds_inserted",
    "partitions.refine_calls", "partitions.refine_s", "partitions.group_calls",
    "partitions.agree_calls", "partitions.cache_hit_ratio",
    "covers.canonical_s", "covers.input_fds", "covers.output_fds",
    "ranking.rank_s", "ranking.redundancy_s", "ranking.ranked_fds",
    "telemetry.overhead_pct",
    "service.queue_wait_ms", "service.job_run_ms", "service.client_overhead_ms",
    "service.job_validation_s", "service.job_induction_s",
    "service.store_hit_ratio", "service.journal_appends", "incremental.updates",
    "service.response_kb",
    "cluster.router_hop_ms", "cluster.metrics_fanout_ms",
    "algorithms.hyfd_discover_s",
)

UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_kb": "KB", "_pct": "%", "_ratio": "fraction"}


def layer_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    if args.workload == "service_mix":
        import service

        result = service.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        import library

        result = library.run(args.workload, args.seed, args.seconds, bool(args.trace))

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for reason in result.failures[:20]:
        print(f"FAILED {reason}")
    for note in result.notes:
        print(note)
    rows = dict(result.e2e)
    rows.update(result.detail)
    rows["fail_rate"] = (result.failed / max(1, result.attempted), "fraction", result.attempted)
    for name, (value, unit, samples) in rows.items():
        print(f"{name:<18} {value:>14.6g} {unit:<9} n={samples}")
    if args.trace:
        metrics = {
            name: {"value": float(result.layers.get(name, 0.0)), "unit": layer_unit(name)}
            for name in PER_LAYER
        }
        for name, entry in metrics.items():
            print(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    else:
        metrics = {
            name: {"value": result.e2e[name][0], "unit": result.e2e[name][1]}
            for name in END_TO_END
        }
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
