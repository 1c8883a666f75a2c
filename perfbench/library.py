"""The library workloads: ``profile()`` over Table II replicas in-process.

``sparse_rows`` profiles the FD-sparse many-row replicas, where
validation and partition refinement do nearly all the work;
``rich_wide`` profiles the FD-rich short-wide replicas, where the
canonical cover, FD-tree induction and ranking do.  Both run the
default configuration (DHyFD, numpy backend, serial jobs), single
threaded.

The seed relabels the values of each replica (see
:func:`common.relabel_rows`): every seed hands the program different values
with the same structure, so a run's cost depends on the code, not on
the seed.
"""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro import FDSet, Relation, make_algorithm, profile, trace_summary
from repro.covers import compare_covers
from repro.datasets.benchmarks import load_benchmark
from repro.ranking import dataset_redundancy, rank_cover
from repro.telemetry import Tracer, use_tracer

from checks import check_profile, oracle_cover
from common import Result, median, relabel_rows, vm_hwm_mb

#: (replica, rows) per workload; None rows = the replica's bench scale.
CELLS: Dict[str, List[Tuple[str, Optional[int]]]] = {
    "sparse_rows": [
        ("weather", 1098), ("lineitem", 1000), ("pdbx", 1000),
        ("adult", 1110), ("letter", 1000),
    ],
    # Smaller than the Table II bench scale so a run holds several passes.
    "rich_wide": [("hepatitis", 20), ("plista", 8), ("echo", None), ("ncvoter", 300)],
}

#: Before each pass, set-up is sampled for at least this long.
SETUP_SAMPLE_S = 0.5
#: A profile() call slower than this counts as a failed operation.
OP_TIME_LIMIT_S = 60.0
#: However its operations fare, the timed phase ends after this many
#: times ``seconds`` of wall time (plus set-up and checks).
WALL_LIMIT_FACTOR = 2.0


Relations = List[Tuple[str, Relation]]
Times = Dict[str, List[float]]


class Inputs:
    """The workload's seed-relabelled rows, made once per run outside any timer."""

    def __init__(self, workload: str, seed: int):
        self.cells = []
        for name, rows in CELLS[workload]:
            replica = load_benchmark(name, n_rows=rows)
            self.cells.append(
                (name, rows, relabel_rows(replica, seed), replica.schema, replica.semantics)
            )

    @property
    def names(self) -> List[str]:
        return [cell[0] for cell in self.cells]

    def set_up(self, generate_times: Times, setup_times: Times) -> Relations:
        """Generate each replica and encode the seed's rows; timed per relation.

        ``generate_times`` gets the time of ``load_benchmark`` alone,
        ``setup_times`` that plus the encoding of the relation profiled.
        """
        relations = []
        for name, rows, data, schema, semantics in self.cells:
            start = time.perf_counter()
            load_benchmark(name, n_rows=rows)
            generated = time.perf_counter()
            relation = Relation.from_rows(data, schema, semantics=semantics)
            end = time.perf_counter()
            generate_times[name].append(generated - start)
            setup_times[name].append(end - start)
            relations.append((name, relation))
        return relations

    def relations(self) -> Relations:
        return [
            (name, Relation.from_rows(data, schema, semantics=semantics))
            for name, _, data, schema, semantics in self.cells
        ]


def _oracle_covers(inputs: Inputs) -> Dict[str, FDSet]:
    return {name: oracle_cover(relation) for name, relation in inputs.relations()}


def oracle_covers(inputs: Inputs) -> Dict[str, FDSet]:
    """One oracle cover per relation, computed in a child process.

    The child keeps the oracle's memory out of this process's high-water
    RSS, which ``peak_rss_mb`` reports for ``profile()`` alone.
    """
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("fork")
    ) as pool:
        return pool.submit(_oracle_covers, inputs).result()


def sum_of_minima(times: Times) -> float:
    """The sum over relations of each one's fastest time, for set-up.

    On a shared VM the CPU's speed can flip between two modes about 2x
    apart several times a second, with CPU time tracking wall time.  A
    set-up sample (5-50 ms) falls in one mode or the other, so their
    median jumps with the share of slow time; the fastest of many
    samples tracks the code.  A profile() call spans many flips and
    averages them, so its median is the steadier figure.
    """
    return sum(min(values) for values in times.values())


def sum_of_medians(times: Times) -> float:
    return sum(median(values) for values in times.values())


def _timed_passes(
    inputs: Inputs, seconds: float, oracles: Dict[str, FDSet], result: Result
) -> Tuple[Relations, Times, Times, Times]:
    """Set-up plus untraced ``profile()`` passes until ``seconds`` are measured.

    Before each pass, set-up runs repeatedly for SETUP_SAMPLE_S, so it is
    sampled across the same stretch of time as the passes.  Neither
    set-up nor the checks count toward ``seconds``; failed calls do.
    Every output is checked as soon as it is timed.  The phase ends early
    after a pass in which no call succeeded, or at the wall-time limit.
    Returns the last pass's relations, the generation and set-up times
    per relation, and each relation's call times: those of its checked
    calls, or of all its calls when none passed.  The runner reports
    medians, so a burst of host noise moves one sample, not the result.
    """
    names = inputs.names
    generate_times: Times = {name: [] for name in names}
    setup_times: Times = {name: [] for name in names}
    passed: Times = {name: [] for name in names}
    attempted: Times = {name: [] for name in names}
    verified: Dict[tuple, bool] = {}
    deadline = time.perf_counter() + WALL_LIMIT_FACTOR * seconds
    measured = 0.0
    while True:
        relations: Optional[Relations] = None
        sampled = 0.0
        while relations is None or sampled < SETUP_SAMPLE_S:
            start = time.perf_counter()
            relations = inputs.set_up(generate_times, setup_times)
            sampled += time.perf_counter() - start
        any_passed = False
        for name, relation in relations:
            gc.collect()
            result.attempted += 1
            start = time.perf_counter()
            try:
                out, error = profile(relation), None
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                out, error = None, exc
            elapsed = time.perf_counter() - start
            measured += elapsed
            attempted[name].append(elapsed)
            if error is not None:
                result.fail(f"{name}: profile() raised {error!r}")
                continue
            if elapsed > OP_TIME_LIMIT_S:
                result.fail(f"{name}: profile() took {elapsed:.1f}s")
                continue
            problems = check_profile(out, oracles[name], verified)
            if problems:
                result.fail(f"{name}: " + "; ".join(problems))
                continue
            passed[name].append(elapsed)
            any_passed = True
        if measured >= seconds or not any_passed or time.perf_counter() > deadline:
            break
    times = {name: passed[name] or attempted[name] for name in names}
    return relations, generate_times, setup_times, times


def _traced_pass(relations, hyfd_reference: bool) -> Tuple[Dict[str, float], Dict[str, float]]:
    """One pass calling each layer's public function under the benchmark's spans.

    Mirrors :func:`repro.profile`: discover, canonical cover, ranking,
    data-set redundancy.  Returns each relation's wall time and the
    pass's per-layer numbers.
    """
    tracer = Tracer()
    layers: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        layers[key] = layers.get(key, 0.0) + value

    elapsed: Dict[str, float] = {}
    with use_tracer(tracer):
        for name, relation in relations:
            start = time.perf_counter()
            with tracer.span("bench.discover"):
                discovery = make_algorithm("dhyfd").discover(relation)
            with tracer.span("bench.covers"):
                canonical, _ = compare_covers(discovery.fds)
            with tracer.span("bench.rank"):
                ranking = rank_cover(relation, canonical)
            with tracer.span("bench.redundancy"):
                dataset_redundancy(relation, canonical)
            elapsed[name] = time.perf_counter() - start
            stats = discovery.stats
            add("core.validations", stats.validations)
            add("core.comparisons", stats.comparisons)
            add("core.levels", stats.levels_processed)
            add("core.partition_refreshes", stats.partition_refreshes)
            add("core.sampled_non_fds", stats.sampled_non_fds)
            layers["core.partition_peak_mb"] = max(
                layers.get("core.partition_peak_mb", 0.0),
                stats.partition_memory_peak_bytes / 2**20,
            )
            add("fdtree.induction_calls", stats.induction_calls)
            add("fdtree.nodes_visited", stats.induction_nodes_visited)
            add("fdtree.fds_inserted", stats.induction_fds_inserted)
            add("covers.input_fds", len(discovery.fds))
            add("covers.output_fds", len(canonical))
            add("ranking.ranked_fds", len(ranking.ranked))
    if hyfd_reference:
        # Outside the pass time and untraced, so HyFD's phase spans stay
        # out of DHyFD's: the Table II reference gates nothing.
        start = time.perf_counter()
        for _, relation in relations:
            make_algorithm("hyfd").discover(relation)
        layers["algorithms.hyfd_discover_s"] = time.perf_counter() - start

    summary = trace_summary(tracer)
    spans = summary["spans"]
    counters = summary.get("counters", {})
    histograms = summary.get("histograms", {})

    def span_s(name: str) -> float:
        return spans.get(name, {}).get("seconds", 0.0)

    layers.update({
        "core.discover_s": span_s("bench.discover"),
        "core.sampling_s": span_s("sampling"),
        "core.validation_s": span_s("validation"),
        "core.refinement_s": span_s("refinement"),
        "fdtree.induction_s": span_s("induction"),
        "covers.canonical_s": span_s("bench.covers"),
        "ranking.rank_s": span_s("bench.rank"),
        "ranking.redundancy_s": span_s("bench.redundancy"),
        "partitions.refine_calls": counters.get("kernels.refine.numpy.calls", 0),
        "partitions.refine_s": histograms.get("kernels.refine.numpy.seconds", {}).get("sum", 0.0),
        "partitions.group_calls": counters.get("kernels.group.numpy.calls", 0),
        "partitions.agree_calls": counters.get("kernels.agree.numpy.calls", 0),
    })
    hits = counters.get("partition_cache.hits", 0)
    misses = counters.get("partition_cache.misses", 0)
    layers["partitions.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return elapsed, layers


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run one library workload; the result carries every metric of the mode."""
    result = Result()
    inputs = Inputs(workload, seed)
    # Outside set-up and the timed passes, in a child process.
    oracles = oracle_covers(inputs)
    # The traced run splits its time: untraced passes give the base the
    # tracing overhead is measured against.
    untraced_seconds = seconds / 2 if trace else seconds
    relations, generate_times, setup_times, times = _timed_passes(
        inputs, untraced_seconds, oracles, result
    )
    rss = vm_hwm_mb()
    samples = min(len(t) for t in times.values())
    pass_s = sum_of_medians(times)
    calls = sum(len(t) for t in times.values())
    result.e2e = {
        "setup_s": (sum_of_minima(setup_times), "s", len(setup_times[inputs.names[0]])),
        "peak_rss_mb": (rss, "MB", 1),
        "round_ms": (pass_s * 1000.0, "ms", samples),
    }
    result.detail = {
        "pass_s": (pass_s, "s", samples),
        "throughput_ops": (calls / sum(sum(t) for t in times.values()), "ops/s", calls),
    }
    if trace:
        traced: List[Tuple[Dict[str, float], Dict[str, float]]] = []
        start = time.perf_counter()
        try:
            while not traced or time.perf_counter() - start < seconds - untraced_seconds:
                traced.append(_traced_pass(relations, hyfd_reference=workload == "sparse_rows"))
        except Exception as exc:  # noqa: BLE001 — reported, not fatal
            result.attempted += 1
            result.fail(f"traced pass raised {exc!r}")
        layers: Dict[str, float] = {}
        if traced:
            layers = {
                key: statistics.fmean(pass_layers[key] for _, pass_layers in traced)
                for key in traced[0][1]
            }
            traced_pass_s = sum(
                median([elapsed[name] for elapsed, _ in traced]) for name, _ in relations
            )
            layers["telemetry.overhead_pct"] = 100.0 * (traced_pass_s - pass_s) / pass_s
            result.detail["traced_pass_s"] = (traced_pass_s, "s", len(traced))
            result.notes = _split_notes(layers)
        layers["datasets.generate_s"] = sum_of_minima(generate_times)
        result.layers = layers
    return result


#: The phases a traced pass divides into, for the layer-split notes.
PHASES = (
    "core.sampling_s", "core.validation_s", "core.refinement_s", "fdtree.induction_s",
    "covers.canonical_s", "ranking.rank_s", "ranking.redundancy_s",
)


def _split_notes(layers: Dict[str, float]) -> List[str]:
    """Where a traced pass spent its time, and the Table II reference."""
    traced = sum(layers[k] for k in ("core.discover_s", "covers.canonical_s",
                                     "ranking.rank_s", "ranking.redundancy_s"))
    largest = max(PHASES, key=layers.__getitem__)
    notes = [
        f"split: validation {layers['core.validation_s'] / traced:.0%},"
        f" covers {layers['covers.canonical_s'] / traced:.1%} of a traced pass;"
        f" largest layer {largest} ({layers[largest]:.2f} s)"
    ]
    hyfd = layers.get("algorithms.hyfd_discover_s")
    if hyfd:
        dhyfd = layers["core.discover_s"]
        order = "holds" if dhyfd <= hyfd else "is flipped"
        notes.append(
            f"Table II reference: DHyFD {dhyfd:.2f} s, HyFD {hyfd:.2f} s; the ordering {order}"
        )
    return notes
