"""Shared pieces of the benchmark: the result record, statistics, and /proc reads."""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro import NULL, Relation

#: name -> (value, unit, sample count)
Metrics = Dict[str, Tuple[float, str, int]]


@dataclass
class Result:
    """What one run measured, plus its operation and failure counts."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: The gated end-to-end metrics (reported with ``--trace 0``).
    e2e: Metrics = field(default_factory=dict)
    #: The workload's own end-to-end figures, printed but not gated.
    detail: Metrics = field(default_factory=dict)
    #: Per-layer numbers of the traced run (name -> value).
    layers: Dict[str, float] = field(default_factory=dict)
    #: One-line findings of the traced run, printed before the result.
    notes: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def relabel_rows(relation: Relation, seed: int) -> List[list]:
    """The relation's rows with each column's values renamed by a seed-drawn bijection.

    Codes follow first occurrence, so the program sees the same codes,
    partitions and FDs under new values: the seed changes the input but
    not the work.  (A seeded row order or generator would change the
    work: one weather row order needs 3.5x the validations of another.)
    """
    rng = random.Random(seed)
    rows = [list(row) for row in relation.iter_rows()]
    for col in range(relation.n_cols):
        distinct = list(dict.fromkeys(row[col] for row in rows if row[col] is not NULL))
        labels = list(range(len(distinct)))
        rng.shuffle(labels)
        mapping = {value: f"c{col}v{label}" for value, label in zip(distinct, labels)}
        for row in rows:
            if row[col] is not NULL:
                row[col] = mapping[row[col]]
    return rows


def relabel(relation: Relation, seed: int) -> Relation:
    """:func:`relabel_rows`, encoded as a relation with the same schema."""
    return Relation.from_rows(
        relabel_rows(relation, seed), relation.schema, semantics=relation.semantics
    )


def vm_hwm_mb(pid: str = "self") -> float:
    """High-water resident set size of a process, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
