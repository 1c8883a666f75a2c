"""Output checks of the benchmark: every operation's result is verified.

Each check returns a list of problems (empty = the output is correct),
so the runner can count a failed check as a failed operation and still
say what went wrong.
"""

from __future__ import annotations

from typing import Dict, List

from repro import FDSet, HyFD, Relation, equivalent
from repro.partitions.kernels import use_backend
from repro.relational.fd_io import cover_payload


def oracle_cover(relation: Relation) -> FDSet:
    """The reference left-reduced cover: HyFD on the per-row python kernels.

    Every algorithm and backend must return the same left-reduced cover,
    so an independent algorithm on the reference kernels is the oracle.
    """
    with use_backend("python"):
        return HyFD().discover(relation).fds


def cover_key(payload: dict) -> tuple:
    """A cover payload (as the service returns it) as comparable content."""
    return (
        tuple(payload["columns"]),
        frozenset((tuple(fd["lhs"]), tuple(fd["rhs"])) for fd in payload["fds"]),
    )


def oracle_key(relation: Relation) -> tuple:
    """:func:`cover_key` of the oracle's cover of ``relation``."""
    return cover_key(cover_payload(oracle_cover(relation), relation.schema))


def check_profile(out, oracle: FDSet, verified_canonical: Dict[tuple, bool]) -> List[str]:
    """Check one ``profile()`` result against the oracle's left-reduced cover.

    ``verified_canonical`` memoises the implication test per
    (left-reduced, canonical) content, so repeated passes over the same
    relation pay for it once; every other check runs on every result.
    """
    problems: List[str] = []
    if not out.discovery.completed:
        problems.append(f"discovery incomplete: {out.discovery.limit_reason}")
    left_reduced = out.discovery.fds
    if left_reduced != oracle:
        problems.append(
            f"left-reduced cover differs from the oracle"
            f" ({len(left_reduced)} vs {len(oracle)} FDs)"
        )
    canonical = out.canonical
    singleton = left_reduced.split()
    if len(canonical) > len(singleton):
        problems.append(
            f"canonical cover larger than left-reduced ({len(canonical)} > {len(singleton)})"
        )
    if canonical.attribute_occurrences > singleton.attribute_occurrences:
        problems.append("canonical cover has more attribute occurrences than left-reduced")
    key = (left_reduced.as_frozenset(), canonical.as_frozenset())
    if key not in verified_canonical:
        verified_canonical[key] = equivalent(canonical, left_reduced)
    if not verified_canonical[key]:
        problems.append("canonical cover is not equivalent to the left-reduced cover")
    problems += check_ranking(out.ranking, canonical)
    problems += check_redundancy(out.redundancy)
    return problems


def check_ranking(ranking, canonical: FDSet) -> List[str]:
    """The ranking lists exactly the canonical FDs, by non-increasing redundancy."""
    if ranking is None:
        return ["no ranking"]
    problems: List[str] = []
    ranked = [entry.fd for entry in ranking.ranked]
    if len(ranked) != len(canonical) or set(ranked) != canonical.as_frozenset():
        problems.append("ranking does not list exactly the canonical FDs")
    counts = [entry.redundancy for entry in ranking.ranked]
    if any(a < b for a, b in zip(counts, counts[1:])):
        problems.append("ranking is not in non-increasing redundancy order")
    if any(
        not 0 <= entry.redundancy_excluding_null <= entry.redundancy
        for entry in ranking.ranked
    ):
        problems.append("an FD has red > red+0 or a negative count")
    return problems


def check_redundancy(report) -> List[str]:
    """Table IV bounds: 0 <= #red <= #red+0 <= #values."""
    if report is None:
        return ["no redundancy report"]
    if not 0 <= report.red_excluding_null <= report.red_including_null <= report.n_values:
        return [
            f"redundancy out of bounds: red={report.red_excluding_null}"
            f" red+0={report.red_including_null} values={report.n_values}"
        ]
    return []


def check_served_cover(status: dict, expected: tuple) -> List[str]:
    """A served job status carries a complete result whose cover is ``expected``.

    ``expected`` is :func:`oracle_key` of the same rows.
    """
    if status.get("status") != "done":
        return [f"job ended {status.get('status')}: {status.get('error')}"]
    result = status.get("result") or {}
    if not result.get("completed"):
        return [f"result incomplete: {result.get('limit_reason')}"]
    if cover_key(result["cover"]) != expected:
        return ["served cover differs from the oracle's"]
    return []
