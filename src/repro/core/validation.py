"""FD validation against (possibly coarser) stripped partitions.

Implements the paper's Algorithm 4.  The candidate FD ``X → Y`` is
checked using a partition ``π_X'`` with ``X' ⊆ X``: each source cluster
is refined to X-granularity by the LHS attributes ``π_X'`` lacks, and
every row of a refined cluster is compared against the cluster's first
row.  Violating pairs contribute their full agree set ``Z`` as the
non-FD ``Z ↛ R − Z`` — strictly more general evidence than the single
invalid FD, which is exactly what synergized induction wants.  The
work stops as soon as every RHS attribute is invalidated.

Validation is one kernel call
(:func:`repro.partitions.kernels.validate_clusters`), which takes the
partition in its flat ``(rows, lengths)`` form
(:meth:`StrippedPartition.flat`, built once per partition):

* ``numpy`` — the batched kernel every caller runs.  It takes the source clusters in
  batches of geometrically growing row counts, splits a whole batch
  with one sort, compares every row with its pivot in one array
  comparison, and replays the witness rule over the few violating rows
  only, so the early exit survives at batch granularity.
* ``python`` — the per-cluster reference loop over the cluster lists,
  refining and comparing one source cluster at a time; it is the
  differential oracle, selected with ``kernels.use_backend("python")``.

Both return the same :class:`ValidationResult`: the same surviving
RHS, the same non-FD set and the same comparison count, so covers and
discovery statistics do not depend on which kernels ran.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from ..partitions import kernels
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation


class ValidationResult:
    """Outcome of validating one candidate FD."""

    __slots__ = ("valid_rhs", "non_fd_lhs", "comparisons")

    def __init__(self, valid_rhs: AttrSet, non_fd_lhs: Set[AttrSet], comparisons: int):
        #: RHS attributes that survived (the FD lhs -> valid_rhs holds).
        self.valid_rhs = valid_rhs
        #: Agree sets Z of violating pairs; each means Z ↛ R − Z.
        self.non_fd_lhs = non_fd_lhs
        #: Number of row comparisons performed (work accounting).
        self.comparisons = comparisons


def validate_fd(
    relation: Relation,
    lhs: AttrSet,
    rhs: AttrSet,
    partition: StrippedPartition,
) -> ValidationResult:
    """Validate ``lhs -> rhs`` using ``partition`` = π_X' with X' ⊆ lhs.

    Returns the surviving RHS attributes and the agree-set non-FDs of
    every violating pair encountered before the early exit.
    """
    rows, lengths = partition.flat()
    return validate_flat(relation, lhs, rhs, partition.attrs, rows, lengths)


def validate_flat(
    relation: Relation,
    lhs: AttrSet,
    rhs: AttrSet,
    attrs: AttrSet,
    rows: np.ndarray,
    lengths: np.ndarray,
) -> ValidationResult:
    """:func:`validate_fd` with π_X' (``X' = attrs``) in the flat
    ``(rows, lengths)`` form partitions are shipped to pool workers in."""
    if not attrset.is_subset(attrs, lhs):
        raise ValueError(
            "validation partition must refine a subset of the FD's LHS"
        )
    missing = attrset.iter_attrs(attrset.difference(lhs, attrs))
    return ValidationResult(
        *kernels.validate_clusters(
            relation.matrix(),
            [relation.codes(attr) for attr in missing],
            rhs,
            rows,
            lengths,
        )
    )


def check_fd(relation: Relation, lhs: AttrSet, rhs: AttrSet) -> bool:
    """Ground-truth check that ``lhs -> rhs`` holds, from scratch.

    Builds ``π_lhs`` directly; used by tests and the brute-force oracle
    rather than the discovery loop.
    """
    partition = StrippedPartition.for_attrs(relation, lhs)
    for attr in attrset.iter_attrs(rhs):
        if not partition.refines_attribute(relation, attr):
            return False
    return True
