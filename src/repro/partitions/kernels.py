"""Backend-switchable kernels for the partition and agree-set hot paths.

Every discovery algorithm in this library bottoms out in five array
operations: grouping rows by codes (partition construction), splitting
existing clusters by more codes (Algorithm 5 refinement), the TANE
partition product, agree-set computation over row pairs, and FD
validation against a partition (Algorithm 4).  This module implements
each operation twice:

* ``backend="python"`` — the original per-row dict/loop reference
  implementations, kept as the differential-testing oracle;
* ``backend="numpy"`` — vectorized implementations over flat row-index
  arrays (``lexsort`` grouping, ``reduceat`` reductions, ``packbits``
  bitmask packing) that do O(rows) work in C instead of Python.

Both backends return *identical* results: cluster lists are emitted in
a canonical order (sorted by each cluster's first row index, with rows
inside a cluster in ascending order, assuming ascending inputs), and
agree sets are plain :class:`~repro.relational.attrset.AttrSet` ints.
``tests/test_kernels_differential.py`` cross-checks the two backends on
randomized relations under both null semantics.

The process-wide default backend is ``numpy``; it can be overridden
with the ``REPRO_FD_BACKEND`` environment variable, per call via the
``backend=`` keyword, or globally via :func:`set_default_backend`
(the CLI's ``--backend`` flag does the latter).

When telemetry is enabled (:func:`repro.telemetry.current_tracer`),
every kernel call records a ``kernels.<op>.<backend>`` counter and a
seconds histogram, so traces show exactly where partition time goes.
"""

from __future__ import annotations

import bisect
import itertools
import os
import time
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..telemetry import current_tracer

Cluster = List[int]

#: Recognized backend names, in reference-first order.
BACKENDS = ("python", "numpy")

_default_backend = os.environ.get("REPRO_FD_BACKEND", "numpy")
if _default_backend not in BACKENDS:
    raise ValueError(
        f"REPRO_FD_BACKEND must be one of {BACKENDS}, got {_default_backend!r}"
    )


def get_default_backend() -> str:
    """The backend used when a kernel is called with ``backend=None``."""
    return _default_backend


def set_default_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _default_backend
    backend = resolve_backend(backend)
    previous = _default_backend
    _default_backend = backend
    return previous


def resolve_backend(backend: Optional[str]) -> str:
    """Validate ``backend``, mapping ``None`` to the current default."""
    if backend is None:
        return _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


class use_backend:
    """Context manager that temporarily switches the default backend."""

    def __init__(self, backend: str):
        self.backend = resolve_backend(backend)
        self._previous: Optional[str] = None

    def __enter__(self) -> str:
        self._previous = set_default_backend(self.backend)
        return self.backend

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_default_backend(self._previous)


def _record(tracer, op: str, backend: str, seconds: float) -> None:
    metrics = tracer.metrics
    metrics.counter(f"kernels.{op}.{backend}.calls").inc()
    metrics.histogram(f"kernels.{op}.{backend}.seconds").observe(seconds)


def _canonical(clusters: List[Cluster]) -> List[Cluster]:
    """Order clusters by their first row so backends agree exactly."""
    clusters.sort(key=lambda cluster: cluster[0])
    return clusters


def _flatten(
    clusters: Sequence[Cluster], dtype=np.int64
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten cluster lists into flat (rows, cluster-ids) arrays."""
    lengths = np.fromiter(
        (len(c) for c in clusters), dtype=np.int64, count=len(clusters)
    )
    rows = np.fromiter(
        itertools.chain.from_iterable(clusters),
        dtype=dtype,
        count=int(lengths.sum()),
    )
    cids = np.repeat(np.arange(len(clusters), dtype=dtype), lengths)
    return rows, cids


def flatten_clusters(
    clusters: Sequence[Cluster],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten cluster lists into ``(rows, lengths)`` index arrays.

    The compact transport format used to ship partitions to pool
    workers: two int64 arrays instead of nested Python lists.  Inverse
    of :func:`unflatten_clusters`.
    """
    lengths = np.fromiter(map(len, clusters), dtype=np.int64, count=len(clusters))
    rows = np.fromiter(
        itertools.chain.from_iterable(clusters),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return rows, lengths


def unflatten_clusters(rows: np.ndarray, lengths: np.ndarray) -> List[Cluster]:
    """Rebuild cluster lists from ``(rows, lengths)`` index arrays."""
    clusters: List[Cluster] = []
    start = 0
    row_list = rows.tolist()
    for length in lengths.tolist():
        clusters.append(row_list[start:start + length])
        start += length
    return clusters


def _emit(srows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> List[Cluster]:
    """Slice sorted rows into clusters, already in canonical order.

    Reorders the (start, end) group bounds by each group's first row —
    groups are disjoint so first rows are unique — then does one bulk
    ``tolist`` and cheap Python-list slicing per group.
    """
    if len(starts) == 0:
        return []
    order = np.argsort(srows[starts], kind="stable")
    starts_list = starts[order].tolist()
    ends_list = ends[order].tolist()
    rows_list = srows.tolist()
    return [rows_list[s:e] for s, e in zip(starts_list, ends_list)]


# ----------------------------------------------------------------------
# Grouping: all rows by one code array (π_A construction)
# ----------------------------------------------------------------------


def group_rows(codes: np.ndarray, backend: Optional[str] = None) -> List[Cluster]:
    """Group all rows by ``codes``; clusters of size >= 2, canonical order."""
    backend = resolve_backend(backend)
    impl = _group_rows_numpy if backend == "numpy" else _group_rows_python
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(codes)
    start = time.perf_counter()
    result = impl(codes)
    _record(tracer, "group", backend, time.perf_counter() - start)
    return result


def _group_rows_python(codes: np.ndarray) -> List[Cluster]:
    buckets: dict = {}
    for row in range(len(codes)):
        code = int(codes[row])
        bucket = buckets.get(code)
        if bucket is None:
            buckets[code] = [row]
        else:
            bucket.append(row)
    return _canonical([b for b in buckets.values() if len(b) >= 2])


def _group_rows_numpy(codes: np.ndarray) -> List[Cluster]:
    if len(codes) < 2:
        return []
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.nonzero(np.diff(sorted_codes))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(order)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(order, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Refinement: split clusters by one or more code arrays (Algorithm 5)
# ----------------------------------------------------------------------


def refine_clusters(
    codes_list: Sequence[np.ndarray],
    clusters: Sequence[Cluster],
    backend: Optional[str] = None,
) -> List[Cluster]:
    """Split every cluster by the codes of one or more attributes.

    Rows that end up alone are stripped; the surviving clusters come
    back in canonical order.  ``codes_list`` may hold several code
    arrays — the numpy backend then groups by the full key tuple in a
    single ``lexsort`` pass instead of refining attribute by attribute.
    """
    backend = resolve_backend(backend)
    impl = (
        _refine_clusters_numpy if backend == "numpy" else _refine_clusters_python
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(codes_list, clusters)
    start = time.perf_counter()
    result = impl(codes_list, clusters)
    _record(tracer, "refine", backend, time.perf_counter() - start)
    return result


def _refine_clusters_python(
    codes_list: Sequence[np.ndarray], clusters: Sequence[Cluster]
) -> List[Cluster]:
    result: List[Cluster] = [list(c) for c in clusters]
    for codes in codes_list:
        next_clusters: List[Cluster] = []
        for cluster in result:
            buckets: dict = {}
            for row in cluster:
                code = int(codes[row])
                bucket = buckets.get(code)
                if bucket is None:
                    buckets[code] = [row]
                else:
                    bucket.append(row)
            next_clusters.extend(
                bucket for bucket in buckets.values() if len(bucket) >= 2
            )
        result = next_clusters
        if not result:
            break
    return _canonical(result)


def _refine_clusters_numpy(
    codes_list: Sequence[np.ndarray], clusters: Sequence[Cluster]
) -> List[Cluster]:
    if not clusters:
        return []
    if not codes_list:
        return _canonical([list(c) for c in clusters])
    rows, cids = _flatten(clusters)
    keys = [codes[rows] for codes in codes_list]
    # lexsort's last key is primary: cluster id first, then the codes.
    order = np.lexsort(tuple(keys) + (cids,))
    srows = rows[order]
    scids = cids[order]
    change = scids[1:] != scids[:-1]
    for key in keys:
        skey = key[order]
        change |= skey[1:] != skey[:-1]
    boundaries = np.nonzero(change)[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(srows)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(srows, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Partition product (TANE's π_X ∩ π_Y)
# ----------------------------------------------------------------------


def intersect_clusters(
    n_rows: int,
    left: Sequence[Cluster],
    right: Sequence[Cluster],
    backend: Optional[str] = None,
) -> List[Cluster]:
    """The probe-table partition product of two cluster lists."""
    backend = resolve_backend(backend)
    impl = (
        _intersect_clusters_numpy if backend == "numpy" else _intersect_clusters_python
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(n_rows, left, right)
    start = time.perf_counter()
    result = impl(n_rows, left, right)
    _record(tracer, "intersect", backend, time.perf_counter() - start)
    return result


def _intersect_clusters_python(
    n_rows: int, left: Sequence[Cluster], right: Sequence[Cluster]
) -> List[Cluster]:
    tag = np.full(n_rows, -1, dtype=np.int64)
    for cluster_id, cluster in enumerate(left):
        for row in cluster:
            tag[row] = cluster_id
    new_clusters: List[Cluster] = []
    for cluster in right:
        groups: dict = {}
        for row in cluster:
            t = tag[row]
            if t >= 0:
                groups.setdefault(int(t), []).append(row)
        for group in groups.values():
            if len(group) >= 2:
                new_clusters.append(group)
    return _canonical(new_clusters)


def _intersect_clusters_numpy(
    n_rows: int, left: Sequence[Cluster], right: Sequence[Cluster]
) -> List[Cluster]:
    if not left or not right:
        return []
    # int32 keys make the radix sort roughly twice as cheap; fall back
    # to int64 when the composite (cid, tag) key could overflow.
    if n_rows < 2**31 and len(left) * len(right) < 2**31:
        dtype = np.int32
    else:
        dtype = np.int64
    tag = np.full(n_rows, -1, dtype=dtype)
    left_rows, left_cids = _flatten(left, dtype)
    tag[left_rows] = left_cids
    rows, cids = _flatten(right, dtype)
    tags = tag[rows]
    if tags.min(initial=0) < 0:
        valid = tags >= 0
        rows, cids, tags = rows[valid], cids[valid], tags[valid]
    if len(rows) < 2:
        return []
    # single composite key: (cid, tag) packed into one integer.
    key = cids * dtype(len(left)) + tags
    order = np.argsort(key, kind="stable")
    srows = rows[order]
    skey = key[order]
    boundaries = np.nonzero(skey[1:] != skey[:-1])[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(srows)]))
    keep = np.nonzero(ends - starts >= 2)[0]
    return _emit(srows, starts[keep], ends[keep])


# ----------------------------------------------------------------------
# Constant-per-cluster check (FD verification π_X refines A)
# ----------------------------------------------------------------------


def clusters_constant_on(
    codes: np.ndarray,
    clusters: Sequence[Cluster],
    backend: Optional[str] = None,
) -> bool:
    """True iff every cluster holds a single code value of ``codes``."""
    backend = resolve_backend(backend)
    impl = (
        _clusters_constant_on_numpy
        if backend == "numpy"
        else _clusters_constant_on_python
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(codes, clusters)
    start = time.perf_counter()
    result = impl(codes, clusters)
    _record(tracer, "constant", backend, time.perf_counter() - start)
    return result


def _clusters_constant_on_python(
    codes: np.ndarray, clusters: Sequence[Cluster]
) -> bool:
    for cluster in clusters:
        first = codes[cluster[0]]
        for row in cluster[1:]:
            if codes[row] != first:
                return False
    return True


def _clusters_constant_on_numpy(
    codes: np.ndarray, clusters: Sequence[Cluster]
) -> bool:
    if not clusters:
        return True
    lengths = np.fromiter(
        (len(c) for c in clusters), dtype=np.int64, count=len(clusters)
    )
    rows = np.concatenate([np.asarray(c, dtype=np.int64) for c in clusters])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    values = codes[rows]
    mins = np.minimum.reduceat(values, starts)
    maxs = np.maximum.reduceat(values, starts)
    return bool(np.all(mins == maxs))


# ----------------------------------------------------------------------
# Agree sets (sampling and FDEP's negative cover)
# ----------------------------------------------------------------------


def agree_masks(
    matrix: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    backend: Optional[str] = None,
) -> List[AttrSet]:
    """Agree-set bitmask of each row pair ``(rows_a[i], rows_b[i])``."""
    backend = resolve_backend(backend)
    impl = _agree_masks_numpy if backend == "numpy" else _agree_masks_python
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(matrix, rows_a, rows_b)
    start = time.perf_counter()
    result = impl(matrix, rows_a, rows_b)
    _record(tracer, "agree", backend, time.perf_counter() - start)
    return result


def _agree_masks_python(
    matrix: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> List[AttrSet]:
    masks: List[AttrSet] = []
    for row_a, row_b in zip(rows_a, rows_b):
        equal = matrix[row_a] == matrix[row_b]
        mask = 0
        for col in np.nonzero(equal)[0]:
            mask |= 1 << int(col)
        masks.append(mask)
    return masks


def _pack_bool_rows(equal: np.ndarray) -> List[AttrSet]:
    """Turn an ``(n, n_cols)`` bool array into per-row bitmask ints."""
    if equal.shape[0] == 0:
        return []
    packed = np.packbits(equal, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * width:(i + 1) * width], "little")
        for i in range(equal.shape[0])
    ]


def _agree_masks_numpy(
    matrix: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray
) -> List[AttrSet]:
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    return _pack_bool_rows(matrix[rows_a] == matrix[rows_b])


def pairwise_agree_sets(
    matrix: np.ndarray, backend: Optional[str] = None
) -> Set[AttrSet]:
    """Distinct agree sets over *all* row pairs (FDEP's negative cover).

    Full-schema masks from duplicate rows are included; callers that
    need the non-trivial cover filter them out.
    """
    backend = resolve_backend(backend)
    impl = (
        _pairwise_agree_sets_numpy
        if backend == "numpy"
        else _pairwise_agree_sets_python
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return impl(matrix)
    start = time.perf_counter()
    result = impl(matrix)
    _record(tracer, "agree_all", backend, time.perf_counter() - start)
    return result


def _pairwise_agree_sets_python(matrix: np.ndarray) -> Set[AttrSet]:
    n_rows = matrix.shape[0]
    agree_sets: Set[AttrSet] = set()
    for i in range(n_rows):
        row_i = matrix[i]
        for j in range(i + 1, n_rows):
            equal = row_i == matrix[j]
            mask = 0
            for col in np.nonzero(equal)[0]:
                mask |= 1 << int(col)
            agree_sets.add(mask)
    return agree_sets


def _pairwise_agree_sets_numpy(matrix: np.ndarray) -> Set[AttrSet]:
    n_rows = matrix.shape[0]
    agree_sets: Set[AttrSet] = set()
    for i in range(n_rows - 1):
        agree_sets.update(_pack_bool_rows(matrix[i + 1:] == matrix[i]))
    return agree_sets


# ----------------------------------------------------------------------
# Validation: Algorithm 4 over a whole partition
# ----------------------------------------------------------------------

#: Rows compared against their pivot per step of Algorithm 4.  The
#: witness rule restarts its attribute scan at every step, so both
#: backends must step through each cluster in chunks of this size.
VALIDATE_CHUNK = 64
#: Source rows in the numpy backend's first batch; each later batch
#: takes twice as many, so an early exit leaves most rows untouched.
_FIRST_BATCH_ROWS = 256

#: ``(valid_rhs, non_fd_lhs, comparisons)`` of one validation.
Validation = Tuple[AttrSet, Set[AttrSet], int]


def validate_clusters(
    matrix: np.ndarray,
    codes_list: Sequence[np.ndarray],
    rhs: AttrSet,
    rows: np.ndarray,
    lengths: np.ndarray,
    backend: Optional[str] = None,
) -> Validation:
    """Algorithm 4: check which of ``rhs`` survive the refined clusters.

    The clusters come in their flat ``(rows, lengths)`` form
    (:func:`flatten_clusters`).  Every cluster is split by
    ``codes_list`` (the LHS attributes the partition does not yet
    refine on), and every row of a sub-cluster is compared with the
    sub-cluster's first row, the pivot, in chunks of
    :data:`VALIDATE_CHUNK` rows.  Within a chunk each still-valid RHS
    attribute, in ascending order, takes the first disagreeing row as
    its witness; the witness's disagree set ``D`` invalidates
    ``rhs ∩ D`` and records the non-FD LHS ``R − D``.  The call returns
    as soon as no RHS attribute is left, counting the comparisons of
    every chunk up to and including that one.
    """
    backend = resolve_backend(backend)
    tracer = current_tracer()
    start = time.perf_counter() if tracer.enabled else 0.0
    if backend == "numpy":
        result = _validate_numpy(matrix, codes_list, rhs, rows, lengths)
    else:
        clusters = unflatten_clusters(rows, lengths)
        result = _validate_python(matrix, codes_list, rhs, clusters)
    if tracer.enabled:
        _record(tracer, "validate", backend, time.perf_counter() - start)
    return result


def _validate_python(
    matrix: np.ndarray,
    codes_list: Sequence[np.ndarray],
    rhs: AttrSet,
    clusters: Sequence[Cluster],
) -> Validation:
    """The per-cluster reference: refine one source cluster at a time."""
    n_cols = matrix.shape[1]
    valid_rhs = rhs
    non_fds: Set[AttrSet] = set()
    comparisons = 0
    for source_cluster in clusters:
        if codes_list:
            refined = _refine_clusters_python(codes_list, [source_cluster])
        else:
            refined = [source_cluster]
        for cluster in refined:
            pivot = matrix[cluster[0]]
            for start in range(1, len(cluster), VALIDATE_CHUNK):
                rows = cluster[start:start + VALIDATE_CHUNK]
                comparisons += len(rows)
                diff = matrix[rows] != pivot  # (chunk, n_cols) bool
                for attr in attrset.iter_attrs(valid_rhs):
                    column = diff[:, attr]
                    if not column.any():
                        continue
                    witness = int(np.argmax(column))
                    disagree = attrset.EMPTY
                    for col in np.nonzero(diff[witness])[0]:
                        disagree = attrset.add(disagree, int(col))
                    valid_rhs = attrset.difference(valid_rhs, disagree)
                    non_fds.add(attrset.complement(disagree, n_cols))
                    if not valid_rhs:
                        return valid_rhs, non_fds, comparisons
    return valid_rhs, non_fds, comparisons


def _validate_numpy(
    matrix: np.ndarray,
    codes_list: Sequence[np.ndarray],
    rhs: AttrSet,
    rows: np.ndarray,
    lengths: np.ndarray,
) -> Validation:
    """The batched kernel: a few array passes per batch of source clusters.

    Source clusters are taken in batches of geometrically growing row
    counts.  Each batch is split by one stable sort and compared with
    its pivots in one array comparison; only the rows that disagree on
    a still-valid RHS attribute are then replayed, in the order the
    per-cluster reference visits them, to pick the same witnesses.
    """
    full = (1 << matrix.shape[1]) - 1
    valid_rhs = rhs
    non_fds: Set[AttrSet] = set()
    comparisons = 0
    ends = np.cumsum(lengths).tolist()
    first, offset, budget = 0, 0, _FIRST_BATCH_ROWS
    while first < len(ends):
        stop = min(bisect.bisect_left(ends, offset + budget) + 1, len(ends))
        end = ends[stop - 1]
        valid_rhs, done, used = _validate_batch(
            matrix, codes_list, full, valid_rhs, non_fds,
            rows[offset:end], lengths[first:stop],
        )
        comparisons += used
        if done:
            break
        first, offset, budget = stop, end, 2 * budget
    return valid_rhs, non_fds, comparisons


def _validate_batch(
    matrix: np.ndarray,
    codes_list: Sequence[np.ndarray],
    full: AttrSet,
    valid_rhs: AttrSet,
    non_fds: Set[AttrSet],
    rows: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[AttrSet, bool, int]:
    """Validate one batch of source clusters; adds to ``non_fds``.

    Returns the surviving RHS, whether the validation is over (no RHS
    attribute left) and the comparisons it made.
    """
    n = len(rows)
    if n < 2:
        return valid_rhs, False, 0
    cids = np.repeat(np.arange(len(lengths)), lengths)
    # Split: sort stably by source cluster, then by the missing
    # attributes' codes.  Each run of equal keys is a sub-cluster (a
    # group); its first row is the pivot, the rest are compared to it.
    key = _group_key(cids, [codes[rows] for codes in codes_list])
    if codes_list:
        order = np.argsort(key, kind="stable")
        rows, cids, key = rows[order], cids[order], key[order]
    bounds = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    compared = n - len(starts)
    if compared == 0:
        return valid_rhs, False, 0
    # Compare: every row against its group's pivot (pivots match
    # themselves, so they never show up as violations).
    diff = matrix[rows] != np.repeat(matrix[rows[starts]], sizes, axis=0)
    if valid_rhs == full:
        bad = diff.any(axis=1)
    else:
        bad = diff[:, attrset.to_list(valid_rhs)].any(axis=1)
    violating = np.flatnonzero(bad)
    if len(violating) == 0:
        return valid_rhs, False, compared
    # Replay the violating rows in the reference's visiting order:
    # sub-clusters by (source cluster, first row), each stepped through
    # in chunks of VALIDATE_CHUNK compared rows.
    counts = sizes - 1
    visit = np.argsort(cids[starts] * len(matrix) + rows[starts])
    visit_counts = counts[visit]
    before = np.empty_like(counts)  # rows compared before each group
    before[visit] = np.cumsum(visit_counts) - visit_counts
    group = np.repeat(np.arange(len(starts)), sizes)[violating]
    position = violating - starts[group]  # 1-based: the pivot is 0
    replay = np.argsort(before[group] + position)
    chunk_end = before[group] + np.minimum(
        (position - 1) // VALIDATE_CHUNK * VALIDATE_CHUNK + VALIDATE_CHUNK,
        counts[group],
    )
    masks = _pack_bool_rows(diff[violating[replay]])
    chunk_ends = chunk_end[replay].tolist()
    i, total = 0, len(masks)
    while i < total:
        # chunk_end identifies a chunk: it grows strictly along the visit.
        chunk_id = chunk_ends[i]
        j = i + 1
        while j < total and chunk_ends[j] == chunk_id:
            j += 1
        chunk = masks[i:j]
        seen = 0
        for mask in chunk:
            seen |= mask
        # Like the reference: the attributes still valid at the chunk's
        # start, each witnessed by the chunk's first row disagreeing on it.
        for attr in attrset.iter_attrs(valid_rhs & seen):
            bit = 1 << attr
            disagree = next(mask for mask in chunk if mask & bit)
            valid_rhs &= ~disagree
            non_fds.add(full & ~disagree)
            if not valid_rhs:
                return valid_rhs, True, chunk_id
        i = j
    return valid_rhs, False, compared


def _group_key(cids: np.ndarray, keys: List[np.ndarray]) -> np.ndarray:
    """One int64 per row, equal exactly where ``(cid, *keys)`` are.

    Mixed-radix packing of the non-negative DIIS codes; when the next
    digit could overflow, the key so far is first replaced by its dense
    rank, which is below the row count.
    """
    key, bound = cids, len(cids)
    for column in keys:
        radix = int(column.max()) + 1
        if bound * radix >= 2**63:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            bound = len(key)
        key = key * radix + column
        bound *= radix
    return key
