"""Zero-copy export of a relation's encoded data to worker processes.

Workers never unpickle the :class:`~repro.relational.relation.Relation`
itself — its decoders and per-column objects are irrelevant to the hot
paths and would be copied per task.  Instead the parent copies the two
arrays every parallel kernel consumes into POSIX shared memory **once**
per discovery run:

* the row-major ``(n_rows, n_cols)`` int64 DIIS code matrix, and
* the ``(n_rows, n_cols)`` boolean null-marker matrix.

Each pool worker attaches at initializer time and reconstructs numpy
views over the same physical pages (:class:`SharedRelationView`), so a
pool of N workers holds one copy of the data, not N+1.

The view duck-types the slice of the ``Relation`` interface the
compute paths use — ``matrix()``, ``codes(attr)``, ``null_mask(attr)``,
``n_rows``, ``n_cols`` — which lets workers run the exact same
functions (``validate_flat``, ``redundant_rows_for_lhs``, the sampling
helpers) the serial path runs, keeping results byte-identical.

Lifecycle: with the memplane enabled (the default) the buffers are a
refcounted *lease* on the host-wide
:class:`~repro.memplane.arena.DatasetArena` — the copy-in happens at
most once per dataset per host, repeated jobs attach to the pinned
segments, and :meth:`SharedRelationBuffers.close` releases the lease
(the arena unlinks under its own budget/LRU policy).  With the
memplane disabled (``--no-memplane`` / ``REPRO_FD_MEMPLANE=0``) the
parent owns both segments privately and unlinks them in ``close``
(worker mappings stay valid until the worker exits, per POSIX
semantics).  Workers ``close()`` their attachment at interpreter exit;
they also unregister the segments from their ``resource_tracker`` so a
worker's exit does not unlink memory the parent still owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

import numpy as np

from ..resilience import faults


@dataclass(frozen=True)
class ShmSpec:
    """Picklable handle describing the shared segments (sent to workers)."""

    matrix_name: str
    nulls_name: str
    n_rows: int
    n_cols: int


def relation_arrays(relation) -> Tuple[np.ndarray, np.ndarray]:
    """The two contiguous arrays every shared consumer needs.

    Returns the row-major int64 DIIS code matrix and the matching
    ``(n_rows, n_cols)`` boolean null-marker matrix.  Shared between
    the per-run buffers below and the host-wide
    :class:`~repro.memplane.arena.DatasetArena` so both layouts are
    bit-identical and a view over either is interchangeable.
    """
    n_rows, n_cols = relation.n_rows, relation.n_cols
    matrix = np.ascontiguousarray(relation.matrix(), dtype=np.int64)
    if n_cols and n_rows:
        nulls = np.column_stack(
            [relation.null_mask(attr) for attr in range(n_cols)]
        ).astype(bool, copy=False)
    else:
        nulls = np.zeros((n_rows, n_cols), dtype=bool)
    return matrix, np.ascontiguousarray(nulls)


def _copy_into_shm(array: np.ndarray) -> shared_memory.SharedMemory:
    """Allocate a shared segment and copy ``array`` into it."""
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    if array.nbytes:
        target = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        target[...] = array
    return shm


def _arena_lease(relation):
    """Best-effort lease from the host-wide dataset arena.

    Returns None — and the caller falls back to a private per-run copy
    — when the memplane is disabled, the relation has no fingerprint
    (worker-side views), or the arena attach fails for any reason
    (including an armed ``arena.attach`` fault).
    """
    try:
        from ..memplane import arena
    except Exception:
        return None
    if not arena.enabled():
        return None
    try:
        return arena.get_arena().lease(relation)
    except Exception:
        return None


class SharedRelationBuffers:
    """Parent-side owner of the shared code and null-mask matrices.

    When the memplane is enabled the "buffers" are a leased view over
    the host-wide :class:`~repro.memplane.arena.DatasetArena` — no
    per-run copy-in, and :meth:`close` releases the lease instead of
    unlinking (the arena owns the segments).  Otherwise the original
    behavior: copy once, unlink on close.
    """

    def __init__(self, relation):
        self._lease = None
        self._matrix_shm = None
        self._nulls_shm = None
        lease = _arena_lease(relation)
        if lease is not None:
            self._lease = lease
            self.nbytes = lease.nbytes
            self.spec = lease.spec
            return
        matrix, nulls = relation_arrays(relation)
        self._matrix_shm = _copy_into_shm(matrix)
        self._nulls_shm = _copy_into_shm(nulls)
        self.nbytes = matrix.nbytes + nulls.nbytes
        self.spec = ShmSpec(
            matrix_name=self._matrix_shm.name,
            nulls_name=self._nulls_shm.name,
            n_rows=relation.n_rows,
            n_cols=relation.n_cols,
        )

    @property
    def arena_backed(self) -> bool:
        """True while these buffers are a lease on the dataset arena."""
        return self._lease is not None

    def close(self) -> None:
        """Release the lease / unlink the private segments (idempotent)."""
        if self._lease is not None:
            lease, self._lease = self._lease, None
            lease.release()
        for shm in (self._matrix_shm, self._nulls_shm):
            if shm is None:
                continue
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._matrix_shm = None
        self._nulls_shm = None

    def __enter__(self) -> "SharedRelationBuffers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach(name: str, unregister: bool) -> shared_memory.SharedMemory:
    """Attach to a named segment without adopting its ownership.

    ``unregister`` must be True exactly when the attaching process has
    its *own* resource tracker (spawn-started workers): that tracker
    would otherwise unlink the segment at worker exit, stealing it from
    the parent and the sibling workers.  Fork-started workers (and
    same-process attachments) share the parent's tracker, where the
    segment is already correctly registered once — unregistering there
    would drop the parent's own registration.
    """
    faults.fire(
        "shm.attach",
        lambda: RuntimeError("injected shared-memory attach failure"),
    )
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


class SharedRelationView:
    """Worker-side zero-copy stand-in for a relation.

    Duck-types the read-only subset of the :class:`Relation` interface
    used by validation, redundancy counting and sampling.
    """

    __slots__ = ("n_rows", "n_cols", "_matrix", "_nulls", "_segments")

    def __init__(self, spec: ShmSpec, unregister: bool = False):
        self.n_rows = spec.n_rows
        self.n_cols = spec.n_cols
        matrix_shm = _attach(spec.matrix_name, unregister)
        nulls_shm = _attach(spec.nulls_name, unregister)
        #: Keep the SharedMemory objects alive as long as the views are.
        self._segments: List[shared_memory.SharedMemory] = [matrix_shm, nulls_shm]
        shape = (spec.n_rows, spec.n_cols)
        self._matrix = np.ndarray(shape, dtype=np.int64, buffer=matrix_shm.buf)
        self._nulls = np.ndarray(shape, dtype=bool, buffer=nulls_shm.buf)

    def matrix(self) -> np.ndarray:
        """The row-major DIIS code matrix (shared, do not write)."""
        return self._matrix

    def codes(self, attr: int) -> np.ndarray:
        """Column ``attr``'s code array (a strided view into the matrix)."""
        return self._matrix[:, attr]

    def null_mask(self, attr: int) -> np.ndarray:
        """Column ``attr``'s boolean null-marker mask."""
        return self._nulls[:, attr]

    def __repr__(self) -> str:
        return f"SharedRelationView({self.n_rows} rows x {self.n_cols} cols)"
