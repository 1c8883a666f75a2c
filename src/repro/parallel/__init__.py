"""Process-pool execution layer with shared-memory relation transport.

See :mod:`repro.parallel.pool` for the execution and failure model and
``docs/parallel.md`` for the architecture write-up.
"""

from .config import (
    DEFAULT_MIN_BATCH,
    DEFAULT_MIN_PARALLEL_ITEMS,
    DEFAULT_MIN_PARALLEL_ROWS,
    resolve_jobs,
)
from .merge import merge_validation_outcomes, pack_row_mask, unpack_row_mask
from .pool import (
    ParallelExecutor,
    PoolBrokenError,
    chunk_items,
    redundancy_row_masks,
    sample_initial,
    validate_level,
)
from .shm import SharedRelationBuffers, SharedRelationView, ShmSpec

__all__ = [
    "DEFAULT_MIN_BATCH",
    "DEFAULT_MIN_PARALLEL_ITEMS",
    "DEFAULT_MIN_PARALLEL_ROWS",
    "ParallelExecutor",
    "PoolBrokenError",
    "SharedRelationBuffers",
    "SharedRelationView",
    "ShmSpec",
    "chunk_items",
    "merge_validation_outcomes",
    "pack_row_mask",
    "redundancy_row_masks",
    "resolve_jobs",
    "sample_initial",
    "unpack_row_mask",
    "validate_level",
]
