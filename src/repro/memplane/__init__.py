"""repro.memplane — the one-copy-per-host memory plane.

Two pieces (see ``docs/memplane.md``):

* :mod:`repro.memplane.arena` — the :class:`DatasetArena`, a
  fingerprint-keyed shared-memory store of relation columns that
  worker pools, service jobs and replicas lease zero-copy (refcounted
  pins, LRU eviction under ``REPRO_FD_ARENA_BUDGET``, append versions
  sharing their parent's pages);
* :mod:`repro.memplane.tier` — the :class:`SharedPartitionTier`, a
  per-dataset store of low-level stripped partitions reused by every
  ``PartitionCache`` constructed with ``shared=``.

Both obey the ``REPRO_FD_MEMPLANE`` kill switch (CLI
``--no-memplane``); covers are byte-identical with the plane on or
off.
"""

from typing import Dict

from .arena import (
    ArenaLease,
    DatasetArena,
    SEGMENT_PREFIX,
    current_arena,
    default_owner,
    enabled,
    get_arena,
    reset_arena,
    sweep_orphans,
)
from .tier import (
    MAX_SHARED_ATTRS,
    SharedPartitionTier,
    reset_tiers,
    tier_for,
    tier_gauges,
)

__all__ = [
    "ArenaLease",
    "DatasetArena",
    "MAX_SHARED_ATTRS",
    "SEGMENT_PREFIX",
    "SharedPartitionTier",
    "current_arena",
    "default_owner",
    "enabled",
    "gauges",
    "get_arena",
    "reset_arena",
    "reset_tiers",
    "sweep_orphans",
    "tier_for",
    "tier_gauges",
]


def gauges() -> Dict[str, float]:
    """Combined ``memplane.*`` gauges (arena + tier) for ``/metrics``.

    Never *creates* an arena: a process that registered no dataset
    reports zeros instead of allocating segments for a metrics scrape.
    """
    arena = current_arena()
    out: Dict[str, float] = (
        arena.gauges()
        if arena is not None
        else {
            "memplane.datasets": 0.0,
            "memplane.pinned_datasets": 0.0,
            "memplane.arena_bytes": 0.0,
            "memplane.attach_hits": 0.0,
            "memplane.attach_misses": 0.0,
            "memplane.evictions": 0.0,
            "memplane.prefix_shared": 0.0,
        }
    )
    out.update(tier_gauges())
    out["memplane.enabled"] = 1.0 if enabled() else 0.0
    return out
