"""The shared partition tier: low-level partitions reused across jobs.

A :class:`~repro.partitions.cache.PartitionCache` is per-pass — every
ranking or redundancy run re-derives the same singleton and low-level
stripped partitions for the same dataset.  After single-flight dedup
the dominant service pattern is *different* jobs against the *same*
registered dataset, so those derivations are pure waste.

This module keeps one process-wide
:class:`SharedPartitionTier` per ``(fingerprint, null semantics,
active kernel backend)`` triple.  A tier stores partitions over at most
:data:`MAX_SHARED_ATTRS` attributes — the wide base of the lattice
that every pass touches — and hands them to any ``PartitionCache``
constructed with ``shared=``.  Safe to share because
:class:`~repro.partitions.stripped.StrippedPartition` is immutable
(nothing in the stack mutates ``clusters`` in place) and the key pins
down everything that affects cluster bytes: the data (fingerprint),
the equality semantics, and the kernels that built them.  Both
kernels emit identical clusters, but a run inside
``kernels.use_backend("python")`` is the differential oracle: it must
build its own partitions, never reuse the numpy kernels' ones.

The registry is LRU-bounded (:data:`MAX_TIERS` datasets) and obeys the
same ``REPRO_FD_MEMPLANE`` kill switch as the arena.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..partitions.kernels import active_backend
from ..partitions.stripped import StrippedPartition
from ..relational import attrset
from ..relational.attrset import AttrSet
from . import arena as _arena

#: Widest attribute set a tier will retain — the lattice base levels
#: every ranking/redundancy pass rebuilds; deeper partitions are too
#: pass-specific to be worth pinning host-wide.
MAX_SHARED_ATTRS = 4

#: Datasets with live tiers, LRU-bounded.
MAX_TIERS = 32


class SharedPartitionTier:
    """Thread-safe store of one dataset's low-level partitions."""

    __slots__ = ("key", "_store", "_lock", "hits", "misses")

    def __init__(self, key: Tuple[str, str, str]):
        self.key = key
        self._store: Dict[AttrSet, StrippedPartition] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, attrs: AttrSet) -> Optional[StrippedPartition]:
        """The shared partition for ``attrs``, counting hit/miss."""
        with self._lock:
            partition = self._store.get(attrs)
            if partition is not None:
                self.hits += 1
            else:
                self.misses += 1
            return partition

    def put(self, partition: StrippedPartition) -> None:
        """Publish a partition (ignored above :data:`MAX_SHARED_ATTRS`).

        First publisher wins — identical inputs produce identical
        partitions, so replacing would only churn references.
        """
        if attrset.count(partition.attrs) > MAX_SHARED_ATTRS:
            return
        with self._lock:
            self._store.setdefault(partition.attrs, partition)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(p.memory_bytes() for p in self._store.values())


_tiers: "OrderedDict[Tuple[str, str, str], SharedPartitionTier]" = OrderedDict()
_tiers_lock = threading.Lock()


def tier_for(relation) -> Optional[SharedPartitionTier]:
    """The shared tier for ``relation`` under the active kernels (None when unusable).

    Unusable means: the memplane is disabled, or the relation carries
    no content fingerprint (worker-side shared views don't — workers
    keep their private caches).
    """
    if not _arena.enabled():
        return None
    fingerprint_of = getattr(relation, "fingerprint", None)
    semantics = getattr(relation, "semantics", None)
    if fingerprint_of is None or semantics is None:
        return None
    key = (fingerprint_of(), semantics.value, active_backend())
    with _tiers_lock:
        tier = _tiers.get(key)
        if tier is None:
            tier = SharedPartitionTier(key)
            _tiers[key] = tier
            while len(_tiers) > MAX_TIERS:
                _tiers.popitem(last=False)
        else:
            _tiers.move_to_end(key)
        return tier


def reset_tiers() -> None:
    """Drop every shared tier (tests / dataset churn)."""
    with _tiers_lock:
        _tiers.clear()


def tier_gauges() -> Dict[str, float]:
    """``memplane.tier_*`` gauge snapshot for ``/metrics`` exports."""
    with _tiers_lock:
        tiers = list(_tiers.values())
    hits = sum(t.hits for t in tiers)
    misses = sum(t.misses for t in tiers)
    lookups = hits + misses
    return {
        "memplane.tier_datasets": float(len(tiers)),
        "memplane.tier_partitions": float(sum(len(t) for t in tiers)),
        "memplane.tier_bytes": float(sum(t.memory_bytes() for t in tiers)),
        "memplane.tier_hits": float(hits),
        "memplane.tier_misses": float(misses),
        "memplane.tier_hit_rate": (hits / lookups) if lookups else 0.0,
    }
