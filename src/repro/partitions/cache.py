"""Partition cache with memory accounting.

TANE and the brute-force oracle repeatedly ask for ``π_X`` of related
attribute sets.  The cache memoizes partitions keyed by their bitmask,
derives new entries cheaply from cached subsets (preferring the largest
cached subset so the fewest refinement steps run), and tracks an
approximate memory footprint so benchmarks can report partition memory
the way Table II reports process memory.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..relational import attrset
from ..relational.attrset import AttrSet
from ..relational.relation import Relation
from ..telemetry import current_tracer
from .stripped import StrippedPartition


#: Upper bound on cached masks examined per subset scan; keeps
#: ``_best_subset`` cheap even when thousands of partitions are cached.
SUBSET_SCAN_LIMIT = 4096


class PartitionCache:
    """Memoized stripped-partition store for one relation.

    ``shared`` optionally plugs in a
    :class:`~repro.memplane.tier.SharedPartitionTier`: singleton seeds
    come from the tier when warm, local misses consult it before
    deriving, and freshly derived low-level partitions are published
    back — so repeated passes over the same dataset stop re-deriving
    the lattice base.  ``hits``/``misses`` keep their original meaning
    (local store only); tier hits are counted in ``shared_hits`` on
    top of the local miss.
    """

    def __init__(
        self,
        relation: Relation,
        shared=None,
    ):
        self.relation = relation
        self.shared = shared
        self._store: Dict[AttrSet, StrippedPartition] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.shared_hits = 0
        # Instruments resolved once against the tracer current at
        # construction; with telemetry off these are shared no-ops.
        telemetry = current_tracer()
        self._hit_counter = telemetry.counter("partition_cache.hits")
        self._miss_counter = telemetry.counter("partition_cache.misses")
        self._evict_counter = telemetry.counter("partition_cache.evictions")
        self._shared_hit_counter = telemetry.counter("partition_cache.shared_hits")
        self._memory_gauge = telemetry.gauge("partition_cache.memory_bytes")
        self._seed_singletons()

    def _seed_singletons(self) -> None:
        universal = StrippedPartition.universal(self.relation)
        self._store[attrset.EMPTY] = universal
        for attr in range(self.relation.n_cols):
            mask = attrset.singleton(attr)
            partition = None
            if self.shared is not None:
                partition = self.shared.get(mask)
                if partition is not None:
                    self.shared_hits += 1
                    self._shared_hit_counter.inc()
            if partition is None:
                partition = StrippedPartition.for_attribute(self.relation, attr)
                if self.shared is not None:
                    self.shared.put(partition)
            self._store[mask] = partition

    def __len__(self) -> int:
        return len(self._store)

    def memory_bytes(self) -> int:
        """Approximate bytes held by all cached partitions."""
        return sum(p.memory_bytes() for p in self._store.values())

    def record_telemetry(self, scope: str = "cache") -> None:
        """Emit a summary event + memory gauge on the current tracer.

        Cheap no-op when telemetry is disabled; callers invoke it once
        at the end of a cache-using pass (ranking, redundancy, naive
        discovery), not per lookup.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return
        memory = self.memory_bytes()
        self._memory_gauge.set_max(memory)
        tracer.event(
            "partition_cache",
            scope=scope,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            shared_hits=self.shared_hits,
            entries=len(self._store),
            memory_bytes=memory,
        )

    def peek(self, attrs: AttrSet) -> Optional[StrippedPartition]:
        """Return the cached partition for ``attrs`` if present."""
        return self._store.get(attrs)

    def get(self, attrs: AttrSet) -> StrippedPartition:
        """Return ``π_attrs``, building it from the best cached subset."""
        cached = self._store.get(attrs)
        if cached is not None:
            self.hits += 1
            self._hit_counter.inc()
            return cached
        self.misses += 1
        self._miss_counter.inc()
        if self.shared is not None:
            partition = self.shared.get(attrs)
            if partition is not None:
                self.shared_hits += 1
                self._shared_hit_counter.inc()
                self._store[attrs] = partition
                return partition
        base = self._best_subset(attrs)
        partition = base.refine_many(
            self.relation,
            attrset.iter_attrs(attrset.difference(attrs, base.attrs)),
        )
        self._store[attrs] = partition
        if self.shared is not None:
            self.shared.put(partition)
        return partition

    def put(self, partition: StrippedPartition) -> None:
        """Insert an externally computed partition."""
        self._store[partition.attrs] = partition

    def evict_level(self, level: int) -> None:
        """Drop all cached partitions over exactly ``level`` attributes.

        TANE uses this to keep only two lattice levels in memory.
        Singleton and empty partitions are never evicted.
        """
        if level <= 1:
            return
        victims = [a for a in self._store if attrset.count(a) == level]
        for victim in victims:
            del self._store[victim]
        self.evictions += len(victims)
        self._evict_counter.inc(len(victims))

    def shed_coarsest(self, target_bytes: Optional[int] = None) -> int:
        """Evict multi-attribute entries, widest first; returns bytes freed.

        Degradation hook for the memory sentinel: drops the cached
        partitions with the most attributes (the deepest, most
        re-derivable entries) until usage falls to ``target_bytes``
        (everything multi-attribute when None).  Singleton and empty
        partitions are never evicted — they are the rebuild seeds.
        """
        victims = sorted(
            (a for a in self._store if attrset.count(a) > 1),
            key=attrset.count,
            reverse=True,
        )
        freed = 0
        usage = self.memory_bytes() if target_bytes is not None else None
        for victim in victims:
            if usage is not None and usage - freed <= target_bytes:
                break
            freed += self._store[victim].memory_bytes()
            del self._store[victim]
            self.evictions += 1
            self._evict_counter.inc()
        return freed

    def _best_subset(self, attrs: AttrSet) -> StrippedPartition:
        """The cached partition over the largest subset of ``attrs``.

        Checks the immediate sub-masks (``attrs`` minus one attribute)
        first — the common case when related attribute sets are queried
        in sorted order.  Failing that, scans the cached multi-attribute
        masks (bounded by :data:`SUBSET_SCAN_LIMIT` candidates) for the
        largest subset of ``attrs``, so e.g. a cached ``π_AB`` seeds
        ``π_ABCD`` with two refinement steps instead of three from a
        singleton.  Only then falls back to the smallest singleton.
        """
        for attr in attrset.iter_attrs(attrs):
            parent = self._store.get(attrset.remove(attrs, attr))
            if parent is not None:
                return parent
        best_mask = attrset.EMPTY
        best_count = 1  # only beat singletons; they are handled below
        scanned = 0
        for mask in self._store:
            scanned += 1
            if scanned > SUBSET_SCAN_LIMIT:
                break
            if mask & (mask - 1) == 0:
                continue  # empty or singleton mask
            if not attrset.is_proper_subset(mask, attrs):
                continue
            mask_count = attrset.count(mask)
            if mask_count > best_count or (
                mask_count == best_count
                and self._store[mask].size < self._store[best_mask].size
            ):
                best_mask = mask
                best_count = mask_count
        if best_mask != attrset.EMPTY:
            return self._store[best_mask]
        best: Optional[StrippedPartition] = None
        for attr in attrset.iter_attrs(attrs):
            candidate = self._store[attrset.singleton(attr)]
            if best is None or candidate.size < best.size:
                best = candidate
        return best if best is not None else self._store[attrset.EMPTY]
