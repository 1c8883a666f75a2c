"""repro.memplane: dataset arena, shared partition tier, leak hygiene."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing import get_context, shared_memory

import numpy as np
import pytest

from repro import memplane
from repro.core.dhyfd import DHyFD, _shed_arena
from repro.datasets.synthetic import random_relation
from repro.memplane.arena import SEGMENT_PREFIX, DatasetArena, sweep_orphans
from repro.memplane.tier import MAX_SHARED_ATTRS, SharedPartitionTier
from repro.parallel.pool import ParallelExecutor, PoolBrokenError
from repro.parallel.shm import SharedRelationBuffers, SharedRelationView
from repro.partitions.cache import PartitionCache
from repro.partitions.stripped import StrippedPartition
from repro.ranking.ranker import rank_cover
from repro.relational import attrset
from repro.relational.relation import Relation
from repro.resilience import faults
from repro.service import FDService
from repro.settings import override
from tests.conftest import make_random_relation


def _fd_tuples(fds):
    return sorted((fd.lhs, fd.rhs) for fd in fds)


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover — non-tmpfs platforms
        return set()


def _arena_files(owner: str) -> list:
    prefix = f"{SEGMENT_PREFIX}-{owner}-"
    return sorted(n for n in _shm_names() if n.startswith(prefix))


def _same_shape_relations(n: int) -> list:
    """Same dims and domains, different content — equal segment sizes."""
    return [
        random_relation(40, 3, domain_sizes=4, seed=100 + i) for i in range(n)
    ]


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def _memplane_on():
    """Pin the plane on regardless of the CI leg's REPRO_FD_MEMPLANE.

    This suite tests the plane itself, so the env kill switch must not
    blank it out; tests covering the disabled path nest an
    ``override(memplane=False)`` inside this one.
    """
    with override(memplane=True):
        yield


@pytest.fixture
def fresh_arena():
    """The process-wide arena, fresh before and unlinked after."""
    memplane.reset_arena()
    yield memplane.get_arena()
    memplane.reset_arena()


# ----------------------------------------------------------------------
# Arena lifecycle
# ----------------------------------------------------------------------


class TestDatasetArena:
    def test_lease_roundtrip_and_attach_accounting(self):
        relation = make_random_relation(3)
        with DatasetArena(owner="t-lease") as arena:
            lease_a = arena.lease(relation)
            lease_b = arena.lease(relation)
            assert arena.attach_misses == 1
            assert arena.attach_hits == 1
            assert arena.pins(relation.fingerprint()) == 2
            view = SharedRelationView(lease_a.spec, unregister=True)
            assert np.array_equal(view.matrix(), relation.matrix())
            for attr in range(relation.n_cols):
                assert np.array_equal(
                    view.null_mask(attr), relation.null_mask(attr)
                )
            lease_a.release()
            lease_a.release()  # idempotent
            assert arena.pins(relation.fingerprint()) == 1
            assert arena.shed() == 0  # still pinned
            lease_b.release()
            assert arena.shed() > 0
            assert len(arena) == 0
        assert _arena_files("t-lease") == []

    def test_lease_returns_none_without_fingerprint(self):
        with DatasetArena(owner="t-nofp") as arena:
            assert arena.lease(object()) is None
            assert len(arena) == 0

    def test_eviction_is_lru_and_never_touches_pins(self):
        r1, r2, r3 = _same_shape_relations(3)
        with DatasetArena(owner="t-lru") as arena:
            arena.ingest(r1)
            arena.ingest(r2)
            lease = arena.lease(r3)
            # Refresh r1 so r2 is now the least recently used.
            arena.lease(r1).release()
            arena.shed(arena.memory_bytes() - 1)
            assert r2.fingerprint() not in arena
            assert r1.fingerprint() in arena
            arena.shed(None)  # everything unpinned goes...
            assert r1.fingerprint() not in arena
            assert r3.fingerprint() in arena  # ...the pinned entry stays
            assert arena.evictions == 2
            lease.release()

    def test_byte_budget_enforced_at_ingest(self):
        relations = _same_shape_relations(4)
        with DatasetArena(owner="t-one") as probe:
            probe.ingest(relations[0])
            single = probe.memory_bytes()
        budget = 2 * single + 16
        with DatasetArena(owner="t-budget", budget_bytes=budget) as arena:
            for relation in relations:
                arena.ingest(relation)
            assert arena.memory_bytes() <= budget
            assert len(arena) == 2
            assert arena.evictions == 2

    def test_append_versions_share_parent_segment(self):
        parent = Relation.from_rows(
            [["a", 1], ["b", 2], ["a", 1]], schema=["x", "y"]
        )
        child = parent.append_rows([["c", 3], ["b", 2]])
        with DatasetArena(owner="t-append") as arena:
            arena.ingest(parent)
            assert len(_arena_files("t-append")) == 2
            arena.ingest(child, parent_fingerprint=parent.fingerprint())
            assert arena.prefix_shared == 1
            # The parent's private copy was unlinked; both entries now
            # view the child's one segment pair.
            assert len(_arena_files("t-append")) == 2
            parent_lease = arena.lease(parent)
            child_lease = arena.lease(child)
            assert parent_lease.spec.matrix_name == child_lease.spec.matrix_name
            assert parent_lease.spec.n_rows == parent.n_rows
            assert child_lease.spec.n_rows == child.n_rows
            view = SharedRelationView(parent_lease.spec, unregister=True)
            assert np.array_equal(view.matrix(), parent.matrix())
            parent_lease.release()
            child_lease.release()
        assert _arena_files("t-append") == []

    def test_append_sharing_skipped_while_parent_pinned(self):
        parent = Relation.from_rows([["a", 1], ["b", 2]], schema=["x", "y"])
        child = parent.append_rows([["c", 3]])
        with DatasetArena(owner="t-appin") as arena:
            lease = arena.lease(parent)
            arena.ingest(child, parent_fingerprint=parent.fingerprint())
            # A live lease holds the parent's segment names, so the
            # remap must not happen: two private segment pairs stay.
            assert arena.prefix_shared == 0
            assert len(_arena_files("t-appin")) == 4
            lease.release()
        assert _arena_files("t-appin") == []

    def test_stale_segment_name_is_reclaimed(self):
        relation = make_random_relation(9)
        owner = "t-stale"
        name = f"{SEGMENT_PREFIX}-{owner}-{relation.fingerprint()[:16]}-0m"
        stale = shared_memory.SharedMemory(name=name, create=True, size=8)
        try:
            with DatasetArena(owner=owner) as arena:
                lease = arena.lease(relation)
                assert arena.stale_reclaimed == 1
                view = SharedRelationView(lease.spec, unregister=True)
                assert np.array_equal(view.matrix(), relation.matrix())
                lease.release()
        finally:
            stale.close()
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(stale._name, "shared_memory")
            except Exception:
                pass
        assert _arena_files(owner) == []

    def test_concurrent_lease_release_shed_threads(self):
        relations = _same_shape_relations(3)
        errors = []
        stop = threading.Event()
        with DatasetArena(owner="t-race", budget_bytes=1 << 20) as arena:

            def hammer(relation):
                try:
                    while not stop.is_set():
                        lease = arena.lease(relation)
                        view = SharedRelationView(lease.spec, unregister=True)
                        assert np.array_equal(view.matrix(), relation.matrix())
                        lease.release()
                except Exception as exc:  # pragma: no cover — failure path
                    errors.append(exc)

            def shedder():
                while not stop.is_set():
                    arena.shed(0)

            threads = [
                threading.Thread(target=hammer, args=(r,)) for r in relations
            ] + [threading.Thread(target=shedder)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            arena.shed(None)
            assert arena.memory_bytes() == 0
        assert _arena_files("t-race") == []


def _child_attach(spec, expected_sum):
    view = SharedRelationView(spec)
    sys.exit(0 if int(view.matrix().sum()) == expected_sum else 13)


class TestCrossProcess:
    def test_forked_children_attach_to_leased_segments(self):
        relation = make_random_relation(13)
        with DatasetArena(owner="t-fork") as arena:
            lease = arena.lease(relation)
            ctx = get_context("fork")
            procs = [
                ctx.Process(
                    target=_child_attach,
                    args=(lease.spec, int(relation.matrix().sum())),
                )
                for _ in range(2)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=30)
                assert proc.exitcode == 0
            lease.release()
        assert _arena_files("t-fork") == []


# ----------------------------------------------------------------------
# SharedRelationBuffers over the arena
# ----------------------------------------------------------------------


class TestBuffersOverArena:
    def test_buffers_lease_and_release(self, fresh_arena):
        relation = make_random_relation(14)
        first = SharedRelationBuffers(relation)
        second = SharedRelationBuffers(relation)
        assert first.arena_backed and second.arena_backed
        assert first.spec == second.spec  # one copy, two leases
        assert fresh_arena.pins(relation.fingerprint()) == 2
        first.close()
        second.close()
        second.close()  # idempotent
        assert fresh_arena.pins(relation.fingerprint()) == 0
        assert relation.fingerprint() in fresh_arena  # warm for the next job

    def test_disabled_memplane_uses_private_copy(self, fresh_arena):
        relation = make_random_relation(14)
        with override(memplane=False):
            buffers = SharedRelationBuffers(relation)
            assert not buffers.arena_backed
            assert len(fresh_arena) == 0
            name = buffers.spec.matrix_name.lstrip("/")
            assert name in _shm_names()
            buffers.close()
            assert name not in _shm_names()

    def test_arena_attach_fault_falls_back_to_private_copy(self, fresh_arena):
        relation = make_random_relation(14)
        faults.activate("arena.attach", times=1)
        buffers = SharedRelationBuffers(relation)
        assert not buffers.arena_backed
        name = buffers.spec.matrix_name.lstrip("/")
        assert name in _shm_names()
        buffers.close()
        assert name not in _shm_names()


class TestPoolLeakHygiene:
    def _one_item(self):
        return [(0, attrset.singleton(0))]

    def test_pool_broken_fault_releases_arena_lease(self, fresh_arena):
        relation = make_random_relation(15)
        executor = ParallelExecutor(relation, jobs=2, retries=0)
        executor.run("redundancy", self._one_item(), extra={"policy": "include"})
        assert executor._buffers is not None and executor._buffers.arena_backed
        assert fresh_arena.pins(relation.fingerprint()) == 1
        faults.activate("pool.broken")
        with pytest.raises(PoolBrokenError):
            executor.run(
                "redundancy", self._one_item(), extra={"policy": "include"}
            )
        assert executor.broken
        assert executor._buffers is None
        assert fresh_arena.pins(relation.fingerprint()) == 0
        executor.close()

    def test_pool_broken_with_memplane_off_unlinks_segments(self):
        relation = make_random_relation(15)
        with override(memplane=False):
            executor = ParallelExecutor(relation, jobs=2, retries=0)
            executor.run(
                "redundancy", self._one_item(), extra={"policy": "include"}
            )
            assert not executor._buffers.arena_backed
            name = executor._buffers.spec.matrix_name.lstrip("/")
            assert name in _shm_names()
            faults.activate("pool.broken")
            with pytest.raises(PoolBrokenError):
                executor.run(
                    "redundancy", self._one_item(), extra={"policy": "include"}
                )
            assert name not in _shm_names()
            executor.close()


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------


class TestLadder:
    def test_shed_arena_rung_frees_unpinned_entries(self, fresh_arena):
        relation = make_random_relation(16)
        fresh_arena.ingest(relation)
        assert fresh_arena.memory_bytes() > 0
        assert _shed_arena() > 0
        assert fresh_arena.memory_bytes() == 0
        assert _shed_arena() == 0


# ----------------------------------------------------------------------
# Shared partition tier
# ----------------------------------------------------------------------


class TestSharedTier:
    def test_cache_seeds_consults_and_publishes(self):
        relation = random_relation(60, 4, domain_sizes=3, seed=101)
        tier = SharedPartitionTier(("fp", "eq", "python"))
        cold = PartitionCache(relation, shared=tier)
        assert cold.shared_hits == 0
        assert len(tier) == relation.n_cols  # singletons published
        mask = attrset.from_attrs([0, 1])
        cold.get(mask)
        warm = PartitionCache(relation, shared=tier)
        assert warm.shared_hits == relation.n_cols  # seeded from the tier
        misses_before = warm.misses
        partition = warm.get(mask)
        assert warm.misses == misses_before + 1  # the local miss...
        assert warm.shared_hits == relation.n_cols + 1  # ...hit the tier
        assert partition is cold.peek(mask)  # literally the same object

    def test_tier_ignores_wide_partitions(self):
        relation = random_relation(30, MAX_SHARED_ATTRS + 1, seed=102)
        tier = SharedPartitionTier(("fp", "eq", "python"))
        wide = StrippedPartition.for_attrs(
            relation, attrset.from_attrs(range(MAX_SHARED_ATTRS + 1))
        )
        tier.put(wide)
        assert len(tier) == 0

    def test_tier_for_identity_and_gates(self):
        relation = make_random_relation(18)
        assert memplane.tier_for(relation) is memplane.tier_for(relation)
        assert memplane.tier_for(object()) is None  # no fingerprint
        with override(memplane=False):
            assert memplane.tier_for(relation) is None

    def test_ranking_identical_cold_warm_and_disabled(self):
        relation = make_random_relation(19)
        cover = DHyFD().discover(relation).fds
        memplane.reset_tiers()
        cold = rank_cover(relation, cover)
        warm = rank_cover(relation, cover)
        with override(memplane=False):
            off = rank_cover(relation, cover)
        reference = [(r.fd, r.redundancy, r.redundancy_excluding_null)
                     for r in cold.ranked]
        for result in (warm, off):
            assert [
                (r.fd, r.redundancy, r.redundancy_excluding_null)
                for r in result.ranked
            ] == reference
        tier = memplane.tier_for(relation)
        assert tier is not None and tier.hits > 0


# ----------------------------------------------------------------------
# Covers are byte-identical: jobs x memplane differential
# ----------------------------------------------------------------------


class TestCoverDifferential:
    @pytest.mark.parametrize("seed", [20, 21])
    def test_jobs_and_memplane_grid_byte_identical(self, seed):
        relation = make_random_relation(seed)
        covers = {}
        try:
            for enabled in (True, False):
                for jobs in (1, 2):
                    memplane.reset_tiers()
                    memplane.reset_arena()
                    with override(memplane=enabled):
                        result = DHyFD(jobs=jobs, parallel_min_rows=1).discover(
                            relation
                        )
                    covers[(enabled, jobs)] = _fd_tuples(result.fds)
        finally:
            memplane.reset_arena()
        reference = covers[(True, 1)]
        assert all(cover == reference for cover in covers.values())


# ----------------------------------------------------------------------
# Service integration + metrics
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_register_ingests_and_metrics_export_gauges(self, fresh_arena):
        with FDService(max_workers=1) as service:
            service.register_rows(
                ["a", "b"], [["x", 1], ["y", 2], ["x", 1]], name="t"
            )
            payload = service.metrics_payload()
            gauges = payload["gauges"]
            assert gauges["memplane.enabled"] == 1.0
            assert gauges["memplane.datasets"] >= 1.0
            assert gauges["memplane.arena_bytes"] > 0
            assert "memplane.tier_hit_rate" in gauges
            assert payload["counters"]["service.registry.arena_ingests"] == 1

    def test_append_through_registry_shares_parent(self, fresh_arena):
        with FDService(max_workers=1) as service:
            service.register_rows(["a", "b"], [["x", 1], ["y", 2]], name="t")
            service.append_rows("t", [["z", 3]])
            assert fresh_arena.prefix_shared == 1
            assert len(fresh_arena) == 2

    def test_disabled_memplane_registers_nothing(self, fresh_arena):
        with override(memplane=False):
            with FDService(max_workers=1) as service:
                service.register_rows(["a"], [["x"], ["y"]], name="t")
                payload = service.metrics_payload()
                assert len(fresh_arena) == 0
                assert payload["gauges"]["memplane.enabled"] == 0.0
                assert (
                    "service.registry.arena_ingests"
                    not in payload["counters"]
                )


# ----------------------------------------------------------------------
# Orphan sweeps (crash recovery)
# ----------------------------------------------------------------------


def _subprocess_env(owner: str) -> dict:
    env = dict(os.environ, REPRO_FD_ARENA_OWNER=owner)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    return env


class TestOrphanSweep:
    def test_sweep_is_scoped_to_owner(self, tmp_path):
        mine = tmp_path / f"{SEGMENT_PREFIX}-own1-aaaa-0m"
        theirs = tmp_path / f"{SEGMENT_PREFIX}-own2-bbbb-0m"
        other = tmp_path / "psm_unrelated"
        for path in (mine, theirs, other):
            path.write_bytes(b"x")
        assert sweep_orphans("own1", shm_dir=str(tmp_path)) == [mine.name]
        assert not mine.exists()
        assert theirs.exists() and other.exists()
        assert sweep_orphans("", shm_dir=str(tmp_path)) == []
        assert sweep_orphans("own9", shm_dir=str(tmp_path / "missing")) == []

    def test_clean_exit_unlinks_segments(self):
        owner = f"t-exit{os.getpid()}"
        code = (
            "from repro.memplane import get_arena\n"
            "from repro.relational.relation import Relation\n"
            "r = Relation.from_rows([[1, 2], [3, 4]], schema=['a', 'b'])\n"
            "lease = get_arena().lease(r)\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(owner),
            check=True,
            timeout=60,
            cwd="/root/repo",
        )
        assert _arena_files(owner) == []

    def test_sigkill_orphans_are_swept(self):
        owner = f"t-kill{os.getpid()}"
        code = (
            "import time\n"
            "from repro.memplane import get_arena\n"
            "from repro.relational.relation import Relation\n"
            "r = Relation.from_rows([[1, 2], [3, 4]], schema=['a', 'b'])\n"
            "lease = get_arena().lease(r)\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            env=_subprocess_env(owner),
            stdout=subprocess.PIPE,
            text=True,
            cwd="/root/repo",
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            assert len(_arena_files(owner)) == 2
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            # The replica-restart path: whoever respawns the dead
            # process sweeps its segments first.  The dead process's
            # resource tracker may race us to some of them; either way
            # zero must remain.
            deadline = time.monotonic() + 10
            sweep_orphans(owner)
            while _arena_files(owner) and time.monotonic() < deadline:
                time.sleep(0.1)
                sweep_orphans(owner)
            assert _arena_files(owner) == []
        finally:
            proc.stdout.close()
            if proc.poll() is None:  # pragma: no cover — cleanup path
                proc.kill()
                proc.wait(timeout=10)
