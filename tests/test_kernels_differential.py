"""Differential tests: python vs numpy partition kernels.

Every kernel operation is cross-checked on seeded random relations
(regimes drawn in ``conftest.make_random_relation``) under both null
semantics, plus hand-built edge cases: the empty relation, a single
row, all-duplicate rows, and relations whose partitions are exclusively
single-row (stripped) clusters.  Both backends must return *identical*
structures — same cluster lists in the same canonical order, same agree
sets, same validation outcomes, and byte-identical FD covers from a
full DHyFD run.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.dhyfd import DHyFD
from repro.core.sampling import AgreeSetSampler, all_agree_sets
from repro.core.validation import validate_fd
from repro.datasets.synthetic import random_relation
from repro.partitions import kernels
from repro.partitions.stripped import StrippedPartition
from repro.relational import attrset
from repro.relational.null import NullSemantics
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

from tests.conftest import make_random_relation

SEEDS = list(range(12))
SEMANTICS = [NullSemantics.EQ, NullSemantics.NEQ]


def edge_case_relations(semantics):
    """Empty, single-row, all-duplicate, and all-stripped relations."""
    schema3 = RelationSchema(["a", "b", "c"])
    return [
        Relation.from_rows([], schema3, semantics),
        Relation.from_rows([("x", "y", "z")], schema3, semantics),
        Relation.from_rows([("x", "y", "z")] * 5, schema3, semantics),
        # every column is a key: all partitions are empty (stripped)
        Relation.from_rows(
            [(f"k{i}", f"m{i}", f"n{i}") for i in range(6)], schema3, semantics
        ),
    ]


def both_backends(fn):
    """Run ``fn(backend)`` under each backend and return the results."""
    results = []
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            results.append(fn(backend))
    return tuple(results)


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
class TestPartitionKernels:
    def test_for_attrs_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 1)
        for _ in range(4):
            mask = attrset.from_attrs(
                rng.sample(range(rel.n_cols), rng.randint(1, rel.n_cols))
            )
            py, np_ = both_backends(
                lambda b: StrippedPartition.for_attrs(rel, mask)
            )
            assert py.clusters == np_.clusters
            assert py.attrs == np_.attrs

    def test_refine_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        rng = random.Random(seed + 2)
        attr = rng.randrange(rel.n_cols)
        other = rng.randrange(rel.n_cols)
        base_py, base_np = both_backends(
            lambda b: StrippedPartition.for_attribute(rel, attr)
        )
        assert base_py.clusters == base_np.clusters
        refined = both_backends(
            lambda b: (base_py if b == "python" else base_np).refine(rel, other)
        )
        assert refined[0].clusters == refined[1].clusters

    def test_refine_many_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        universal = StrippedPartition.universal(rel)
        attrs = list(range(rel.n_cols))
        py, np_ = both_backends(
            lambda b: universal.refine_many(rel, attrs)
        )
        assert py.clusters == np_.clusters

    def test_intersect_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        if rel.n_cols < 2:
            pytest.skip("needs two attributes")
        left_mask = attrset.singleton(0)
        right_mask = attrset.singleton(1)

        def product(backend):
            left = StrippedPartition.for_attrs(rel, left_mask)
            right = StrippedPartition.for_attrs(rel, right_mask)
            return left.intersect(right)

        py, np_ = both_backends(product)
        assert py.clusters == np_.clusters
        # and both match direct construction of the union partition
        direct = StrippedPartition.for_attrs(rel, left_mask | right_mask)
        assert {frozenset(c) for c in py.clusters} == {
            frozenset(c) for c in direct.clusters
        }

    def test_refines_attribute_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        for lhs_attr in range(rel.n_cols):
            with kernels.use_backend("python"):
                partition_py = StrippedPartition.for_attribute(rel, lhs_attr)
            for rhs_attr in range(rel.n_cols):
                py, np_ = both_backends(
                    lambda b: partition_py.refines_attribute(rel, rhs_attr)
                )
                assert py == np_


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
class TestAgreeSetKernels:
    def test_sample_round_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        singletons = [
            StrippedPartition.for_attribute(rel, attr)
            for attr in range(rel.n_cols)
        ]

        def run(backend):
            sampler = AgreeSetSampler(rel, singletons)
            sets_a, stats_a = sampler.sample_round()
            sets_b, stats_b = sampler.sample_round()
            return sets_a, sets_b, stats_a.comparisons, stats_b.comparisons

        py, np_ = both_backends(run)
        assert py == np_

    def test_all_agree_sets_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        py, np_ = both_backends(lambda b: all_agree_sets(rel))
        assert py == np_

    def test_validate_fd_identical(self, seed, semantics):
        rel = make_random_relation(seed, semantics)
        if rel.n_cols < 2:
            pytest.skip("needs two attributes")
        rng = random.Random(seed + 3)
        lhs_attrs = rng.sample(range(rel.n_cols), rng.randint(1, rel.n_cols - 1))
        lhs = attrset.from_attrs(lhs_attrs)
        rhs = attrset.complement(lhs, rel.n_cols)
        start = attrset.singleton(lhs_attrs[0])

        def run(backend):
            partition = StrippedPartition.for_attrs(rel, start)
            outcome = validate_fd(rel, lhs, rhs, partition)
            return outcome.valid_rhs, outcome.non_fd_lhs, outcome.comparisons

        py, np_ = both_backends(run)
        assert py == np_


def validate_both(rel, lhs, rhs, partition):
    """``(valid_rhs, non_fd_lhs, comparisons)``, asserted equal across
    backends; both validate the same ``partition``."""

    def run(backend):
        outcome = validate_fd(rel, lhs, rhs, partition)
        return outcome.valid_rhs, outcome.non_fd_lhs, outcome.comparisons

    py, np_ = both_backends(run)
    assert py == np_
    return py


def clustered_relation(seed, semantics, n_rows=400, n_cols=7):
    """Few distinct values per column: long clusters, late violations."""
    rng = random.Random(seed)
    domains = [rng.choice([1, 2, 3, 5, 40]) for _ in range(n_cols)]
    return random_relation(
        n_rows,
        n_cols,
        domain_sizes=domains,
        null_rate=rng.choice([0.0, 0.05]),
        seed=seed,
        semantics=semantics,
    )


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
class TestValidationKernel:
    """The batched numpy kernel against the per-cluster python oracle."""

    def test_multi_attribute_start_partition(self, seed, semantics):
        rel = clustered_relation(seed, semantics)
        rng = random.Random(seed + 4)
        for _ in range(6):
            lhs_attrs = rng.sample(range(rel.n_cols), rng.randint(3, rel.n_cols - 1))
            start = attrset.from_attrs(lhs_attrs[: rng.randint(2, len(lhs_attrs) - 1)])
            lhs = attrset.from_attrs(lhs_attrs)
            partition = StrippedPartition.for_attrs(rel, start)
            rest = [a for a in range(rel.n_cols) if a not in lhs_attrs]
            for rhs in (
                attrset.complement(lhs, rel.n_cols),
                attrset.singleton(rng.choice(rest)),
            ):
                validate_both(rel, lhs, rhs, partition)

    def test_partition_already_refines_lhs(self, seed, semantics):
        rel = clustered_relation(seed, semantics)
        rng = random.Random(seed + 5)
        for size in (1, 2, 3):
            lhs = attrset.from_attrs(rng.sample(range(rel.n_cols), size))
            partition = StrippedPartition.for_attrs(rel, lhs)
            validate_both(rel, lhs, attrset.complement(lhs, rel.n_cols), partition)

    def test_empty_partition(self, seed, semantics):
        rel = clustered_relation(seed, semantics, n_rows=50)
        lhs = attrset.from_attrs([0, 1])
        rhs = attrset.complement(lhs, rel.n_cols)
        for attrs in (attrset.EMPTY, attrset.singleton(0), lhs):
            empty = StrippedPartition(attrs, [], rel.n_rows)
            assert validate_both(rel, lhs, rhs, empty) == (rhs, set(), 0)

    def test_random_candidates(self, seed, semantics):
        """Random (start, LHS, RHS) triples, the universal start included."""
        rel = clustered_relation(seed, semantics, n_rows=300)
        rng = random.Random(seed + 6)
        for _ in range(10):
            lhs_attrs = rng.sample(range(rel.n_cols), rng.randint(0, rel.n_cols - 1))
            start_attrs = lhs_attrs[: rng.randint(0, len(lhs_attrs))]
            lhs = attrset.from_attrs(lhs_attrs)
            rest = [a for a in range(rel.n_cols) if a not in lhs_attrs]
            rhs = attrset.from_attrs(rng.sample(rest, rng.randint(1, len(rest))))
            partition = StrippedPartition.for_attrs(rel, attrset.from_attrs(start_attrs))
            validate_both(rel, lhs, rhs, partition)


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_validate_exit_in_later_chunk(semantics):
    """One 300-row cluster; each RHS attribute first breaks in another
    64-row chunk, so the exit comes in chunk 4 (rows 193-256)."""
    rows = [("g", "a", "b", "c") for _ in range(300)]
    rows[10] = ("g", "a'", "b", "c")
    rows[150] = ("g", "a", "b'", "c")
    rows[200] = ("g", "a", "b", "c'")
    rows[260] = ("g", "a'", "b'", "c'")
    rel = Relation.from_rows(rows, RelationSchema(["g", "a", "b", "c"]), semantics)
    lhs = attrset.singleton(0)
    rhs = attrset.from_attrs([1, 2, 3])
    partition = StrippedPartition.for_attrs(rel, lhs)
    valid_rhs, non_fds, comparisons = validate_both(rel, lhs, rhs, partition)
    assert valid_rhs == attrset.EMPTY
    assert comparisons == 4 * kernels.VALIDATE_CHUNK
    assert non_fds == {
        attrset.from_attrs([0, 2, 3]),
        attrset.from_attrs([0, 1, 3]),
        attrset.from_attrs([0, 1, 2]),
    }


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_validate_exit_in_later_batch(semantics):
    """1,000 rows in 100 clusters of 10, each split in two interleaved
    sub-clusters by a missing LHS attribute; the only violation sits in
    cluster 80, past the first two batches of source clusters."""
    rows = []
    for cluster in range(100):
        for i in range(10):
            rhs_value = f"r{cluster}" if (cluster, i) != (80, 7) else "odd"
            rows.append((f"g{cluster}", f"h{i % 2}", rhs_value, f"n{cluster % 3}"))
    rel = Relation.from_rows(rows, RelationSchema(["g", "h", "r", "n"]), semantics)
    lhs = attrset.from_attrs([0, 1])
    rhs = attrset.singleton(2)
    partition = StrippedPartition.for_attrs(rel, attrset.singleton(0))
    valid_rhs, non_fds, comparisons = validate_both(rel, lhs, rhs, partition)
    assert valid_rhs == attrset.EMPTY
    assert non_fds == {attrset.from_attrs([0, 1, 3])}
    # 80 clusters of 2 x 4 compared rows, then both sub-clusters of the
    # 81st: the violating row is in the one whose first row comes second.
    assert comparisons == 80 * 8 + 8
    # A valid FD compares every row of every batch.
    assert validate_both(rel, lhs, attrset.singleton(3), partition) == (
        attrset.singleton(3), set(), 800
    )


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_validate_wide_missing_lhs(semantics):
    """Thirteen high-cardinality missing LHS attributes: packing their
    codes into one sort key needs more than 64 bits."""
    rng = random.Random(11)
    base = [tuple(f"v{rng.randrange(250)}" for _ in range(13)) for _ in range(150)]
    rows = []
    for i, values in enumerate(base):
        rows.append(values + ("x", "y"))
        rows.append(values + ("x", "y" if i % 9 else "z"))
    rel = Relation.from_rows(rows, RelationSchema.of_width(15), semantics)
    lhs = attrset.from_attrs(range(13))
    universal = StrippedPartition.universal(rel)
    valid_rhs, non_fds, comparisons = validate_both(
        rel, lhs, attrset.from_attrs([13, 14]), universal
    )
    assert valid_rhs == attrset.singleton(13)
    assert non_fds == {attrset.from_attrs(range(14))}
    assert comparisons == 150


def test_group_key_does_not_wrap():
    """Rows 0 and 1 differ only in their source cluster; packing the
    codes in plain int64 arithmetic would wrap them onto one key."""
    top = 2**32 - 1
    cids = np.array([0, 1, 1])
    keys = [np.array([5, 5, top]), np.array([7, 7, top])]
    assert len(set(kernels._group_key(cids, keys).tolist())) == 3


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_validate_flat_matches_validate_fd(backend):
    """The pool workers' flat-array entry point gives the same result."""
    from repro.core.validation import validate_flat

    rel = clustered_relation(3, NullSemantics.EQ)
    lhs = attrset.from_attrs([0, 1, 2])
    rhs = attrset.complement(lhs, rel.n_cols)
    partition = StrippedPartition.for_attrs(rel, attrset.singleton(1))
    rows, lengths = partition.flat()
    with kernels.use_backend(backend):
        flat = validate_flat(rel, lhs, rhs, partition.attrs, rows, lengths)
        nested = validate_fd(rel, lhs, rhs, partition)
    assert (flat.valid_rhs, flat.non_fd_lhs, flat.comparisons) == (
        nested.valid_rhs, nested.non_fd_lhs, nested.comparisons
    )


@pytest.mark.parametrize("name", ["weather", "adult", "letter"])
def test_validation_oracle_on_every_discovery_call(name, monkeypatch):
    """During DHyFD and HyFD runs, every ``validate_fd`` call gives the
    same result from the batched kernel as from the per-cluster oracle."""
    import repro.algorithms.hyfd as hyfd_module
    import repro.core.dhyfd as dhyfd_module
    from repro.datasets.benchmarks import load_benchmark

    calls = []

    def checked(relation, lhs, rhs, partition):
        results = both_backends(
            lambda b: validate_fd(relation, lhs, rhs, partition)
        )
        py, np_ = (
            (r.valid_rhs, r.non_fd_lhs, r.comparisons) for r in results
        )
        assert py == np_, (lhs, rhs, partition.attrs)
        calls.append(lhs)
        return results[1]

    monkeypatch.setattr(dhyfd_module, "validate_fd", checked)
    monkeypatch.setattr(hyfd_module, "validate_fd", checked)
    relation = load_benchmark(name, n_rows=200)
    for algorithm in (DHyFD(jobs=1), hyfd_module.HyFD()):
        algorithm.discover(relation)
    assert len(calls) > 20


def test_validation_spans_make_no_refine_calls(monkeypatch):
    """Validation runs as one kernel call: a traced DHyFD run refines
    partitions only outside its validation spans, and records exactly
    one ``kernels.validate`` call per validated candidate."""
    from repro.datasets.benchmarks import load_benchmark
    from repro.telemetry import Tracer, current_tracer, use_tracer

    real_refine = kernels.refine_clusters

    def refine_probe(*args, **kwargs):
        current_tracer().event("test.refine")
        return real_refine(*args, **kwargs)

    monkeypatch.setattr(kernels, "refine_clusters", refine_probe)
    tracer = Tracer()
    with use_tracer(tracer):
        result = DHyFD(jobs=1).discover(
            load_benchmark("weather", n_rows=300)
        )
    parents = [event.span for event in tracer.find_events("test.refine")]
    assert "refinement" in parents
    assert "validation" not in parents
    counters = tracer.metrics.counters
    assert counters["kernels.validate.numpy.calls"].value == result.stats.validations
    assert "kernels.validate.python.calls" not in counters
    assert tracer.metrics.histogram("kernels.validate.numpy.seconds").count == (
        result.stats.validations
    )


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("seed", SEEDS)
def test_dhyfd_covers_identical(seed, semantics):
    """Full discovery produces byte-identical covers on both backends."""
    rel = make_random_relation(seed, semantics)
    py, np_ = both_backends(lambda b: DHyFD().discover(rel))
    assert py.fds == np_.fds
    assert py.format_fds() == np_.format_fds()


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_edge_cases(semantics):
    """Empty, single-row, duplicate-only, and key-only relations."""
    for rel in edge_case_relations(semantics):
        mask = attrset.full_set(rel.n_cols)
        py, np_ = both_backends(
            lambda b: StrippedPartition.for_attrs(rel, mask)
        )
        assert py.clusters == np_.clusters
        agree_py, agree_np = both_backends(lambda b: all_agree_sets(rel))
        assert agree_py == agree_np
        cover_py, cover_np = both_backends(lambda b: DHyFD().discover(rel).fds)
        assert cover_py == cover_np


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_single_row_clusters_strip_identically(semantics):
    """Partitions whose refinement leaves only singletons come back empty."""
    rel = Relation.from_rows(
        [("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")],
        RelationSchema(["g", "u"]),
        semantics,
    )
    base = StrippedPartition.for_attribute(rel, 0)
    assert base.num_clusters == 2
    py, np_ = both_backends(lambda b: base.refine(rel, 1))
    assert py.clusters == np_.clusters == []


def test_default_backend_round_trip():
    previous = kernels.active_backend()
    assert previous == "numpy"
    with kernels.use_backend("python"):
        assert kernels.active_backend() == "python"
    assert kernels.active_backend() == previous
    with pytest.raises(ValueError):
        with kernels.use_backend("fortran"):
            pass
    assert kernels.active_backend() == previous
