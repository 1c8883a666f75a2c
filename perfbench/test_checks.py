"""The benchmark's output checks accept a correct profile and reject corrupted ones.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from repro import FDSet, make_algorithm, profile
from repro.datasets.benchmarks import load_benchmark
from repro.relational.fd_io import cover_payload

import library
import run
import service
from checks import check_profile, check_served_cover, cover_key, oracle_cover, oracle_key
from common import Result


@pytest.fixture(scope="module")
def relation():
    return load_benchmark("bridges", n_rows=108, seed=0)


@pytest.fixture(scope="module")
def good(relation):
    return profile(relation)


def corrupt(out, **changes):
    return dataclasses.replace(out, **changes)


def test_correct_profile_passes(relation, good):
    assert check_profile(good, oracle_cover(relation), {}) == []


def test_missing_left_reduced_fd_is_rejected(relation, good):
    fds = list(good.discovery.fds)
    broken = corrupt(good, discovery=dataclasses.replace(good.discovery, fds=FDSet(fds[1:])))
    assert any("oracle" in p for p in check_profile(broken, oracle_cover(relation), {}))


def test_non_equivalent_canonical_cover_is_rejected(relation, good):
    canonical = list(good.canonical)
    broken = corrupt(good, canonical=FDSet(canonical[1:]))
    problems = check_profile(broken, oracle_cover(relation), {})
    assert any("not equivalent" in p for p in problems)
    assert any("ranking does not list" in p for p in problems)


def test_ranking_out_of_order_is_rejected(relation, good):
    ranked = good.ranking.ranked
    assert ranked[0].redundancy > ranked[-1].redundancy
    reordered = dataclasses.replace(good.ranking, ranked=list(reversed(ranked)))
    problems = check_profile(corrupt(good, ranking=reordered), oracle_cover(relation), {})
    assert any("non-increasing" in p for p in problems)


def test_redundancy_above_values_is_rejected(relation, good):
    report = dataclasses.replace(
        good.redundancy, red_including_null=good.redundancy.n_values + 1
    )
    problems = check_profile(corrupt(good, redundancy=report), oracle_cover(relation), {})
    assert any("out of bounds" in p for p in problems)


def _status(result):
    return {"status": "done", "job_id": "j", "result": result.to_payload()}


def test_served_cover_matches_oracle(relation):
    result = make_algorithm("dhyfd").discover(relation)
    assert check_served_cover(_status(result), oracle_key(relation)) == []


def test_corrupted_served_cover_is_rejected(relation):
    result = make_algorithm("dhyfd").discover(relation)
    result.fds = FDSet(list(result.fds)[1:])
    assert check_served_cover(_status(result), oracle_key(relation)) != []


def test_failed_job_is_rejected(relation):
    status = {"status": "failed", "error": "boom", "job_id": "j"}
    assert check_served_cover(status, cover_key(cover_payload(FDSet(), relation.schema))) != []


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(library.CELLS, "sparse_rows", [("bridges", 60), ("iris", 40)])
    monkeypatch.setattr(library, "SETUP_SAMPLE_S", 0.0)


def test_run_reports_a_profile_that_always_raises(tiny_workload, monkeypatch, capsys):
    def broken(relation):
        raise RuntimeError("boom")

    monkeypatch.setattr(library, "profile", broken)
    assert run.main(["--workload", "sparse_rows", "--seed", "3", "--seconds", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAILED bridges: profile() raised") for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_reports_a_wrong_cover_on_every_pass(tiny_workload, monkeypatch):
    def wrong(relation):
        out = profile(relation)
        fds = FDSet(list(out.discovery.fds)[1:])
        return dataclasses.replace(out, discovery=dataclasses.replace(out.discovery, fds=fds))

    monkeypatch.setattr(library, "profile", wrong)
    result = library.run("sparse_rows", 3, 0.5, trace=False)
    assert result.failed == result.attempted >= 2
    assert all("oracle" in reason for reason in result.failures)
    assert result.e2e["round_ms"][0] > 0


def test_service_summary_survives_a_loop_without_clean_rounds():
    loop = service.Loop("http://127.0.0.1:1", {}, "", base=None, seed=0)
    loop.rounds = [(0.5, False)]
    loop.reads = [("discover", "weather", 0.1, None, "ConnectionRefusedError()")]
    result = Result()
    service.summarise(loop, 1.0, result)
    assert result.e2e["round_ms"] == (500.0, "ms", 1)
    assert result.detail["write_p50_ms"] == (0.0, "ms", 0)
