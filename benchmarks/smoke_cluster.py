#!/usr/bin/env python
"""End-to-end smoke test for the sharded cluster (docs/cluster.md).

Boots ``python -m repro cluster`` (2 replicas + router) as a real
subprocess, then checks the full acceptance story over plain HTTP:

* uploads land on the shard their content fingerprint hashes to;
* covers served *through the router* are byte-identical to a direct
  in-process ``discover()``;
* ``/health`` and ``/metrics`` fan out and merge across replicas;
* killing one replica degrades only that shard — the surviving shard
  keeps serving, the dead shard answers 503 + Retry-After (no hangs) —
  and the manager restarts the replica, which reloads its persisted
  datasets and covers and serves the cached result;
* SIGKILLing a replica *mid-discovery* loses nothing: the respawned
  replica replays its job journal (``--recover``), resumes the job
  from its last checkpoint, and the client's poll loop — which never
  sees a 404 — lands on a cover byte-identical to a direct run
  (docs/durability.md).

Run directly (CI runs this as a dedicated leg)::

    PYTHONPATH=src python benchmarks/smoke_cluster.py
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import struct
import subprocess
import sys
import tempfile
import time
import urllib.request
import zlib

from repro.algorithms.registry import make_algorithm
from repro.cluster import shard_for
from repro.datasets import load_benchmark
from repro.datasets.synthetic import random_relation
from repro.relational.fd_io import cover_to_json
from repro.service import ServiceClient, ServiceError

BENCHMARK = "iris"
CONFIG = {"algorithm": "dhyfd"}
#: Serial configuration for the kill-mid-job scenario; its input
#: (:func:`slow_relation`) makes the lattice walk take several seconds.
SLOW_CONFIG = {"algorithm": "dhyfd", "jobs": 1}
REPLICAS = 2


def boot_cluster(data_dir: str):
    """Start ``repro cluster --router-port 0`` and parse the bound URL."""
    env = dict(os.environ)
    # Checkpoint at every level boundary so a mid-job SIGKILL always
    # has a recent snapshot to resume from.
    env["REPRO_FD_CHECKPOINT_INTERVAL"] = "0"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "cluster",
            "--replicas",
            str(REPLICAS),
            "--router-port",
            "0",
            "--max-workers",
            "2",
            "--data-dir",
            data_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 90.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise SystemExit(f"cluster died on startup (rc={proc.returncode})")
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            return proc, url
    proc.kill()
    raise SystemExit("cluster did not announce its URL within 90s")


def datasets_per_shard():
    """Benchmark variants until every shard owns at least one dataset."""
    chosen = {}
    rows = 40
    while len(chosen) < REPLICAS and rows < 400:
        relation = load_benchmark(BENCHMARK, n_rows=rows)
        shard = shard_for(relation.fingerprint(), REPLICAS)
        chosen.setdefault(shard, relation)
        rows += 1
    assert len(chosen) == REPLICAS, "could not cover every shard"
    return chosen


def cluster_info(url: str) -> dict:
    with urllib.request.urlopen(url + "/cluster", timeout=10.0) as response:
        return json.loads(response.read().decode("utf-8"))


def wal_checkpointed_jobs(path: pathlib.Path) -> set:
    """Job ids with a checkpoint frame in a replica's ``jobs.wal``.

    Read-only frame walk (crc32 + length header, see
    repro/service/journal.py) that simply stops at any torn tail — the
    replica is appending to this file while we poll it.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return set()
    jobs = set()
    offset = 0
    while offset + 8 <= len(raw):
        crc, length = struct.unpack_from("<II", raw, offset)
        start = offset + 8
        end = start + length
        if end > len(raw):
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break
        record = json.loads(payload.decode("utf-8"))
        if record.get("type") == "checkpoint":
            jobs.add(record.get("job_id"))
        offset = end
    return jobs


def slow_relation():
    """4,000 x 15 ternary columns: serial DHyFD walks 13 levels in ~7 s
    on a 2-vCPU VM, a wide window to SIGKILL the replica between
    checkpoints."""
    return random_relation(4000, 15, domain_sizes=[3] * 15, null_rate=0.0, seed=5)


def kill_mid_job_scenario(url: str, data_dir: str, client: ServiceClient) -> None:
    """SIGKILL a replica mid-discovery; the job must still finish.

    The acceptance bar of the durable job plane: after the crash the
    same job id keeps resolving (never a 404), the respawned replica
    resumes from the journaled checkpoint (skipping completed levels),
    and the final cover is byte-identical to a direct run.
    """
    relation = slow_relation()
    expected = cover_to_json(
        make_algorithm("dhyfd").discover(relation).fds, relation.schema
    )
    info = client.upload_rows(
        relation.schema.names, list(relation.iter_rows()), name="slow-kill"
    )
    fingerprint = info["fingerprint"]
    shard = shard_for(fingerprint, REPLICAS)
    wal = pathlib.Path(data_dir) / f"replica-{shard}" / "store" / "jobs.wal"

    job_id = client.submit(fingerprint, config=dict(SLOW_CONFIG))
    local_id = job_id.split(":", 1)[1]

    # Wait until the running job has journaled at least one checkpoint,
    # then pull the plug on its replica.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if local_id in wal_checkpointed_jobs(wal):
            break
        time.sleep(0.05)
    else:
        raise SystemExit(f"no checkpoint for {local_id} appeared in {wal}")
    status = client.status(job_id)
    assert status["status"] in ("queued", "running"), (
        f"job finished before the kill ({status['status']}) — "
        "SLOW_CONFIG is not slow enough for this host"
    )
    victim = next(r for r in cluster_info(url)["replicas"] if r["shard"] == shard)
    os.kill(victim["pid"], signal.SIGKILL)
    print(f"killed shard {shard} replica (pid {victim['pid']}) mid-job {job_id}")

    # Poll the job id through the router.  503s while the shard is
    # down are expected; a 404 means the job plane lost the job.
    poller = ServiceClient(url, timeout=30.0, retries=0)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        try:
            status = poller.status(job_id)
        except ServiceError as exc:
            assert exc.status != 404, (
                f"{job_id} 404ed after the crash — recovery lost the job"
            )
            time.sleep(0.3)
            continue
        if status["status"] in ("done", "failed", "cancelled", "lost"):
            break
        time.sleep(0.2)
    else:
        raise SystemExit(f"{job_id} did not finish within 120s of the kill")

    assert status["status"] == "done", status
    assert status.get("recovered") is True, "job not rebuilt from the journal"
    assert status.get("resumed") is True, "job restarted cold, not resumed"
    result = ServiceClient.result_from_status(status)
    resumed_levels = status["result"]["stats"]["resumed_levels"]
    assert resumed_levels > 0, "resume did not skip any completed levels"
    assert cover_to_json(result.fds, result.schema) == expected, (
        "resumed cover differs from direct discover()"
    )
    metrics = client.metrics()
    assert metrics["counters"]["cluster.service.jobs.resumed"] >= 1
    print(
        f"durability: {job_id} survived SIGKILL, resumed past "
        f"{resumed_levels} completed levels, cover byte-identical"
    )


def main() -> int:
    by_shard = datasets_per_shard()
    expected = {
        shard: cover_to_json(
            make_algorithm("dhyfd").discover(relation).fds, relation.schema
        )
        for shard, relation in by_shard.items()
    }

    data_dir = tempfile.mkdtemp(prefix="repro-cluster-smoke-")
    proc, url = boot_cluster(data_dir)
    try:
        client = ServiceClient(url, timeout=120.0)
        fingerprints = {}
        for shard, relation in sorted(by_shard.items()):
            info = client.upload_rows(
                relation.schema.names,
                list(relation.iter_rows()),
                name=f"{BENCHMARK}-s{shard}",
            )
            fingerprints[shard] = info["fingerprint"]
            assert shard_for(info["fingerprint"], REPLICAS) == shard
            print(f"uploaded shard {shard}: {info['fingerprint'][:12]}... "
                  f"({relation.n_rows} rows)")

        for shard, fingerprint in sorted(fingerprints.items()):
            status = client.discover(fingerprint, config=dict(CONFIG))
            assert status["status"] == "done", status
            result = ServiceClient.result_from_status(status)
            served = cover_to_json(result.fds, result.schema)
            assert served == expected[shard], (
                f"shard {shard}: routed cover differs from direct discover()"
            )
            assert status["job_id"].startswith(f"s{shard}:"), status["job_id"]
            print(f"discover via router, shard {shard}: {len(result.fds)} FDs, "
                  "byte-identical to direct run")

        health = client.health()
        assert health["status"] == "ok" and health["healthy"] == REPLICAS, health
        metrics = client.metrics()
        assert metrics["counters"]["cluster.service.discovery.runs"] == REPLICAS
        assert "cluster.queue_depth" in metrics["gauges"], metrics["gauges"]
        print(f"fanout: /health sees {REPLICAS} healthy replicas, "
              "/metrics merges cluster totals")

        # --- failover: kill shard 0's replica process outright ---------
        replicas = cluster_info(url)["replicas"]
        victim = next(r for r in replicas if r["shard"] == 0)
        os.kill(victim["pid"], signal.SIGKILL)
        time.sleep(0.3)

        impatient = ServiceClient(url, timeout=30.0, retries=0)
        start = time.monotonic()
        try:
            impatient.discover(fingerprints[0], config=dict(CONFIG))
            raise SystemExit("dead shard unexpectedly served a request")
        except ServiceError as exc:
            elapsed = time.monotonic() - start
            assert exc.status == 503, exc
            assert exc.retry_after is not None, "503 without Retry-After"
            assert elapsed < 5.0, f"503 took {elapsed:.1f}s — should be immediate"
        status = impatient.discover(fingerprints[1], config=dict(CONFIG))
        assert status["status"] == "done", status
        print("failover: dead shard 503s immediately, surviving shard serves")

        # --- recovery: the manager restarts it; state is reloaded ------
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if cluster_info(url)["healthy"] == REPLICAS:
                break
            time.sleep(0.5)
        else:
            raise SystemExit("replica was not restarted within 60s")
        status = client.discover(fingerprints[0], config=dict(CONFIG))
        assert status["status"] == "done", status
        assert status["cached"] is True, "restarted replica lost its store"
        print("recovery: replica restarted, served the persisted cover")

        # --- durability: SIGKILL mid-discovery, job resumes -------------
        kill_mid_job_scenario(url, data_dir, client)
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
    print("cluster smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
