"""The ``service_mix`` workload: a closed loop through a 2-replica cluster.

One client process drives a spawned ``repro-fd cluster`` (default two
replicas) through its router with two threads, one connection each:

* the **reader** cycles over warm reads of the base datasets — a
  ``discover`` and a ``rank?top_k=5`` each (store hits) — and one
  ``/metrics`` read per cycle;
* the **writer** alternates, without pausing, an ``append`` of a few
  rows to an FD-rich dataset followed by a ``discover`` of the new
  version (incremental maintenance, store migration, the WAL), and the
  upload of a fresh seed-derived relation followed by its ``discover``
  (scheduler, a traced DHyFD job, the store write).

Appends run in chains of fixed length: after CHAIN_APPENDS appends the
writer uploads a fresh head and starts over.  Every chain and every cold
relation is the same replica under new labels (see
:func:`common.relabel_rows`), so each one is new to the cluster, while
the work per operation, and the oracle cover it is checked against,
does not grow with the length of the run.

Outputs are checked after the timed phase, from recorded responses,
against in-process discovery on the same rows.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import Relation
from repro.covers import compare_covers
from repro.cluster import shard_for
from repro.datasets.benchmarks import load_benchmark
from repro.relational.fd_io import cover_payload
from repro.service import ServiceClient, ServiceError

from checks import check_served_cover, cover_key, oracle_cover, oracle_key
from common import Result, median, p90, relabel, relabel_rows, vm_hwm_mb

REPLICAS = 2
#: Base datasets uploaded at set-up, from both regimes: the sparse ones
#: serve covers of 17-20 FDs, the rich ones of 1,200-1,400.
BASE: List[Tuple[str, Optional[int]]] = [
    ("weather", 300), ("lineitem", 300), ("echo", None), ("ncvoter", 200),
]
#: The FD-rich replica the writer appends to: a chain's head of
#: APPEND_BASE_ROWS rows is uploaded (the first one at set-up), then
#: APPEND_ROWS more rows arrive per append, CHAIN_APPENDS times.
APPEND_SOURCE = "echo"
APPEND_BASE_ROWS = 60
APPEND_ROWS = 3
CHAIN_APPENDS = 20
CHAIN_ROWS = APPEND_BASE_ROWS + CHAIN_APPENDS * APPEND_ROWS
#: Cold uploads: this FD-rich replica and size, under fresh labels.
COLD_SOURCE = ("echo", 66)
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 60.0
#: Reads per dataset in the traced run's router-versus-direct slice.
HOP_SLICE = 15


def _label_seed(seed: int, stream: int, index: int) -> int:
    """The relabelling seed of the index-th chain (stream 1) or cold upload (stream 2)."""
    return (seed * 3 + stream) * 1_000_003 + index


class ClusterProcess:
    """A ``repro-fd cluster`` subprocess with its own data directory."""

    def __init__(self, root: Path, work_dir: Path):
        self.data_dir = Path(tempfile.mkdtemp(prefix="cluster-", dir=work_dir))
        self.log_path = self.data_dir / "cluster.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "cluster",
                    "--replicas", str(REPLICAS), "--router-port", "0",
                    "--data-dir", str(self.data_dir / "data"),
                ],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        self.url = self._await_url()

    def _await_url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise RuntimeError(f"cluster exited on start-up: {self.log_path.read_text()}")
            time.sleep(0.02)
        raise RuntimeError("cluster did not announce its URL")

    def wait_healthy(self, client: ServiceClient, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if client.health().get("healthy") == REPLICAS:
                    return
            except ServiceError:
                pass
            time.sleep(0.02)
        raise RuntimeError("cluster replicas did not become healthy")

    def replicas(self) -> List[dict]:
        with urllib.request.urlopen(self.url + "/cluster", timeout=10.0) as response:
            return json.loads(response.read().decode("utf-8"))["replicas"]

    def peak_rss_mb(self) -> float:
        """VmHWM of the cluster process plus its replicas."""
        pids = [str(self.proc.pid)] + [str(r["pid"]) for r in self.replicas()]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Drain and stop the cluster; kill the process group if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            shutil.rmtree(self.data_dir, ignore_errors=True)


class Base:
    """The datasets a set-up uploads and the sources of the writer's relations."""

    def __init__(self, seed: int):
        self.seed = seed
        self.datasets = [
            (name, relabel(load_benchmark(name, n_rows=rows), seed)) for name, rows in BASE
        ]
        self.append_source = load_benchmark(APPEND_SOURCE, n_rows=CHAIN_ROWS)
        self.append_schema = self.append_source.schema
        self.append_rows = self.chain_rows(0)
        self.cold_source = load_benchmark(*COLD_SOURCE)

    def chain_rows(self, chain: int) -> List[list]:
        """The rows of the chain-th append chain (its head, then its appends)."""
        return relabel_rows(self.append_source, _label_seed(self.seed, 1, chain))

    def cold_rows(self, index: int) -> List[list]:
        return relabel_rows(self.cold_source, _label_seed(self.seed, 2, index))


def _upload(client: ServiceClient, name: str, columns, rows) -> str:
    return client.upload_rows(list(columns), list(rows), name=name)["fingerprint"]


def setup_once(root: Path, work_dir: Path, base: Base) -> Tuple[ClusterProcess, Dict[str, str], str, float]:
    """Spawn a cluster, upload and first-discover the base datasets; timed."""
    start = time.perf_counter()
    cluster = ClusterProcess(root, work_dir)
    try:
        client = ServiceClient(cluster.url, timeout=REQUEST_TIMEOUT_S)
        cluster.wait_healthy(client)
        fingerprints = {
            name: _upload(client, name, rel.schema.names, rel.iter_rows())
            for name, rel in base.datasets
        }
        append_head = _upload(
            client, "append-target", base.append_schema.names,
            base.append_rows[:APPEND_BASE_ROWS],
        )
        for fingerprint in list(fingerprints.values()) + [append_head]:
            status = client.discover(fingerprint, timeout=REQUEST_TIMEOUT_S)
            if status.get("status") != "done":
                raise RuntimeError(f"set-up discover ended {status.get('status')}")
    except BaseException:
        cluster.stop()
        raise
    return cluster, fingerprints, append_head, time.perf_counter() - start


class Loop:
    """The timed closed loop; records every operation for later checks."""

    def __init__(self, url: str, fingerprints: Dict[str, str], append_head: str,
                 base: Base, seed: int):
        self.url = url
        self.fingerprints = fingerprints
        self.append_head = append_head
        self.base = base
        self.seed = seed
        #: (kind, dataset, latency_s, status-or-None, error-or-None)
        self.reads: List[tuple] = []
        #: (wall time, clean) of each reader round; clean = complete, failure-free.
        self.rounds: List[Tuple[float, bool]] = []
        #: (rows in the version, latency_s, append+discover status, error)
        self.writes: List[tuple] = []
        #: (latency_s, upload+discover status, error) of each new chain head
        self.rebases: List[tuple] = []
        #: (latency_s, upload+discover status, error)
        self.colds: List[tuple] = []
        self._stop = threading.Event()

    def _reader(self) -> None:
        client = ServiceClient(self.url, timeout=REQUEST_TIMEOUT_S)
        ops = []
        for name, fingerprint in self.fingerprints.items():
            ops.append(("discover", name, lambda f=fingerprint: client.discover(f)))
            ops.append(("rank", name, lambda f=fingerprint: client.rank(f, top_k=5)))
        ops.append(("metrics", None, client.metrics))
        while not self._stop.is_set():
            round_start = time.perf_counter()
            clean = True
            for kind, name, call in ops:
                if self._stop.is_set():
                    clean = False
                    break
                start = time.perf_counter()
                try:
                    response, error = call(), None
                except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                    response, error = None, repr(exc)
                    clean = False
                latency = time.perf_counter() - start
                if kind == "metrics":
                    response = None  # only its success matters
                self.reads.append((kind, name, latency, response, error))
            self.rounds.append((time.perf_counter() - round_start, clean))

    def _writer(self) -> None:
        client = ServiceClient(self.url, timeout=REQUEST_TIMEOUT_S)
        head = self.append_head
        rows = self.base.append_rows
        appended = APPEND_BASE_ROWS
        chain = cold_index = 0
        while not self._stop.is_set():
            start = time.perf_counter()
            if appended == CHAIN_ROWS:
                # Start a new chain: a head the cluster has not seen, discovered.
                chain += 1
                rows = self.base.chain_rows(chain)
                try:
                    head = _upload(
                        client, f"append-{chain}", self.base.append_schema.names,
                        rows[:APPEND_BASE_ROWS],
                    )
                    appended = APPEND_BASE_ROWS
                    status, error = client.discover(head), None
                except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                    status, error = None, repr(exc)
                self.rebases.append((time.perf_counter() - start, status, error))
            else:
                try:
                    head = client.append(head, rows[appended:appended + APPEND_ROWS])["fingerprint"]
                    appended += APPEND_ROWS
                    status, error = client.discover(head), None
                except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                    status, error = None, repr(exc)
                self.writes.append((appended, time.perf_counter() - start, status, error))
            if self._stop.is_set():
                break
            cold_index += 1
            cold_rows = self.base.cold_rows(cold_index)
            start = time.perf_counter()
            try:
                fingerprint = _upload(
                    client, f"cold-{cold_index}", self.base.cold_source.schema.names, cold_rows
                )
                status, error = client.discover(fingerprint), None
            except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
                status, error = None, repr(exc)
            self.colds.append((time.perf_counter() - start, status, error))

    def run(self, seconds: float) -> float:
        threads = [threading.Thread(target=self._reader), threading.Thread(target=self._writer)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        self._stop.wait(seconds)
        self._stop.set()
        for thread in threads:
            thread.join(timeout=2 * REQUEST_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("a load thread did not finish")
        return time.perf_counter() - start


def check(loop: Loop, base: Base, result: Result) -> None:
    """Check every recorded response against the oracle on the same rows.

    Chains and cold uploads are relabellings of one source each, so one
    oracle per chain version and one for all cold uploads suffice.
    """
    expected, top = {}, {}
    for name, relation in base.datasets:
        fds = oracle_cover(relation)
        expected[name] = cover_key(cover_payload(fds, relation.schema))
        top[name] = min(5, len(compare_covers(fds)[0]))
    for kind, name, _, status, error in loop.reads:
        result.attempted += 1
        if error is not None:
            result.fail(f"{kind} {name}: {error}")
            continue
        if kind == "metrics":
            continue
        problems = check_served_cover(status, expected[name])
        if kind == "rank":
            counts = [entry["redundancy"] for entry in status.get("ranking") or []]
            if len(counts) != top[name] or any(a < b for a, b in zip(counts, counts[1:])):
                problems.append("top-5 ranking malformed or out of order")
        if problems:
            result.fail(f"{kind} {name}: " + "; ".join(problems))

    by_version: Dict[int, tuple] = {}

    def version_key(rows: int) -> tuple:
        if rows not in by_version:
            by_version[rows] = oracle_key(
                Relation.from_rows(base.append_rows[:rows], base.append_schema)
            )
        return by_version[rows]

    versions = [(appended, status, error) for appended, _, status, error in loop.writes]
    versions += [(APPEND_BASE_ROWS, status, error) for _, status, error in loop.rebases]
    for appended, status, error in versions:
        result.attempted += 1
        if error is not None:
            result.fail(f"append: {error}")
            continue
        problems = check_served_cover(status, version_key(appended))
        if problems:
            result.fail(f"version of {appended} rows: " + "; ".join(problems))
    cold_key = None
    for _, status, error in loop.colds:
        result.attempted += 1
        if error is not None:
            result.fail(f"cold: {error}")
            continue
        if cold_key is None:
            cold_key = oracle_key(Relation.from_rows(base.cold_rows(0), base.cold_source.schema))
        problems = check_served_cover(status, cold_key)
        if problems:
            result.fail("cold: " + "; ".join(problems))


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _hop_slice(cluster: ClusterProcess, fingerprints: Dict[str, str]) -> Dict[str, float]:
    """The same warm reads and /metrics via the router and straight to the owner."""
    by_shard = {r["shard"]: r["url"] for r in cluster.replicas()}
    router = ServiceClient(cluster.url, timeout=REQUEST_TIMEOUT_S)
    routed: List[float] = []
    direct: List[float] = []
    routed_metrics: List[float] = []
    direct_metrics: List[float] = []

    def timed(call) -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    for index in range(HOP_SLICE):
        for fingerprint in fingerprints.values():
            owner = ServiceClient(by_shard[shard_for(fingerprint, REPLICAS)],
                                  timeout=REQUEST_TIMEOUT_S)
            pair = [(routed, router), (direct, owner)]
            # Alternate which side goes first, so neither always runs warmer.
            for sink, client in pair if index % 2 == 0 else pair[::-1]:
                sink.append(timed(lambda: client.discover(fingerprint)))
        replica = ServiceClient(by_shard[index % REPLICAS], timeout=REQUEST_TIMEOUT_S)
        pair = [(routed_metrics, router), (direct_metrics, replica)]
        for sink, client in pair if index % 2 == 0 else pair[::-1]:
            sink.append(timed(client.metrics))
    return {
        "cluster.router_hop_ms": 1000.0 * (median(routed) - median(direct)),
        "cluster.metrics_fanout_ms": 1000.0 * (median(routed_metrics) - median(direct_metrics)),
    }


def _response_kb(url: str, fingerprints: Dict[str, str]) -> float:
    """Mean body size of a warm ``discover`` response."""
    sizes = []
    for fingerprint in fingerprints.values():
        body = json.dumps({"dataset": fingerprint, "config": {}, "wait": True}).encode()
        request = urllib.request.Request(
            url + "/discover", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            sizes.append(len(response.read()))
    return sum(sizes) / len(sizes) / 1024.0


def _layers(loop: Loop, before: dict, after: dict) -> Dict[str, float]:
    """Job-phase numbers from the public payloads the loop recorded."""
    cold = [status for _, status, error in loop.colds if error is None]
    warm = [(lat, status) for kind, _, lat, status, error in loop.reads
            if error is None and kind != "metrics"]

    def med(values) -> float:
        values = list(values)
        return median(values) if values else 0.0

    def span_s(status: dict, name: str) -> float:
        return (status.get("trace") or {}).get("spans", {}).get(name, {}).get("seconds", 0.0)

    hits = _counter_delta(before, after, "cluster.store.hits")
    misses = _counter_delta(before, after, "cluster.store.misses")
    return {
        "service.queue_wait_ms": med(1000.0 * (s["started_at"] - s["submitted_at"]) for s in cold),
        "service.job_run_ms": med(1000.0 * (s["finished_at"] - s["started_at"]) for s in cold),
        "service.client_overhead_ms": med(
            1000.0 * (lat - (s["finished_at"] - s["submitted_at"])) for lat, s in warm
        ),
        "service.job_validation_s": med(span_s(s, "validation") for s in cold),
        "service.job_induction_s": med(span_s(s, "induction") for s in cold),
        "service.store_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.journal_appends": _counter_delta(before, after, "cluster.service.journal.records"),
        "incremental.updates": _counter_delta(before, after, "cluster.store.incremental_updates"),
    }


def _median_ms(values: List[float]) -> float:
    """Median in ms; 0 when no operation succeeded (the run then reports failures)."""
    return 1000.0 * median(values) if values else 0.0


def summarise(loop: Loop, measured: float, result: Result) -> None:
    """The end-to-end figures of the loop that are not set-up or memory."""
    ok_reads = [lat for _, _, lat, _, err in loop.reads if err is None]
    ok_writes = [lat for _, lat, _, err in loop.writes if err is None]
    ok_colds = [lat for lat, _, err in loop.colds if err is None]
    ok_rebases = [lat for lat, _, err in loop.rebases if err is None]
    completed = len(ok_reads) + len(ok_writes) + len(ok_colds) + len(ok_rebases)
    # Clean rounds only, unless none was: then the run is failing anyway.
    rounds = [wall for wall, clean in loop.rounds if clean] or [w for w, _ in loop.rounds]
    result.e2e["round_ms"] = (_median_ms(rounds), "ms", len(rounds))
    result.detail = {
        "throughput_rps": (completed / measured, "ops/s", completed),
        "read_p50_ms": (_median_ms(ok_reads), "ms", len(ok_reads)),
        "read_p90_ms": (1000.0 * p90(ok_reads) if ok_reads else 0.0, "ms", len(ok_reads)),
        "write_p50_ms": (_median_ms(ok_writes), "ms", len(ok_writes)),
        "cold_p50_ms": (_median_ms(ok_colds), "ms", len(ok_colds)),
    }


def run(root: Path, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    work_dir = root / ".bench_run"
    work_dir.mkdir(exist_ok=True)
    base = Base(seed)
    setup_times: List[float] = []
    cluster: Optional[ClusterProcess] = None
    try:
        for _ in range(SETUP_REPEATS):
            if cluster is not None:
                cluster.stop()
                cluster = None
            cluster, fingerprints, append_head, elapsed = setup_once(root, work_dir, base)
            setup_times.append(elapsed)
        client = ServiceClient(cluster.url, timeout=REQUEST_TIMEOUT_S)
        before = client.metrics()
        loop = Loop(cluster.url, fingerprints, append_head, base, seed)
        measured = loop.run(seconds)
        after = client.metrics()
        rss = cluster.peak_rss_mb()
        if trace:
            layers = _layers(loop, before, after)
            layers.update(_hop_slice(cluster, fingerprints))
            layers["service.response_kb"] = _response_kb(cluster.url, fingerprints)
            result.layers = layers
    finally:
        if cluster is not None:
            cluster.stop()
    result.e2e = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    summarise(loop, measured, result)
    check(loop, base, result)
    shutil.rmtree(work_dir, ignore_errors=True)
    return result
