"""The service API as one table: every endpoint, its handler and its placement.

Both HTTP front-ends read :data:`ROUTES` through :func:`match`: a
replica (:mod:`repro.service.server`) runs the row's handler, the
cluster router (:mod:`repro.cluster.router`) places the request on a
shard by the row's placement.  A new endpoint is one row.

=======  =========================  =====================================  ======================
method   path                       body → effect                          cluster placement
=======  =========================  =====================================  ======================
GET      /health                    liveness + queue occupancy             fan-out, merged
GET      /metrics                   all service counters                   fan-out, merged
GET      /datasets                  registered dataset versions            fan-out, tagged
POST     /datasets                  {csv | columns+rows, name?,            upload fingerprint, or
                                    semantics?, on_bad_row?} → 201 with    colocate_with's shard;
                                    the fingerprint                        pins
POST     /datasets/<ref>/append     {rows} → new fingerprint               <ref>; pins
POST     /discover                  {dataset, config?, priority?, wait?,   dataset; job ids
                                    timeout?} → job; ?top_k=K keeps the K  prefixed
                                    highest-redundancy FDs
POST     /rank                      same, plus a ranking (?top_k=K         dataset; job ids
                                    bounds it)                             prefixed
GET      /multitable/schemas        registered multi-table schemas         fan-out, tagged
GET      /multitable/schemas/<ref>  one schema description                 <ref>
POST     /multitable/schemas        {name?, tables, keys?, foreign_keys?,  every table's shard
                                    infer_fks?} → 201 with fingerprint     (409 if split); pins
POST     /multitable/discover       {schema, path, on_dangling?, config?,  schema; job ids
                                    wait?} → join-FD job                   prefixed
GET      /jobs                      all job statuses (no result bodies)    fan-out, ids prefixed
GET      /jobs/<id>                 one job status incl. result payload    s<shard>: prefix
POST     /jobs/<id>/cancel          cancel queued / flag running           s<shard>: prefix
GET      /cluster                   topology, pins, router counters        router-local
=======  =========================  =====================================  ======================

``<ref>`` is a dataset (or schema) fingerprint or name.  Errors come
back as ``{"error": ...}`` with a 4xx/5xx status; any other method or
path is a JSON ``404 no such endpoint``.  ``wait: true`` on a job
submission blocks until the job finishes and returns the full status;
pollers use ``/jobs/<id>``.  Query strings reach the replica verbatim.
Multi-table jobs are described in ``docs/multitable.md``.

Placement: *fan-out* asks every live replica and merges the answers;
a reference (``dataset``, ``schema``, ``<ref>``) routes to the shard
that owns it; a *pin* records the fingerprint and name of a 2xx
response on its shard, so later references follow (see
:class:`repro.cluster.topology.RoutingTable`); *job ids prefixed*
rewrites every ``job_id`` in the response as ``s<shard>:<id>``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qs

from ..relational.io import read_csv_text
from ..relational.relation import Relation

if TYPE_CHECKING:
    from .app import FDService

#: Upload size ceiling (bytes) — a guardrail, not a quota system.
MAX_BODY_BYTES = 256 * 1024 * 1024


class HTTPError(Exception):
    """A request that ends in an error response with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class BadRequest(HTTPError, ValueError):
    """A malformed request body, header or path (HTTP 400)."""

    def __init__(self, message: str):
        super().__init__(400, message)


@dataclass(frozen=True)
class Request:
    """What a handler or a placement may read from one request."""

    #: Captures of the row's ``{name}`` path segments (raw, not decoded).
    params: Dict[str, str]
    #: The raw query string, without the ``?``.
    query: str
    #: Request headers (case-insensitive on a replica, lower-case keys
    #: at the router).
    headers: Mapping[str, str]
    #: The parsed JSON body of a POST; ``{}`` otherwise.
    body: Dict[str, object]


#: ``handler(service, request) -> (status, payload)`` on a replica.
Handler = Callable[["FDService", Request], Tuple[int, Dict[str, object]]]
#: Per-shard payloads (``None`` for a shard that did not answer) → one.
Merger = Callable[[Sequence[Optional[dict]]], dict]


@dataclass(frozen=True)
class Route:
    """One endpoint.  The cluster placement is the first field set of
    ``fanout``, ``by_job`` and ``refs``; a row with none is answered by
    the router itself and has no replica ``handler``."""

    method: str
    pattern: str
    handler: Optional[Handler]
    #: Fan out to every live replica and merge with this function.
    fanout: Optional[Merger] = None
    #: Route by the ``s<shard>:`` prefix of the ``{job}`` path segment.
    by_job: bool = False
    #: The references whose shard owns the request; all must agree.
    refs: Optional[Callable[[Request], List[str]]] = None
    #: Pin the response's ``fingerprint`` and ``name`` to the shard.
    pin: bool = False
    #: Rewrite every ``job_id`` in the response as ``s<shard>:<id>``.
    prefix_jobs: bool = False
    segments: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = tuple(p for p in self.pattern.split("/") if p)
        object.__setattr__(self, "segments", parts)


# ----------------------------------------------------------------------
# Framing and body checks (shared by replica and router)
# ----------------------------------------------------------------------


def content_length(raw: Optional[str]) -> int:
    """A request's ``Content-Length`` header as a bounded byte count."""
    if raw is None:
        return 0
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise BadRequest(f"malformed Content-Length: {raw!r}")
    length = int(digits)
    if length > MAX_BODY_BYTES:
        raise BadRequest(f"body exceeds {MAX_BODY_BYTES} bytes")
    return length


def parse_body(raw: bytes) -> Dict[str, object]:
    """A POST body: empty, or one JSON object."""
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def relation_from_upload(body: Dict[str, object]) -> Relation:
    """The relation a ``POST /datasets`` body describes.

    The replica registers it and the router hashes its fingerprint, so
    the shard a router picks and the key the replica stores agree.
    """
    semantics = body.get("semantics", "eq")
    if "csv" in body:
        return read_csv_text(
            body["csv"],
            semantics=semantics,
            on_bad_row=body.get("on_bad_row", "raise"),
        )
    if "columns" in body and "rows" in body:
        return Relation.from_rows(
            body["rows"], schema=list(body["columns"]), semantics=semantics
        )
    raise BadRequest("dataset upload needs either 'csv' text or 'columns' + 'rows'")


def upload_fingerprint(body: Dict[str, object]) -> str:
    """The fingerprint a replica will assign this upload."""
    return relation_from_upload(body).fingerprint()


def _upload_refs(req: Request) -> List[str]:
    colocate = req.body.get("colocate_with")
    # colocate_with lands this upload on the named dataset's shard, so a
    # schema over both tables can be registered there.
    return [str(colocate)] if colocate else [upload_fingerprint(req.body)]


def _path_ref(req: Request) -> List[str]:
    return [req.params["ref"]]


def _dataset_ref(req: Request) -> List[str]:
    ref = req.body.get("dataset")
    if not ref:
        raise BadRequest("job submission needs a 'dataset' reference")
    return [str(ref)]


def _schema_ref(req: Request) -> List[str]:
    ref = req.body.get("schema") or req.body.get("dataset")
    if not ref:
        raise BadRequest("multitable discovery needs a 'schema' reference")
    return [str(ref)]


def _schema_tables(req: Request) -> Dict[str, str]:
    tables = req.body.get("tables")
    if not isinstance(tables, dict) or not tables:
        raise BadRequest(
            "schema registration needs a 'tables' object "
            "(table name -> dataset name or fingerprint)"
        )
    return {str(k): str(v) for k, v in tables.items()}


def _schema_table_refs(req: Request) -> List[str]:
    return list(_schema_tables(req).values())


# ----------------------------------------------------------------------
# Replica handlers
# ----------------------------------------------------------------------


def _health(service: FDService, req: Request):
    return 200, service.health()


def _metrics(service: FDService, req: Request):
    return 200, service.metrics_payload()


def _datasets(service: FDService, req: Request):
    return 200, {"datasets": service.registry.list()}


def _upload(service: FDService, req: Request):
    relation = relation_from_upload(req.body)
    return 201, service.register_relation(relation, name=req.body.get("name")).describe()


def _append(service: FDService, req: Request):
    rows = req.body.get("rows")
    if not isinstance(rows, list):
        raise BadRequest("append needs a 'rows' list")
    return 200, service.append_rows(req.params["ref"], rows).describe()


def _job_config(req: Request) -> Dict[str, object]:
    """The body's job config, with ``?top_k=`` overriding any body value.

    The query param is the outermost request, proxied verbatim by the
    cluster router.
    """
    config = req.body.get("config") or {}
    if "algorithm" in req.body:
        config.setdefault("algorithm", req.body["algorithm"])
    query = parse_qs(req.query)
    if "top_k" in query:
        raw = query["top_k"][-1]
        try:
            config["top_k"] = int(raw)
        except ValueError:
            raise BadRequest(f"top_k must be an integer, got {raw!r}") from None
    return config


def _enqueue(
    service: FDService, req: Request, target: str, kind: str, config: Dict[str, object]
):
    """Queue the job; block for the status when ``wait`` was asked."""
    job = service.submit(
        target,
        kind,
        config,
        priority=int(req.body.get("priority", 0)),
        idempotency_key=req.headers.get("Idempotency-Key"),
    )
    if not req.body.get("wait"):
        return 202, {"job_id": job.job_id, "status": job.status}
    timeout = req.body.get("timeout")
    service.scheduler.wait(
        job.job_id, timeout=float(timeout) if timeout is not None else None
    )
    return 200, job.status_payload()


def _job_handler(kind: str) -> Handler:
    def handler(service: FDService, req: Request):
        (target,) = _dataset_ref(req)
        return _enqueue(service, req, target, kind, _job_config(req))

    return handler


def _schemas(service: FDService, req: Request):
    return 200, {"schemas": service.schemas.list()}


def _schema(service: FDService, req: Request):
    return 200, service.schemas.get(req.params["ref"]).describe()


def _register_schema(service: FDService, req: Request):
    body = req.body
    entry = service.register_schema(
        body.get("name"),
        _schema_tables(req),
        keys=body.get("keys"),
        foreign_keys=body.get("foreign_keys"),
        infer_fks=bool(body.get("infer_fks")),
        require_inclusion=bool(body.get("require_inclusion")),
    )
    return 201, entry.describe()


def _multitable(service: FDService, req: Request):
    """A join-FD job: like ``/discover`` but against a schema.

    ``path`` and ``on_dangling`` may ride at the top level of the body
    (the ergonomic spelling) or inside ``config`` as
    ``join_path``/``on_dangling`` — top level wins.
    """
    (target,) = _schema_ref(req)
    config = _job_config(req)
    if "path" in req.body:
        config["join_path"] = req.body["path"]
    if "on_dangling" in req.body:
        config["on_dangling"] = req.body["on_dangling"]
    return _enqueue(service, req, target, "multitable", config)


def _jobs(service: FDService, req: Request):
    jobs = service.scheduler.jobs()
    return 200, {"jobs": [job.status_payload(include_result=False) for job in jobs]}


def _job_status(service: FDService, req: Request):
    return 200, service.scheduler.get(req.params["job"]).status_payload()


def _cancel(service: FDService, req: Request):
    job_id = req.params["job"]
    return 200, {"job_id": job_id, "status": service.scheduler.cancel(job_id)}


# ----------------------------------------------------------------------
# Fan-out mergers (router side)
# ----------------------------------------------------------------------


def replica_name(shard: int) -> str:
    return f"replica-{shard}"


def prefix_job_ids(obj: object, shard: int) -> object:
    """Namespace every ``job_id`` value in a payload with its shard."""
    if isinstance(obj, dict):
        return {
            key: (
                f"s{shard}:{value}"
                if key == "job_id" and isinstance(value, str)
                else prefix_job_ids(value, shard)
            )
            for key, value in obj.items()
        }
    if isinstance(obj, list):
        return [prefix_job_ids(item, shard) for item in obj]
    return obj


def merge_health(per_shard: Sequence[Optional[dict]]) -> dict:
    """Cluster /health: ok only when every shard answered ok."""
    replicas: Dict[str, dict] = {}
    datasets = cached = 0
    jobs: Dict[str, int] = {}
    healthy = 0
    for shard, payload in enumerate(per_shard):
        name = replica_name(shard)
        if payload is None:
            replicas[name] = {"status": "down"}
            continue
        healthy += 1
        replicas[name] = payload
        datasets += int(payload.get("datasets", 0))
        cached += int(payload.get("cached_results", 0))
        for key, value in (payload.get("jobs") or {}).items():
            if isinstance(value, (int, float)):
                jobs[key] = jobs.get(key, 0) + value
    status = "ok" if healthy == len(per_shard) else ("degraded" if healthy else "down")
    return {
        "status": status,
        "replicas": replicas,
        "shards": len(per_shard),
        "healthy": healthy,
        "datasets": datasets,
        "cached_results": cached,
        "jobs": jobs,
    }


def merge_metrics(per_shard: Sequence[Optional[dict]]) -> dict:
    """Cluster /metrics: per-replica prefixed series plus cluster totals.

    Every replica counter/gauge reappears twice: once under its
    ``replica-<shard>.`` prefix (so a dashboard can tell shards apart)
    and summed under ``cluster.`` (so the load harness reads one
    number).  Gauges like ``worker_utilization`` sum into cluster-wide
    capacity terms; divide by ``cluster.replicas`` for an average.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    cluster_counters: Dict[str, float] = {}
    cluster_gauges: Dict[str, float] = {}
    healthy = 0
    for shard, payload in enumerate(per_shard):
        if payload is None:
            continue
        healthy += 1
        prefix = replica_name(shard)
        for name, value in (payload.get("counters") or {}).items():
            counters[f"{prefix}.{name}"] = value
            cluster_counters[name] = cluster_counters.get(name, 0) + value
        for name, value in (payload.get("gauges") or {}).items():
            gauges[f"{prefix}.{name}"] = value
            cluster_gauges[name] = cluster_gauges.get(name, 0) + value
        for section in ("store", "scheduler", "journal"):
            for name, value in (payload.get(section) or {}).items():
                if isinstance(value, (int, float)):
                    counters[f"{prefix}.{section}.{name}"] = value
                    key = f"{section}.{name}"
                    cluster_counters[key] = cluster_counters.get(key, 0) + value
    counters.update({f"cluster.{k}": v for k, v in cluster_counters.items()})
    gauges.update({f"cluster.{k}": v for k, v in cluster_gauges.items()})
    return {
        "cluster": {"replicas": len(per_shard), "healthy": healthy},
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def merge_tagged(key: str) -> Merger:
    """Concatenate every shard's ``key`` list, tagging entries ``replica``."""

    def merge(per_shard: Sequence[Optional[dict]]) -> dict:
        entries: List[dict] = []
        for shard, payload in enumerate(per_shard):
            for entry in (payload or {}).get(key) or []:
                entries.append({**entry, "replica": replica_name(shard)})
        return {key: entries}

    return merge


def merge_jobs(per_shard: Sequence[Optional[dict]]) -> dict:
    jobs: List[dict] = []
    for shard, payload in enumerate(per_shard):
        for entry in (payload or {}).get("jobs") or []:
            jobs.append(prefix_job_ids(entry, shard))
    jobs.sort(key=lambda job: job.get("submitted_at") or 0)
    return {"jobs": jobs}


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

ROUTES: Tuple[Route, ...] = (
    Route("GET", "/health", _health, fanout=merge_health),
    Route("GET", "/metrics", _metrics, fanout=merge_metrics),
    Route("GET", "/datasets", _datasets, fanout=merge_tagged("datasets")),
    Route("POST", "/datasets", _upload, refs=_upload_refs, pin=True),
    Route("POST", "/datasets/{ref}/append", _append, refs=_path_ref, pin=True),
    Route("POST", "/discover", _job_handler("discover"), refs=_dataset_ref, prefix_jobs=True),
    Route("POST", "/rank", _job_handler("rank"), refs=_dataset_ref, prefix_jobs=True),
    Route("GET", "/multitable/schemas", _schemas, fanout=merge_tagged("schemas")),
    Route("GET", "/multitable/schemas/{ref}", _schema, refs=_path_ref),
    Route("POST", "/multitable/schemas", _register_schema, refs=_schema_table_refs, pin=True),
    Route("POST", "/multitable/discover", _multitable, refs=_schema_ref, prefix_jobs=True),
    Route("GET", "/jobs", _jobs, fanout=merge_jobs),
    Route("GET", "/jobs/{job}", _job_status, by_job=True, prefix_jobs=True),
    Route("POST", "/jobs/{job}/cancel", _cancel, by_job=True, prefix_jobs=True),
    Route("GET", "/cluster", None),
)


def match(method: str, path: str) -> Optional[Tuple[Route, Dict[str, str]]]:
    """The row for ``method path`` (any query string ignored) and its
    ``{name}`` captures, or ``None`` when no row matches."""
    method = method.upper()
    parts = [p for p in path.partition("?")[0].split("/") if p]
    for route in ROUTES:
        if route.method != method or len(route.segments) != len(parts):
            continue
        params: Dict[str, str] = {}
        for want, got in zip(route.segments, parts):
            if want.startswith("{"):
                params[want[1:-1]] = got
            elif want != got:
                break
        else:
            return route, params
    return None
