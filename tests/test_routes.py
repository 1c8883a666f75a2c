"""Tests for the shared route table and the router's HTTP parser.

A replica and the cluster router read one table
(:data:`repro.service.routes.ROUTES`), so they must agree on every
answer that does not depend on placement: unknown methods and paths,
and malformed framing.  The router's incremental parser is fuzzed: how
bytes are split across reads must not change what it parses, and no
input may raise or leave it in a contradictory state.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Router
from repro.cluster.router import MAX_HEADER_BYTES, _HTTPParser
from repro.service import FDService, start_in_thread
from repro.service.routes import MAX_BODY_BYTES, ROUTES, match


@pytest.fixture(scope="module")
def fronts(tmp_path_factory):
    """``{"replica": (host, port), "router": (host, port)}`` over one replica."""
    service = FDService(max_workers=1)
    server, _ = start_in_thread(service)
    router = Router(
        [f"http://127.0.0.1:{server.server_port}"],
        routes_path=tmp_path_factory.mktemp("routes") / "routes.json",
    ).start()
    yield {"replica": ("127.0.0.1", server.server_port), "router": router.address}
    router.shutdown()
    server.shutdown()
    server.server_close()
    service.close()


def exchange(address, raw: bytes):
    """Send raw request bytes; return (status, content type, JSON body)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    parser = _HTTPParser("response")
    parser.feed(b"".join(chunks))
    parser.finish()
    assert parser.complete, parser.error
    return parser.status, parser.headers["content-type"], json.loads(parser.body)


class TestRouteTable:
    def test_each_endpoint_is_one_row(self):
        keys = [(route.method, route.segments) for route in ROUTES]
        assert len(keys) == len(set(keys))

    def test_match_captures_and_ignores_query(self):
        route, params = match("post", "/datasets/orders/append?x=1")
        assert route.pattern == "/datasets/{ref}/append"
        assert params == {"ref": "orders"}
        assert match("GET", "/jobs/s0:job-1")[1] == {"job": "s0:job-1"}
        assert match("PUT", "/health") is None
        assert match("GET", "/datasets/orders") is None


class TestFrontsAgree:
    @pytest.mark.parametrize(
        "method, target",
        [
            ("PUT", "/health"),
            ("DELETE", "/datasets"),
            ("PATCH", "/jobs/s0:job-1"),
            ("GET", "/teapot"),
        ],
    )
    def test_unknown_method_or_path_is_json_404(self, fronts, method, target):
        raw = f"{method} {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        answers = {name: exchange(addr, raw.encode()) for name, addr in fronts.items()}
        expected = (404, "application/json", {"error": f"no such endpoint: {method} {target}"})
        assert answers == {"replica": expected, "router": expected}

    @pytest.mark.parametrize("front", ["replica", "router"])
    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_malformed_content_length_is_400(self, fronts, front, length):
        raw = (
            f"POST /datasets HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n"
            "Connection: close\r\n\r\n{}"
        )
        status, _, payload = exchange(fronts[front], raw.encode())
        assert status == 400
        assert payload == {"error": f"malformed Content-Length: {length!r}"}


    @pytest.mark.parametrize(
        "body",
        [
            {"csv": "a,b\n1,2\n3\n"},  # ragged CSV
            {"csv": "a,a\n1,2\n"},  # duplicate header
            {"csv": "a,b\n1,2\n", "semantics": "zzz"},
            {"columns": ["a", "b"], "rows": [[1, 2], [3]]},  # ragged rows
            {"csv": "a,b\n1," + "x" * (128 * 1024 + 1) + "\n"},  # field too large
        ],
        ids=["ragged-csv", "duplicate-header", "semantics", "ragged-rows", "huge-field"],
    )
    def test_malformed_upload_is_the_same_400(self, fronts, body):
        data = json.dumps(body).encode()
        raw = (
            f"POST /datasets HTTP/1.1\r\nHost: x\r\nContent-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode() + data
        answers = {name: exchange(addr, raw) for name, addr in fronts.items()}
        assert answers["replica"][:2] == (400, "application/json")
        assert answers["router"] == answers["replica"]


# ----------------------------------------------------------------------
# Parser fuzzing
# ----------------------------------------------------------------------

_TOKEN = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
_VALUE = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=40
)
_PATH = st.text("abcdefghij0123456789/?=&:%-_", max_size=40).map(lambda s: "/" + s)


@st.composite
def requests(draw):
    """A well-formed request: (raw bytes, method, path, headers, body)."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE"]))
    path = draw(_PATH)
    headers = draw(
        st.dictionaries(
            _TOKEN.filter(lambda k: k != "content-length"), _VALUE, max_size=5
        )
    )
    body = draw(st.binary(max_size=300))
    headers["content-length"] = str(len(body))
    head = f"{method} {path} HTTP/1.1\r\n" + "".join(
        f"{k}: {v}\r\n" for k, v in headers.items()
    )
    return (head + "\r\n").encode("latin-1") + body, method, path, headers, body


def split(raw: bytes, cuts):
    points = sorted({c % (len(raw) + 1) for c in cuts})
    return [raw[a:b] for a, b in zip([0] + points, points + [len(raw)])]


def parse(chunks, kind="request"):
    parser = _HTTPParser(kind)
    for chunk in chunks:
        parser.feed(chunk)
    return parser


def outcome(parser):
    return (parser.complete, parser.error, parser.method, parser.path,
            parser.headers, parser.body)


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(requests(), st.lists(st.integers(min_value=0), max_size=12))
    def test_chunking_does_not_change_the_parse(self, request, cuts):
        raw, method, path, headers, body = request
        whole = parse([raw])
        assert outcome(parse(split(raw, cuts))) == outcome(whole)
        assert whole.complete and whole.error is None
        assert (whole.method, whole.path, whole.headers, whole.body) == (
            method, path, headers, body,
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["request", "response"]),
        st.binary(max_size=400),
        st.lists(st.integers(min_value=0), max_size=8),
        st.booleans(),
    )
    def test_arbitrary_bytes_never_raise(self, kind, raw, cuts, eof):
        parser = parse(split(raw, cuts), kind)
        if eof:
            parser.finish()
        assert not (parser.complete and parser.error)
        if parser.complete:
            assert parser.body is not None
        elif eof:
            assert parser.error

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=MAX_HEADER_BYTES - 40, max_value=MAX_HEADER_BYTES + 200),
        st.lists(st.integers(min_value=0), max_size=6),
    )
    def test_header_limit_holds_however_chunked(self, size, cuts):
        head = "GET / HTTP/1.1\r\nx: "
        head += "v" * (size - len(head))
        raw = (head + "\r\n\r\n").encode("latin-1")
        parser = parse(split(raw, cuts))
        if size > MAX_HEADER_BYTES:
            assert parser.error == "header block too large"
        else:
            assert parser.complete
        assert outcome(parser) == outcome(parse([raw]))

    @pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 10 * MAX_BODY_BYTES])
    def test_oversized_body_is_an_error(self, length):
        parser = parse([f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()])
        assert parser.error == f"body exceeds {MAX_BODY_BYTES} bytes"
        assert not parser.complete
