"""Tests for the HTTP adapter over a real loopback socket."""

import contextlib
import http.client
import io
import itertools
import json
import socket
import string
import threading
import time
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.errors import BadRequestError
from repro.personalization import PersonalizationEngine
from repro.service import InMemorySessionStore
from repro.web import PortalApp
from repro.web import server as server_module
from repro.web.http import json_response, parse_json_body
from repro.web.server import MAX_BODY_BYTES, make_server

#: The longest request or header line the adapter reads.
LINE_LIMIT = 65536

#: ``serve_forever``'s poll: ``shutdown()`` waits up to one poll, and the
#: default of 0.5 s would make each server's teardown wait that long.
POLL = {"poll_interval": 0.01}


@pytest.fixture()
def http_server(engine, profile):
    app = PortalApp(engine)
    app.register_user(profile)
    server = make_server(app, "127.0.0.1", 0)  # port 0: pick a free port
    server.app = app
    thread = threading.Thread(
        target=server.serve_forever, kwargs=POLL, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def http_portal(http_server):
    return http_server.server_address


def _request(address, method, path, body=None, token=None):
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    headers = {"Content-Type": "application/json"}
    if token:
        headers["X-Session"] = token
    payload = json.dumps(body) if body is not None else None
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = json.loads(response.read().decode("utf-8"))
    connection.close()
    return response.status, data


def _raw_request(method, target, headers=(), body=b"", version="HTTP/1.1"):
    """One request's bytes, with the header lines exactly as given."""
    lines = [f"{method} {target} {version}", "Host: t"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _exchange(address, data: bytes) -> bytes:
    """Send ``data`` and read until the server closes the connection
    (a server that keeps it open fails the read's timeout)."""
    with socket.create_connection(address, timeout=10) as client:
        client.sendall(data)
        received = b""
        while chunk := client.recv(65536):  # EOF: the server closed
            received += chunk
    return received


def _responses(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Every ``(status, headers, body)`` in ``data``, in order."""
    out = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"no response head in {data[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 "), status_line
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        out.append((int(status_line.split(" ")[1]), headers, rest[:length]))
        data = rest[length:]
    return out


@contextlib.contextmanager
def _persistent(address):
    with socket.create_connection(address, timeout=10) as client:
        with client.makefile("rb") as rfile:
            yield client, rfile


def _read_response(rfile, head_only=False) -> tuple[int, dict, bytes]:
    status_line = rfile.readline().decode("latin-1")
    assert status_line.startswith("HTTP/1.1 "), status_line
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name] = value.strip()
    body = b"" if head_only else rfile.read(int(headers["Content-Length"]))
    return int(status_line.split(" ")[1]), headers, body


def _assert_refused(received: bytes, status: int, code: str) -> dict:
    """One enveloped JSON refusal, after which the server closed."""
    (answer,) = _responses(received)
    got_status, headers, body = answer
    assert got_status == status
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    error = json.loads(body)["error"]
    assert set(error) == {"code", "message", "detail"}
    assert error["code"] == code
    return error


class TestHTTPAdapter:
    def test_full_flow_over_sockets(self, http_portal, profile, world):
        location = world.stores[0].location
        status, login = _request(
            http_portal,
            "POST",
            "/api/v1/login",
            {"user": profile.user_id, "location": [location.x, location.y]},
        )
        assert status == 200
        token = login["token"]

        status, view = _request(
            http_portal, "GET", "/api/v1/view", token=token
        )
        assert status == 200
        assert view["fact_rows_kept"] < view["fact_rows_total"]

        status, result = _request(
            http_portal,
            "POST",
            "/api/v1/query",
            {"q": "SELECT COUNT(*) FROM Sales"},
            token=token,
        )
        assert status == 200
        assert result["fact_rows_scanned"] == view["fact_rows_kept"]

        status, _out = _request(
            http_portal, "POST", "/api/v1/logout", token=token
        )
        assert status == 200

    def test_error_status_codes_propagate(self, http_portal):
        status, body = _request(http_portal, "GET", "/api/v1/view")
        assert status == 401
        assert set(body["error"]) == {"code", "message", "detail"}
        status, _body = _request(http_portal, "GET", "/nowhere")
        assert status == 404

    def test_pagination_and_deprecation_over_sockets(
        self, http_portal, profile, world
    ):
        location = world.stores[0].location
        _status, login = _request(
            http_portal,
            "POST",
            "/api/v1/login",
            {"user": profile.user_id, "location": [location.x, location.y]},
        )
        token = login["token"]
        status, layer = _request(
            http_portal, "GET", "/api/v1/layers/Airport?limit=1", token=token
        )
        assert status == 200
        assert layer["page"]["returned"] == 1
        assert layer["page"]["total"] == len(world.airports)
        # The unversioned routes are gone, not redirected.
        status, body = _request(
            http_portal, "GET", "/layers/Airport", token=token
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_answers_400_and_closes(
        self, http_portal, length
    ):
        request = _raw_request(
            "POST", "/api/v1/login", [("Content-Length", str(length))]
        )
        _assert_refused(_exchange(http_portal, request), 400, "bad_request")

    @pytest.mark.parametrize(
        "length",
        [
            2_000_000_000,
            1_000_000_000_000,
            pytest.param("9" * 5000, id="5000-digits"),
            pytest.param("0" * 5000 + "9" * 8, id="zero-padded"),
        ],
    )
    def test_oversized_body_answers_413_unread_and_closes(
        self, http_portal, length
    ):
        """A declared length past the limit is refused before the body
        is read: no allocation of that size, and no thread left waiting
        for bytes that never come."""
        request = _raw_request(
            "POST", "/api/v1/login", [("Content-Length", str(length))]
        )
        error = _assert_refused(
            _exchange(http_portal, request), 413, "payload_too_large"
        )
        assert error["detail"] == {"max_bytes": MAX_BODY_BYTES}


class TestUnframedBodies:
    """A body the adapter cannot frame is refused once, and the
    connection closes: read as a next request, its bytes would be
    answered again."""

    def test_transfer_encoding_answers_501_once_and_closes(
        self, http_portal, profile
    ):
        login = json.dumps({"user": profile.user_id}).encode("utf-8")
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(login), login)
        request = _raw_request(
            "POST",
            "/api/v1/login",
            [("Content-Type", "application/json"), ("Transfer-Encoding", "chunked")],
            chunked,
        )
        _assert_refused(_exchange(http_portal, request), 501, "not_implemented")

    def test_differing_content_lengths_answer_400_once_and_close(
        self, http_portal
    ):
        body = b"{}" + b" " * 38
        request = _raw_request(
            "POST",
            "/api/v1/login",
            [("Content-Length", "2"), ("Content-Length", "40")],
            body,
        )
        error = _assert_refused(_exchange(http_portal, request), 400, "bad_request")
        assert "Content-Length" in error["message"]

    def test_repeated_equal_content_lengths_frame_the_body(self, http_server):
        request = _raw_request(
            "POST",
            "/api/v1/login",
            [("Content-Length", "2"), ("content-length", "2")],
            b"{}",
        )
        with _persistent(http_server.server_address) as (client, rfile):
            client.sendall(request)
            status, _headers, body = _read_response(rfile)
        expected = http_server.app.handle("POST", "/api/v1/login", {})
        assert (status, json.loads(body)) == (expected.status, expected.body)


#: Requests the adapter does not frame: ``(bytes, status, code)``.  The
#: over-long ones end where the adapter stops reading, so no unread bytes
#: wait in the socket when it closes (a close over them sends a reset).
REFUSALS = [
    pytest.param(b"GARBAGE\r\n\r\n", 400, "bad_request", id="one-word"),
    pytest.param(
        b"GET /api/v1/datamarts\r\n\r\n", 400, "bad_request", id="http-0.9"
    ),
    pytest.param(
        b"GET  /api/v1/datamarts HTTP/1.1\r\n\r\n",
        400,
        "bad_request",
        id="two-spaces",
    ),
    pytest.param(
        b"GET /api/v1/datamarts HTTP/2.0\r\n\r\n",
        505,
        "http_version_not_supported",
        id="http-2.0",
    ),
    pytest.param(
        b"GET /" + b"a" * (LINE_LIMIT - 4), 414, "uri_too_long", id="long-line"
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\nX-Long: " + b"a" * (LINE_LIMIT - 7),
        431,
        "header_fields_too_large",
        id="long-header",
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)),
        431,
        "header_fields_too_large",
        id="101-headers",
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
        400,
        "bad_request",
        id="obs-fold",
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\nNo colon\r\n\r\n", 400, "bad_request", id="no-colon"
    ),
    pytest.param(
        b"GET / HTTP/1.1\r\nHost : t\r\n\r\n",
        400,
        "bad_request",
        id="space-before-colon",
    ),
]


class TestRefusals:
    """Every response the adapter writes itself is the JSON envelope."""

    @pytest.mark.parametrize(("request_bytes", "status", "code"), REFUSALS)
    def test_refusal_is_an_enveloped_json_answer_then_close(
        self, http_portal, request_bytes, status, code
    ):
        _assert_refused(_exchange(http_portal, request_bytes), status, code)

    def test_exactly_100_headers_are_read(self, http_portal):
        request = _raw_request(
            "GET", "/api/v1/datamarts", [(f"X-{i}", "1") for i in range(99)]
        )  # Host makes 100
        with _persistent(http_portal) as (client, rfile):
            client.sendall(request)
            assert _read_response(rfile)[0] == 200


class TestMethods:
    """Every method reaches the portal, which answers as in process."""

    @pytest.mark.parametrize(
        ("method", "path"),
        [("PUT", "/api/v1/login"), ("DELETE", "/api/v1/me"), ("PATCH", "/x")],
    )
    def test_any_method_answers_as_in_process(self, http_server, method, path):
        status, body = _request(http_server.server_address, method, path, {})
        expected = http_server.app.handle(method, path, {})
        assert (status, body) == (expected.status, expected.body)

    def test_head_gets_headers_without_a_body(self, http_server):
        expected = http_server.app.handle("HEAD", "/api/v1/datamarts")
        payload = json.dumps(expected.body).encode("utf-8")
        with _persistent(http_server.server_address) as (client, rfile):
            client.sendall(_raw_request("HEAD", "/api/v1/datamarts"))
            status, headers, body = _read_response(rfile, head_only=True)
            assert (status, body) == (expected.status, b"")
            assert headers["Content-Length"] == str(len(payload))
            # No body bytes were sent: the next answer starts at once.
            client.sendall(_raw_request("GET", "/api/v1/datamarts"))
            assert _read_response(rfile)[0] == 200


def _twin_portal(world) -> PortalApp:
    """A portal over a fresh star whose tokens are ``tok-1``, ``tok-2``…,
    so two of them answer the same requests with the same bodies."""
    user_schema = build_motivating_user_model()
    engine = PersonalizationEngine(
        build_sales_star(world),
        user_schema,
        geo_source=WorldGeoSource(world),
        parameters={"threshold": 3},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    tokens = itertools.count(1)
    app = PortalApp(
        engine,
        session_store=InMemorySessionStore(
            token_factory=lambda: f"tok-{next(tokens)}"
        ),
    )
    app.register_user(build_regional_manager_profile(user_schema))
    return app


def _in_process(app, method, target, headers, raw):
    """What the app answers in process to the request the adapter
    frames: the JSON body parsed as the adapter parses it."""
    split = urlsplit(target)
    try:
        body = parse_json_body(raw)
    except BadRequestError as exc:
        return json_response(exc.envelope(), status=exc.status)
    return app.handle(
        method, split.path, body, headers=headers, query=dict(parse_qsl(split.query))
    )


class TestAnswersAsInProcess:
    def test_request_table_over_one_connection(self, world, profile):
        location = world.stores[0].location
        login = json.dumps(
            {"user": profile.user_id, "location": [location.x, location.y]}
        ).encode("utf-8")
        query = json.dumps(
            {"q": "SELECT SUM(UnitSales) FROM Sales BY Product.Family"}
        ).encode("utf-8")
        json_type = ("Content-Type", "application/json")
        session = ("X-Session", "tok-1")
        table = [
            ("POST", "/api/v1/login", [json_type], login),
            ("GET", "/api/v1/view", [session], b""),
            ("GET", "/api/v1/view", [], b""),
            ("GET", "/nowhere", [session], b""),
            ("PUT", "/api/v1/login", [json_type], login),
            ("DELETE", "/api/v1/me", [session], b""),
            ("POST", "/api/v1/query", [session, json_type], b"{nope"),
            ("POST", "/api/v1/query", [session, json_type], b'{"q": "\xff"}'),
            ("GET", "/api/v1/layers/Airport?limit=2&offset=1", [session], b""),
            ("POST", "/api/v1/query?limit=2", [session, json_type], query),
            (
                "POST",
                "/api/v1/query?offset=1",
                [("x-session", "tok-1"), ("content-type", "application/json")],
                query,
            ),
            ("GET", "/api/v1/me", [("authorization", "Bearer tok-1")], b""),
            ("POST", "/api/v1/logout", [session], b""),
            ("GET", "/api/v1/view", [session], b""),
        ]
        served, twin = _twin_portal(world), _twin_portal(world)
        server = make_server(served, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs=POLL, daemon=True
        )
        thread.start()
        try:
            with _persistent(server.server_address) as (client, rfile):
                for method, target, headers, body in table:
                    if body:  # named in the case of the row's other headers
                        lower = headers[0][0].islower()
                        name = "content-length" if lower else "Content-Length"
                        headers = [*headers, (name, str(len(body)))]
                    client.sendall(_raw_request(method, target, headers, body))
                    status, _headers, answer = _read_response(rfile)
                    expected = _in_process(
                        twin, method, target, {"Host": "t", **dict(headers)}, body
                    )
                    assert (status, json.loads(answer)) == (
                        expected.status,
                        json.loads(json.dumps(expected.body, default=str)),
                    ), (method, target)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestConnections:
    def test_keep_alive_serves_50_requests_on_one_connection(self, http_server):
        accepted = []
        process_request = http_server.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            return process_request(request, client_address)

        http_server.process_request = counting
        host, port = http_server.server_address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(50):
                connection.request("GET", "/api/v1/datamarts")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            connection.close()
        assert len(accepted) == 1

    @pytest.mark.parametrize(
        ("version", "headers"),
        [
            ("HTTP/1.1", [("Connection", "close")]),
            ("HTTP/1.1", [("connection", "Close")]),
            ("HTTP/1.0", []),
        ],
    )
    def test_close_after_the_response(self, http_portal, version, headers):
        request = _raw_request("GET", "/api/v1/datamarts", headers, version=version)
        ((status, response_headers, _body),) = _responses(
            _exchange(http_portal, request)
        )
        assert status == 200
        assert response_headers["Connection"] == "close"

    def test_http_1_0_keep_alive_stays_open(self, http_portal):
        request = _raw_request(
            "GET",
            "/api/v1/datamarts",
            [("Connection", "keep-alive")],
            version="HTTP/1.0",
        )
        with _persistent(http_portal) as (client, rfile):
            for _ in range(2):
                client.sendall(request)
                status, headers, _body = _read_response(rfile)
                assert status == 200
                assert headers["Connection"] == "keep-alive"

    def test_expect_100_continue_before_the_body_is_read(
        self, http_portal, profile
    ):
        login = json.dumps({"user": profile.user_id}).encode("utf-8")
        head = _raw_request(
            "POST",
            "/api/v1/login",
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(login))),
                ("Expect", "100-continue"),
            ],
        )
        with _persistent(http_portal) as (client, rfile):
            client.sendall(head)
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            client.sendall(login)
            status, _headers, body = _read_response(rfile)
        assert status == 200
        assert json.loads(body)["token"]

    def test_an_idle_connection_is_closed(
        self, engine, profile, monkeypatch, capsys
    ):
        """A client that stops sending loses its connection after
        ``IDLE_TIMEOUT_S``: the handler thread ends and nothing is
        logged."""
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        app = PortalApp(engine)
        app.register_user(profile)
        server = make_server(app, "127.0.0.1", 0)
        handlers = []
        process_request_thread = server.process_request_thread

        def recording(request, client_address):
            handlers.append(threading.current_thread())
            process_request_thread(request, client_address)

        server.process_request_thread = recording
        thread = threading.Thread(
            target=server.serve_forever, kwargs=POLL, daemon=True
        )
        thread.start()
        try:
            with _persistent(server.server_address) as (client, rfile):
                client.sendall(_raw_request("GET", "/api/v1/datamarts"))
                status, _headers, _body = _read_response(rfile)
                assert status == 200
                time.sleep(0.5)
                client.settimeout(2)
                assert client.recv(1) == b""
            (handler,) = handlers
            handler.join(timeout=5)
            assert not handler.is_alive()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert capsys.readouterr().err == ""


class _RecordingConnection:
    """A client connection: canned request bytes in, every ``sendall``
    recorded, and the timeout the handler sets kept."""

    def __init__(self, requests: bytes) -> None:
        self._requests = requests
        self.sent: list[bytes] = []
        self.timeout = None

    def settimeout(self, value) -> None:
        self.timeout = value

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self._requests)

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))


def _serve_connection(app, requests: bytes) -> list[bytes]:
    """Run the adapter's handler over one connection; its writes."""
    server = make_server(app, "127.0.0.1", 0)
    try:
        connection = _RecordingConnection(requests)
        server.RequestHandlerClass(connection, ("127.0.0.1", 0), server)
    finally:
        server.server_close()
    assert connection.timeout == server_module.IDLE_TIMEOUT_S
    return connection.sent


def _split_response(segment: bytes) -> tuple[list[bytes], bytes]:
    head, _, body = segment.partition(b"\r\n\r\n")
    return head.split(b"\r\n"), body


class TestOneWritePerResponse:
    """Status line, headers and body leave in one ``sendall``: a body
    sent as a second segment waits on a client's delayed ACK."""

    def test_each_response_is_one_sendall(self, engine, profile):
        app = PortalApp(engine)
        app.register_user(profile)
        login = json.dumps({"user": profile.user_id}).encode("utf-8")
        requests = (
            b"GET /api/v1/datamarts HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n"
            b"POST /api/v1/login HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(login)}\r\n\r\n".encode("ascii")
            + login
            + b"GET /api/v1/datamarts HTTP/2.0\r\nHost: t\r\n\r\n"
        )
        sent = _serve_connection(app, requests)
        assert len(sent) == 4
        statuses = []
        for segment in sent:
            lines, body = _split_response(segment)
            statuses.append(lines[0].split()[1])
            assert f"Content-Length: {len(body)}".encode("ascii") in lines
            json.loads(body)
        assert statuses == [b"200", b"404", b"200", b"505"]

    def test_large_body_is_one_sendall(self):
        class LargeBodyApp:
            def handle(self, method, path, body, headers=None, query=None):
                return json_response({"blob": "x" * 1_000_000})

        sent = _serve_connection(
            LargeBodyApp(), b"GET /blob HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert len(sent) == 1
        _lines, body = _split_response(sent[0])
        assert len(json.loads(body)["blob"]) == 1_000_000


#: Field-name characters (RFC 9110 tokens).
_TCHARS = "!#$%&'*+-.^_`|~" + string.digits + string.ascii_letters
#: Field-value characters: visible ASCII, space, tab and obs-text.
_VCHARS = "".join(map(chr, [0x09, *range(0x20, 0x7F), *range(0x80, 0x100)]))
#: The names the adapter reads for framing, refused or acted on.
_FRAMING = {"content-length", "transfer-encoding", "connection", "expect"}


@st.composite
def _header_blocks(draw) -> bytes:
    """Header lines with names in random case, drawn from a small pool
    so they repeat, with whitespace around the values and either line
    ending, then the blank line."""
    names = draw(
        st.lists(
            st.text(_TCHARS, min_size=1, max_size=10).filter(
                lambda name: name.lower() not in _FRAMING
            ),
            max_size=4,
        )
    )
    names += ["X-Session", "Authorization", "Content-Type", "Host"]
    block = []
    for _ in range(draw(st.integers(0, 24))):
        name = draw(st.sampled_from(names))
        cases = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
        name = "".join(
            char.upper() if upper else char.lower()
            for char, upper in zip(name, cases)
        )
        leading = draw(st.text(" \t", max_size=3))
        value = draw(st.text(_VCHARS, max_size=16))
        ending = draw(st.sampled_from(["\r\n", "\n"]))
        block.append(f"{name}:{leading}{value}{ending}")
    block.append(draw(st.sampled_from(["\r\n", "\n"])))
    return "".join(block).encode("latin-1")


class _HeaderRecorder:
    def __init__(self) -> None:
        self.headers: list[dict] = []

    def handle(self, method, path, body, headers=None, query=None):
        self.headers.append(headers)
        return json_response({})


def test_headers_reach_the_app_as_the_stdlib_parses_them():
    """The dict the app receives is the one ``http.client`` (the
    stdlib's email parser) makes of the same header block."""
    recorder = _HeaderRecorder()
    server = make_server(recorder, "127.0.0.1", 0)
    try:

        @given(block=_header_blocks())
        @settings(max_examples=200, deadline=None)
        def check(block):
            recorder.headers.clear()
            connection = _RecordingConnection(b"GET /h HTTP/1.1\r\n" + block)
            server.RequestHandlerClass(connection, ("127.0.0.1", 0), server)
            oracle = http.client.parse_headers(io.BytesIO(block))
            assert recorder.headers == [dict(oracle.items())]

        check()
    finally:
        server.server_close()
