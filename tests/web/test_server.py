"""Tests for the stdlib HTTP adapter over a real loopback socket."""

import http.client
import io
import json
import threading

import pytest

from repro.web import PortalApp
from repro.web.http import json_response
from repro.web.server import make_server


@pytest.fixture()
def http_portal(engine, profile):
    app = PortalApp(engine)
    app.register_user(profile)
    server = make_server(app, "127.0.0.1", 0)  # port 0: pick a free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


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


class TestHTTPAdapter:
    def test_full_flow_over_sockets(self, http_portal, profile, world):
        location = world.stores[0].location
        status, login = _request(
            http_portal,
            "POST",
            "/login",
            {"user": profile.user_id, "location": [location.x, location.y]},
        )
        assert status == 200
        token = login["token"]

        status, view = _request(http_portal, "GET", "/view", token=token)
        assert status == 200
        assert view["fact_rows_kept"] < view["fact_rows_total"]

        status, result = _request(
            http_portal,
            "POST",
            "/query",
            {"q": "SELECT COUNT(*) FROM Sales"},
            token=token,
        )
        assert status == 200
        assert result["fact_rows_scanned"] == view["fact_rows_kept"]

        status, _out = _request(http_portal, "POST", "/logout", token=token)
        assert status == 200

    def test_error_status_codes_propagate(self, http_portal):
        status, body = _request(http_portal, "GET", "/view")
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


class _RecordingConnection:
    """A client connection: canned request bytes in, every ``sendall``
    recorded."""

    def __init__(self, requests: bytes) -> None:
        self._requests = requests
        self.sent: list[bytes] = []

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
        )
        sent = _serve_connection(app, requests)
        assert len(sent) == 3
        statuses = []
        for segment in sent:
            lines, body = _split_response(segment)
            statuses.append(lines[0].split()[1])
            assert f"Content-Length: {len(body)}".encode("ascii") in lines
            json.loads(body)
        assert statuses == [b"200", b"404", b"200"]

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
