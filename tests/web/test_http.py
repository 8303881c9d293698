"""Tests for the portal's request pipeline and the HTTP primitives."""

import logging
import re

import pytest

from repro.errors import BadRequestError
from repro.web import PortalApp, json_response, parse_json_body

#: The one line the portal logs per request.
LOG_LINE = re.compile(
    r"(?P<method>[A-Z]+) (?P<path>\S+) -> (?P<status>\d{3}) \(\d+\.\d\d ms\)"
)


@pytest.fixture()
def portal(engine, profile):
    app = PortalApp(engine)
    app.register_user(profile)
    return app


def _login(portal, profile, world):
    location = world.stores[0].location
    response = portal.handle(
        "POST",
        "/api/v1/login",
        {"user": profile.user_id, "location": [location.x, location.y]},
    )
    assert response.ok, response.body
    return response.json()["token"]


def _crash(*args, **kwargs):
    raise RuntimeError("boom")


class TestRouter:
    def test_exact_route(self, portal):
        response = portal.handle("GET", "/api/v1/datamarts")
        assert response.ok
        names = [dm["name"] for dm in response.json()["datamarts"]]
        assert names == ["default"]

    def test_param_capture(self, portal, profile, world):
        token = _login(portal, profile, world)
        layer = portal.handle("GET", "/api/v1/layers/Airport", token=token)
        assert layer.ok, layer.body
        assert layer.json()["layer"] == "Airport"
        reco = portal.handle(
            "GET", "/api/v1/recommendations/layers", token=token
        )
        assert reco.ok, reco.body
        assert reco.json()["kind"] == "layers"

    def test_404(self, portal):
        response = portal.handle("GET", "/api/v1/nowhere")
        assert response.status == 404
        assert response.json()["error"] == {
            "code": "not_found",
            "message": "no route for /api/v1/nowhere",
            "detail": None,
        }

    def test_405(self, portal):
        response = portal.handle("POST", "/api/v1/view")
        assert response.status == 405
        assert response.json()["error"] == {
            "code": "method_not_allowed",
            "message": "method POST not allowed for /api/v1/view",
            "detail": None,
        }

    def test_crash_becomes_500(self, portal, monkeypatch):
        monkeypatch.setattr(portal.service, "health", _crash)
        response = portal.handle("GET", "/api/v1/health")
        assert response.status == 500
        assert response.json()["error"] == {
            "code": "internal",
            "message": "RuntimeError: boom",
            "detail": None,
        }


class TestPipeline:
    """What every request passes through: routing, the session token,
    the error envelope and the log line."""

    @pytest.mark.parametrize(
        "method,path,status",
        [
            ("GET", "/api/v1/health", 200),
            ("GET", "/api/v1/view", 401),
            ("GET", "/nowhere", 404),
            ("PUT", "/api/v1/login", 405),
            ("GET", "/api/v1/datamarts", 500),
        ],
    )
    def test_one_log_record_per_request(
        self, portal, monkeypatch, caplog, method, path, status
    ):
        monkeypatch.setattr(portal.service, "datamarts", _crash)
        caplog.set_level(logging.INFO, logger="repro.web")
        response = portal.handle(method, path)
        assert response.status == status
        records = [r for r in caplog.records if r.name == "repro.web"]
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        match = LOG_LINE.fullmatch(records[0].getMessage())
        assert match is not None, records[0].getMessage()
        assert match.group("method", "path", "status") == (
            method,
            path,
            str(status),
        )

    def test_log_line_upper_cases_the_method(self, portal, caplog):
        caplog.set_level(logging.INFO, logger="repro.web")
        assert portal.handle("get", "/api/v1/health").status == 200
        (record,) = [r for r in caplog.records if r.name == "repro.web"]
        assert record.getMessage().startswith("GET /api/v1/health -> 200 (")

    @pytest.mark.parametrize(
        "path",
        ["/api/v1/layers/", "/api/v1/layers/a/b", "/api/v1/recommendations/"],
    )
    def test_a_parameter_is_one_non_empty_segment(self, portal, path):
        response = portal.handle("GET", path)
        assert response.status == 404
        assert response.json()["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "method,path",
        [
            ("POST", "/api/v1/layers/Airport"),
            ("HEAD", "/api/v1/health"),
            ("GET", "/api/v1/login"),
            ("DELETE", "/api/v1/recommendations/queries"),
        ],
    )
    def test_another_method_answers_405(self, portal, method, path):
        response = portal.handle(method, path)
        assert response.status == 405
        assert response.json()["error"] == {
            "code": "method_not_allowed",
            "message": f"method {method} not allowed for {path}",
            "detail": None,
        }

    def test_methods_match_case_insensitively(self, portal):
        assert portal.handle("get", "/api/v1/health").status == 200
        assert portal.handle("Post", "/api/v1/logout").status == 401

    def test_session_token_from_either_header(self, portal, profile, world):
        token = _login(portal, profile, world)
        for headers in (
            {"X-Session": token},
            {"x-session": token},
            {"Authorization": f"Bearer {token}"},
            {"authorization": f"Bearer  {token} "},
        ):
            response = portal.handle("GET", "/api/v1/view", headers=headers)
            assert response.ok, (headers, response.body)
        assert portal.handle(
            "GET", "/api/v1/view", headers={"Authorization": "Bearer "}
        ).status == 401
        assert portal.handle(
            "GET", "/api/v1/view", headers={"Authorization": f"Basic {token}"}
        ).status == 401

    def test_a_sent_header_wins_over_the_token_argument(
        self, portal, profile, world
    ):
        token = _login(portal, profile, world)
        for name in ("X-Session", "x-session"):
            response = portal.handle(
                "GET", "/api/v1/view", token=token, headers={name: "tok-x"}
            )
            assert response.status == 401, name
            assert portal.handle(
                "GET", "/api/v1/view", token="tok-x", headers={name: token}
            ).ok, name


class TestBodyParsing:
    def test_valid(self):
        assert parse_json_body('{"a": 1}') == {"a": 1}
        assert parse_json_body(b'{"a": 1}') == {"a": 1}

    def test_empty(self):
        assert parse_json_body("") == {}

    def test_malformed(self):
        with pytest.raises(BadRequestError):
            parse_json_body("{nope")

    def test_not_utf8(self):
        with pytest.raises(BadRequestError):
            parse_json_body(b'{"a": "\xff"}')

    def test_non_object(self):
        with pytest.raises(BadRequestError):
            parse_json_body("[1, 2]")


class TestResponse:
    def test_text_rendering(self):
        response = json_response({"b": 2, "a": 1})
        assert '"a": 1' in response.text()
