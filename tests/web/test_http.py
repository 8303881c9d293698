"""Tests for the micro web framework."""

import pytest

from repro.errors import WebError
from repro.web import Request, Router, json_response, parse_json_body


def _ok(request):
    return json_response({"path": request.path, "params": request.params})


class TestRouter:
    def test_exact_route(self):
        router = Router()
        router.get("/hello", _ok)
        response = router.dispatch(Request("GET", "/hello"))
        assert response.ok
        assert response.json()["path"] == "/hello"

    def test_param_capture(self):
        router = Router()
        router.get("/layers/{name}", _ok)
        response = router.dispatch(Request("GET", "/layers/Airport"))
        assert response.json()["params"] == {"name": "Airport"}

    def test_404(self):
        router = Router()
        router.get("/a", _ok)
        assert router.dispatch(Request("GET", "/b")).status == 404

    def test_405(self):
        router = Router()
        router.get("/a", _ok)
        assert router.dispatch(Request("POST", "/a")).status == 405

    def test_weberror_becomes_400(self):
        router = Router()

        def boom(request):
            raise WebError("bad input")

        router.get("/x", boom)
        response = router.dispatch(Request("GET", "/x"))
        assert response.status == 400
        assert "bad input" in response.json()["error"]["message"]

    def test_crash_becomes_500(self):
        router = Router()

        def crash(request):
            raise RuntimeError("boom")

        router.get("/x", crash)
        response = router.dispatch(Request("GET", "/x"))
        assert response.status == 500

    def test_pattern_must_be_rooted(self):
        with pytest.raises(WebError):
            Router().get("no-slash", _ok)


class TestBodyParsing:
    def test_valid(self):
        assert parse_json_body('{"a": 1}') == {"a": 1}
        assert parse_json_body(b'{"a": 1}') == {"a": 1}

    def test_empty(self):
        assert parse_json_body("") == {}

    def test_malformed(self):
        with pytest.raises(WebError):
            parse_json_body("{nope")

    def test_not_utf8(self):
        with pytest.raises(WebError):
            parse_json_body(b'{"a": "\xff"}')

    def test_non_object(self):
        with pytest.raises(WebError):
            parse_json_body("[1, 2]")


class TestResponse:
    def test_text_rendering(self):
        response = json_response({"b": 2, "a": 1})
        assert '"a": 1' in response.text()
