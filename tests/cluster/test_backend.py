"""Tests for the pluggable state backends.

Both implementations must be interchangeable: everything here runs
against the in-memory backend and the sqlite file, plus a handful of
sqlite-only durability/fork cases (reopen the file, use the object on
both sides of a ``fork``).
"""

import multiprocessing

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.errors import StorageError


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    else:
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        yield backend
        backend.close()


class TestKeyValue:
    def test_put_get_delete(self, backend):
        backend.put("s", "k", "v1")
        assert backend.get("s", "k") == "v1"
        backend.put("s", "k", "v2")
        assert backend.get("s", "k") == "v2"
        backend.delete("s", "k")
        assert backend.get("s", "k") is None
        backend.delete("s", "k")  # idempotent

    def test_values_must_be_text(self, backend):
        with pytest.raises(StorageError):
            backend.put("s", "k", {"not": "text"})
        with pytest.raises(StorageError):
            backend.put("s", "k", b"bytes")

    def test_stores_are_disjoint(self, backend):
        backend.put("a", "k", "in-a")
        backend.put("b", "k", "in-b")
        assert backend.get("a", "k") == "in-a"
        assert backend.get("b", "k") == "in-b"
        backend.clear("a")
        assert backend.get("a", "k") is None
        assert backend.get("b", "k") == "in-b"

    def test_items_sorted_and_prefix_scoped(self, backend):
        for key in ("u1\x1f003", "u1\x1f001", "u2\x1f002", "u1\x1f002"):
            backend.put("s", key, key)
        assert [k for k, _ in backend.items("s", "u1\x1f")] == [
            "u1\x1f001",
            "u1\x1f002",
            "u1\x1f003",
        ]
        assert backend.keys("s", "u2\x1f") == ["u2\x1f002"]
        assert len(backend.items("s")) == 4

    def test_keys_are_the_item_keys_without_their_values(
        self, backend, monkeypatch
    ):
        for key in ("u2\x1f001", "u1\x1f002", "u1\x1f001", "v\x1f001"):
            backend.put("s", key, f"value of {key}")
        backend.put("other", "u1\x1f003", "elsewhere")
        prefixes = ("", "u1\x1f", "u", "v\x1f", "none")
        expected = {
            prefix: [key for key, _value in backend.items("s", prefix)]
            for prefix in prefixes
        }

        def no_values(*args):
            raise AssertionError("keys() read the values")

        monkeypatch.setattr(backend, "items", no_values)
        for prefix in prefixes:
            assert backend.keys("s", prefix) == expected[prefix]
        assert backend.keys("missing") == []

    def test_count(self, backend):
        assert backend.count("s") == 0
        for i in range(5):
            backend.put("s", f"a{i}", "x")
        backend.put("s", "b0", "x")
        assert backend.count("s") == 6
        assert backend.count("s", "a") == 5
        assert backend.count("s", "nope") == 0

    def test_update_only_put_never_creates(self, backend):
        """``create=False`` replaces an existing entry and reports it,
        and writes nothing for an absent one (a deleted session record
        must stay deleted)."""
        assert backend.put("s", "k", "v1") is True
        assert backend.put("s", "k", "v2", create=False) is True
        assert backend.get("s", "k") == "v2"
        backend.delete("s", "k")
        assert backend.put("s", "k", "v3", create=False) is False
        assert backend.get("s", "k") is None
        assert backend.count("s") == 0


class TestCounters:
    def test_incr_and_read(self, backend):
        assert backend.counter("c") == 0
        assert backend.incr("c") == 1
        assert backend.incr("c", 5) == 6
        assert backend.counter("c") == 6

    def test_counters_prefix(self, backend):
        backend.incr("gen:sales", 3)
        backend.incr("gen:twin")
        backend.incr("seq", 9)
        assert backend.counters("gen:") == {"gen:sales": 3, "gen:twin": 1}
        assert len(backend.counters()) == 3


class TestIntrospection:
    def test_store_names_and_stats(self, backend):
        backend.put("b", "k", "x")
        backend.put("a", "k", "x")
        backend.incr("c")
        assert backend.store_names() == ["a", "b"]
        stats = backend.stats()
        assert stats["kind"] == backend.kind
        assert stats["stores"] == {"a": 1, "b": 1}
        assert stats["counters"] == 1


class TestSqliteDurability:
    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "state.sqlite")
        first = SqliteBackend(path)
        first.put("s", "k", "v")
        first.incr("c", 7)
        first.close()
        second = SqliteBackend(path)
        try:
            assert second.get("s", "k") == "v"
            assert second.counter("c") == 7
            assert second.stats()["path"] == path
        finally:
            second.close()

    def test_usable_after_close(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        backend.put("s", "k", "v")
        backend.close()
        assert backend.get("s", "k") == "v"  # reopens lazily
        backend.close()

    def test_shared_across_fork(self, tmp_path):
        """The pre-fork pool's contract: the same backend object works in
        parent and child, and the child's writes are visible."""
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        backend.put("s", "parent", "1")
        backend.incr("seq", 2)

        def child(b):
            b.put("s", "child", str(b.incr("seq")))

        context = multiprocessing.get_context("fork")
        process = context.Process(target=child, args=(backend,))
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        try:
            assert backend.get("s", "parent") == "1"
            assert backend.get("s", "child") == "3"
            assert backend.counter("seq") == 3
        finally:
            backend.close()
