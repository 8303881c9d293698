"""Lock-order sanitizer: graph recording, cycle detection, stats, factories."""

import threading

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import LockOrderSanitizer, SanitizedLock
from repro.concurrency import make_lock


@pytest.fixture()
def san():
    return LockOrderSanitizer()


class TestOrderGraph:
    def test_nested_acquisition_records_an_edge(self, san):
        a, b = san.lock("A"), san.lock("B")
        with a:
            with b:
                pass
        assert san.edges() == {"A": {"B": san.edges()["A"]["B"]}}
        assert "test_sanitizer.py" in san.edges()["A"]["B"]
        assert san.cycles() == []

    def test_ab_ba_is_a_cycle(self, san):
        a, b = san.lock("A"), san.lock("B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        assert san.cycles() == [["A", "B"]]

    def test_cycle_detected_across_threads(self, san):
        # The classic deadlock shape, sequenced so the test never hangs:
        # thread 1 takes A then B, thread 2 takes B then A — at
        # different times.  The order graph still convicts the pair.
        a, b = san.lock("A"), san.lock("B")
        first_done = threading.Event()

        def one():
            with a:
                with b:
                    pass
            first_done.set()

        def two():
            first_done.wait(5)
            with b:
                with a:
                    pass

        threads = [threading.Thread(target=one), threading.Thread(target=two)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert san.cycles() == [["A", "B"]]

    def test_two_instances_of_one_class_make_a_self_loop(self, san):
        # All instances created under one name share a node (the
        # lockdep convention): nesting two of them is a self-deadlock
        # risk between two objects of the same class.
        first, second = san.lock("L"), san.lock("L")
        with first:
            with second:
                pass
        assert san.cycles() == [["L"]]

    def test_three_party_cycle(self, san):
        a, b, c = san.lock("A"), san.lock("B"), san.lock("C")
        for outer, inner in ((a, b), (b, c), (c, a)):
            with outer:
                with inner:
                    pass
        assert san.cycles() == [["A", "B", "C"]]


class TestStats:
    def test_acquisition_and_instance_counters(self, san):
        lock = san.lock("L")
        san.lock("L")  # second instance, never acquired
        with lock:
            pass
        with lock:
            pass
        stats = san.stats()
        assert stats["enabled"] is True
        assert stats["locks"]["L"]["instances"] == 2
        assert stats["locks"]["L"]["acquisitions"] == 2
        assert stats["locks"]["L"]["max_hold_s"] >= 0.0

    def test_contention_counted(self, san):
        lock = san.lock("L")
        lock.acquire()
        try:
            in_thread = []

            def contend():
                in_thread.append(lock.acquire(blocking=False))

            thread = threading.Thread(target=contend)
            thread.start()
            thread.join(5)
            assert in_thread == [False]
        finally:
            lock.release()
        assert san.stats()["locks"]["L"]["contentions"] == 1

    def test_graph_artifact_shape(self, san):
        a, b = san.lock("A"), san.lock("B")
        with a:
            with b:
                pass
        graph = san.graph()
        assert set(graph) == {"locks", "edges", "cycles"}
        (edge,) = graph["edges"]
        assert edge["held"] == "A" and edge["acquired"] == "B"
        assert " in " in edge["site"]


class TestFactories:
    def test_inactive_factories_return_plain_primitives(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_SWITCH, raising=False)
        monkeypatch.setattr(sanitizer, "_active", None)
        assert not isinstance(make_lock("X"), SanitizedLock)

    def test_active_factories_return_instrumented_locks(self, monkeypatch):
        monkeypatch.setattr(sanitizer, "_active", None)
        active = sanitizer.activate()
        try:
            outer, inner = make_lock("X"), make_lock("Y")
            assert isinstance(outer, SanitizedLock)
            assert isinstance(inner, SanitizedLock)
            with outer:
                with inner:
                    pass
            assert active.edges() == {"X": {"Y": active.edges()["X"]["Y"]}}
        finally:
            sanitizer.deactivate()

    def test_env_switch_activates_on_demand(self, monkeypatch):
        monkeypatch.setattr(sanitizer, "_active", None)
        monkeypatch.setenv(sanitizer.ENV_SWITCH, "1")
        first = sanitizer.current()
        assert first is not None
        assert sanitizer.current() is first
        monkeypatch.setattr(sanitizer, "_active", None)
        monkeypatch.setenv(sanitizer.ENV_SWITCH, "0")
        assert sanitizer.current() is None

    def test_deactivate_restores_previous(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_SWITCH, raising=False)
        monkeypatch.setattr(sanitizer, "_active", None)
        outer = sanitizer.activate()
        inner = sanitizer.activate()
        assert sanitizer.current() is inner
        sanitizer.deactivate(outer)
        assert sanitizer.current() is outer
        sanitizer.deactivate()
        assert sanitizer.current() is None

    def test_sanitized_lock_is_a_context_manager_lock(self, san):
        lock = san.lock("L")
        assert lock.locked() is False
        with lock:
            assert lock.locked() is True
        assert lock.locked() is False
