"""Replay driver: serial/closed/open modes against the in-process target,
and the socket target's connection lifetime."""

import http.client
import threading
import types

import pytest

from repro.errors import ReproError
from repro.workload import driver as driver_module
from repro.web.server import make_server
from repro.workload import (
    WORKLOAD_TENANTS,
    ClusterTarget,
    InProcessTarget,
    LatencyStats,
    ReplayDriver,
    build_workload_portal,
    health_window,
    merge_health,
)


def _driver(portal):
    driver = ReplayDriver(InProcessTarget(portal))
    driver.resolve_as_of()
    return driver


class TestSerialReplay:
    def test_replays_without_errors(self, tiny_portal, tiny_stream):
        report, bodies = _driver(tiny_portal).replay_serial(
            tiny_stream, collect_bodies=True
        )
        assert report.errors == 0, report.error_statuses
        assert report.requests == len(tiny_stream)
        assert len(bodies) == len(tiny_stream)
        assert report.by_kind["login"] == 8

    def test_login_bodies_token_stripped(self, tiny_portal, tiny_stream):
        _report, bodies = _driver(tiny_portal).replay_serial(
            tiny_stream, collect_bodies=True
        )
        logins = [
            body
            for event, body in zip(tiny_stream, bodies)
            if event.kind == "login"
        ]
        assert logins and all("token" not in body for body in logins)

    def test_gate_reproducible_across_fresh_portals(
        self, tiny_world, tiny_stream
    ):
        bodies = []
        for _ in range(2):
            portal = build_workload_portal(
                tiny_world,
                tiny_stream.active_users(),
                datamarts=WORKLOAD_TENANTS[:2],
            )
            report, collected = _driver(portal).replay_serial(
                tiny_stream, collect_bodies=True
            )
            assert report.errors == 0, report.error_statuses
            bodies.append(collected)
        assert bodies[0] == bodies[1]

    def test_report_shape(self, tiny_portal, tiny_stream):
        report, _ = _driver(tiny_portal).replay_serial(tiny_stream)
        data = report.to_dict()
        assert data["mode"] == "serial"
        assert data["target"] == "in_process"
        assert set(data["latency"]) == {
            "count",
            "mean_ms",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
        }
        assert data["latency"]["count"] == len(tiny_stream)


class _TimedTarget:
    """Answers every request at once, on a fake clock that a login moves
    by 5 ms and any other request by 1 ms."""

    name = "timed"

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def request(self, method, path, body=None, token=None, datamart=None):
        self.now += 0.005 if path.endswith("/login") else 0.001
        return 200, {"token": "t"}


class TestLatencyByKind:
    @pytest.mark.parametrize("mode", ["serial", "closed"])
    def test_each_kind_reports_its_own_samples(self, tiny_stream, monkeypatch, mode):
        target = _TimedTarget()
        clock = types.SimpleNamespace(perf_counter=target.perf_counter)
        monkeypatch.setattr(driver_module, "time", clock)
        epochs = {event.datamart: 0 for event in tiny_stream}
        driver = ReplayDriver(target, as_of_generations=epochs)
        if mode == "serial":
            report, _bodies = driver.replay_serial(tiny_stream)
        else:
            report = driver.replay_closed(tiny_stream, actors=1)
        assert set(report.latency_by_kind) == set(report.by_kind)
        for kind, stats in report.latency_by_kind.items():
            assert stats.count == report.by_kind[kind]
            expected = 5.0 if kind == "login" else 1.0
            assert stats.p50_ms == stats.p95_ms == expected
        assert report.to_dict()["latency_by_kind"]["login"] == {
            "count": report.by_kind["login"],
            "p50_ms": 5.0,
            "p95_ms": 5.0,
        }

    def test_open_loop_counts_every_kind(self, tiny_portal, tiny_stream):
        report = _driver(tiny_portal).replay_open(
            tiny_stream, rate_per_s=400.0, senders=2
        )
        counts = {
            kind: stats.count for kind, stats in report.latency_by_kind.items()
        }
        assert counts == report.by_kind
        assert sum(counts.values()) == report.latency.count == len(tiny_stream)


class TestConcurrentReplay:
    def test_closed_loop_error_free(self, tiny_portal, tiny_stream):
        report = _driver(tiny_portal).replay_closed(tiny_stream, actors=3)
        assert report.errors == 0, report.error_statuses
        assert report.requests == len(tiny_stream)
        assert report.mode == "closed"
        assert report.latency.count == len(tiny_stream)

    def test_open_loop_error_free_and_reports_lag(
        self, tiny_portal, tiny_stream
    ):
        report = _driver(tiny_portal).replay_open(
            tiny_stream, rate_per_s=400.0, senders=2
        )
        assert report.errors == 0, report.error_statuses
        assert report.requests == len(tiny_stream)
        assert report.arrival_rate_per_s == 400.0
        assert report.dispatch_lag_ms is not None
        assert report.to_dict()["arrival_rate_per_s"] == 400.0

    def test_actor_validation(self, tiny_portal, tiny_stream):
        driver = _driver(tiny_portal)
        with pytest.raises(ReproError):
            driver.replay_closed(tiny_stream, actors=0)
        with pytest.raises(ReproError):
            driver.replay_open(tiny_stream, rate_per_s=0.0)


@pytest.fixture()
def served(tiny_portal):
    """The tiny portal behind the threaded HTTP adapter on a free port."""
    server = make_server(tiny_portal, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestSocketTargetsClose:
    """``close()`` closes the keep-alive connection of every thread that
    used the target, so a closed loop's actors leave no socket for the
    garbage collector (``python -X dev`` reports those as unclosed)."""

    @pytest.mark.parametrize("kind", ["cluster"])
    def test_close_closes_every_actor_connection(
        self, served, tiny_stream, monkeypatch, kind
    ):
        opened = []

        class Recording(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(http.client, "HTTPConnection", Recording)
        # A one-worker pool whose only shard is the served portal.
        pool = types.SimpleNamespace(
            workers=1, address=served, shard_addresses=[served]
        )
        target = ClusterTarget(pool)
        driver = ReplayDriver(target)
        driver.resolve_as_of()
        report = driver.replay_closed(tiny_stream, actors=4)
        assert report.errors == 0, report.error_statuses
        target.close()
        assert len(opened) == 5  # the health probe's and one per actor
        assert [conn for conn in opened if conn.sock is not None] == []


class TestAsOfResolution:
    def test_resolve_as_of_scrapes_star_generations(self, tiny_portal):
        driver = ReplayDriver(InProcessTarget(tiny_portal))
        generations = driver.resolve_as_of()
        assert set(generations) == set(WORKLOAD_TENANTS[:2])
        assert all(g > 0 for g in generations.values())

    def test_epoch_read_without_resolution_fails_loudly(
        self, tiny_portal, tiny_stream
    ):
        has_epoch = any(
            event.payload.get("as_of") == "epoch"
            for event in tiny_stream
            if event.kind == "query"
        )
        if not has_epoch:
            pytest.skip("stream drew no as-of reads at this seed")
        driver = ReplayDriver(InProcessTarget(tiny_portal))
        with pytest.raises(ReproError, match="resolve_as_of"):
            driver.replay_serial(tiny_stream)


class TestLatencyStats:
    def test_percentiles_over_known_samples(self):
        stats = LatencyStats.from_samples([i / 1000.0 for i in range(1, 101)])
        assert stats.count == 100
        assert stats.p50_ms == pytest.approx(50.0, abs=1.0)
        assert stats.p95_ms == pytest.approx(95.0, abs=1.0)
        assert stats.max_ms == pytest.approx(100.0)

    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.p99_ms == 0.0


class TestHealthMetrics:
    def test_window_counts_only_the_run(self, tiny_portal, tiny_stream):
        target = InProcessTarget(tiny_portal)
        driver = ReplayDriver(target)
        driver.resolve_as_of()
        driver.replay_serial(tiny_stream)  # warm-up outside the window
        before = merge_health(target.health())
        report, _ = driver.replay_serial(tiny_stream)
        after = merge_health(target.health())
        window = health_window(before, after)
        assert report.errors == 0, report.error_statuses
        journaled = sum(
            report.by_kind.get(kind, 0)
            for kind in ("query", "selection", "layer")
        )
        assert journaled > 0
        assert window["journal_events"] == journaled

    def test_window_keeps_a_zeroed_query_cache_block(self, tiny_portal):
        """The service reports no query cache; the window still carries
        the block, which perfbench's window reader indexes."""
        target = InProcessTarget(tiny_portal)
        before = merge_health(target.health())
        after = merge_health(target.health())
        assert "query_cache" not in before and "query_cache" not in after
        window = health_window(before, after)
        assert window["query_cache"] == {
            "hits": 0,
            "misses": 0,
            "hit_rate": None,
        }

    def test_merge_health_single_snapshot_passthrough(self, tiny_portal):
        merged = merge_health(InProcessTarget(tiny_portal).health())
        assert merged["workers"] == 1
        assert {d["name"] for d in merged["datamarts"]} == set(
            WORKLOAD_TENANTS[:2]
        )
