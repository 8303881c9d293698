"""Span recording around the portal's layer entry points.

The benchmark does not change the program to trace it: :func:`install`
replaces a handful of attributes (the layer boundaries a request
crosses) with timing wrappers.  Each wrapper times its call with
``time.perf_counter_ns`` and keeps a per-thread stack, so a span's *self*
time is its duration minus the time of the spans nested inside it.
Spans are aggregated in memory per layer name: count, total and self
nanoseconds.  A tracer records only while it is :attr:`Tracer.active`,
so health scrapes and set-up between measured replays stay out.

Layers and the attributes that mark them:

==========  ===========================================================
request     ``PortalApp.handle`` — one in-process request, router to DTO
session     session-store ``get`` — resolving the token to a session
rules       ``PersonalizationEngine.start_session`` — login: the PRML
            rules and the personalized view
parse       ``parse_query`` as the façade calls it — GeoMDQL parsing
view        ``PersonalizedSession.view`` — view lookup, build or patch
scan        ``execute`` as the façade calls it — columnar scan/aggregate
history     ``StarHistory.as_of`` — reconstructing a past generation
reco        ``Recommender.recommend`` — similar users and suggestions
backend     ``SqliteBackend`` key/value and counter calls — state I/O
==========  ===========================================================

An attribute that a later version of the program no longer has is
skipped, so its layer reads zero instead of failing the run.
"""

from __future__ import annotations

import functools
import threading
import time

__all__ = ["Tracer", "merge", "install", "SPANS_PATH"]

#: The route a traced pool worker answers with its span totals.
SPANS_PATH = "/perfbench/spans"

_BACKEND_METHODS = (
    "get",
    "put",
    "delete",
    "items",
    "count",
    "clear",
    "prune",
    "incr",
    "counter",
    "counters",
    "store_names",
)


class Tracer:
    """Per-layer span totals: ``name -> [count, total_ns, self_ns]``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: dict[str, list[int]] = {}
        self.active = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, elapsed_ns: int, self_ns: int) -> None:
        with self._lock:
            entry = self._totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += elapsed_ns
            entry[2] += self_ns

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper (no-op
        when ``owner`` has no such callable)."""
        original = getattr(owner, attr, None)
        if not callable(original):
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0)
            started = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                tracer.record(name, elapsed, elapsed - children)

        setattr(owner, attr, traced)

    def snapshot(self) -> dict[str, list[int]]:
        with self._lock:
            return {name: list(entry) for name, entry in self._totals.items()}

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()


def merge(into: dict, totals: dict) -> None:
    """Add one snapshot's totals to ``into``."""
    for name, entry in totals.items():
        target = into.setdefault(name, [0, 0, 0])
        for position, value in enumerate(entry):
            target[position] += value


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary this version of the program has, and
    answer :data:`SPANS_PATH` (see :func:`_serve_spans`)."""
    import repro.service.facade as facade
    from repro.cluster import backend as backend_module
    from repro.personalization import engine as engine_module
    from repro.reco import recommender as reco_module
    from repro.service import sessions as sessions_module
    from repro.storage import snapshot as snapshot_module
    from repro.web import portal as portal_module

    targets = [
        (getattr(portal_module, "PortalApp", None), "handle", "request"),
        (facade, "parse_query", "parse"),
        (facade, "execute", "scan"),
        (getattr(engine_module, "PersonalizationEngine", None), "start_session", "rules"),
        (getattr(engine_module, "PersonalizedSession", None), "view", "view"),
        (getattr(sessions_module, "InMemorySessionStore", None), "get", "session"),
        (getattr(snapshot_module, "StarHistory", None), "as_of", "history"),
        (getattr(reco_module, "Recommender", None), "recommend", "reco"),
    ]
    try:  # the backend-backed stores may merge into the in-heap ones
        from repro.cluster import stores as stores_module
    except ImportError:
        stores_module = None
    if stores_module is not None:
        targets.append(
            (getattr(stores_module, "BackendSessionStore", None), "get", "session")
        )
    sqlite_backend = getattr(backend_module, "SqliteBackend", None)
    for method in _BACKEND_METHODS:
        targets.append((sqlite_backend, method, "backend"))
    for owner, attr, name in targets:
        if owner is not None:
            tracer.wrap(owner, attr, name)
    _serve_spans(tracer)


def _serve_spans(tracer: Tracer) -> None:
    """Make every portal answer :data:`SPANS_PATH`: ``POST`` clears the
    totals and starts recording, ``GET`` stops recording and answers the
    totals.  Installed before a worker pool forks, so each worker
    reports its own spans on its shard port."""
    from repro.web import portal
    from repro.web.http import Response

    handle = portal.PortalApp.handle

    def handle_with_spans(self, method, path, *args, **kwargs):
        if path != SPANS_PATH:
            return handle(self, method, path, *args, **kwargs)
        if method == "POST":
            tracer.reset()
            tracer.active = True
        else:
            tracer.active = False
        return Response(status=200, body={"spans": tracer.snapshot()})

    portal.PortalApp.handle = handle_with_spans
