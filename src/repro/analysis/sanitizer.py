"""Runtime lock-order sanitizer: instrumented locks, order graph, cycles.

Every lock the repro runtime creates goes through
:func:`repro.concurrency.make_lock`.  When the sanitizer is active
(``REPRO_SANITIZE=1`` in the environment, or an explicit
:func:`activate`), that factory hands out :class:`SanitizedLock`
wrappers instead of plain ``threading.Lock`` objects.  The wrappers
record, per *lock class* (the name given at the creation site, e.g.
``"ViewStore._lock"`` — all instances of a class share one node, the
lockdep convention):

* **acquisition counts**, **contention counts** (the lock was held by
  another thread when we asked) and **wait/hold time totals**;
* the **lock-order graph**: acquiring B while holding A records the
  edge A→B with one example acquisition site per edge.

A cycle in that graph — A→B somewhere, B→A somewhere else — is a
potential deadlock even if the runs that recorded the two edges never
overlapped; :meth:`LockOrderSanitizer.cycles` reports every strongly
connected component of size > 1 plus every self-loop.  When inactive
the factory returns plain ``threading`` locks, so the instrumented
path costs nothing unless opted into.
"""

from __future__ import annotations

import os
import threading
import traceback
from time import perf_counter

__all__ = [
    "LockOrderSanitizer",
    "SanitizedLock",
    "activate",
    "current",
    "deactivate",
]

#: Environment switch the lock factories honour (value must be "1").
ENV_SWITCH = "REPRO_SANITIZE"


class _LockStats:
    """Mutable per-lock-class counters (guarded by the sanitizer mutex)."""

    __slots__ = (
        "name",
        "instances",
        "acquisitions",
        "contentions",
        "wait_total",
        "max_wait",
        "hold_total",
        "max_hold",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.instances = 0
        self.acquisitions = 0
        self.contentions = 0
        self.wait_total = 0.0
        self.max_wait = 0.0
        self.hold_total = 0.0
        self.max_hold = 0.0

    def to_dict(self) -> dict:
        return {
            "instances": self.instances,
            "acquisitions": self.acquisitions,
            "contentions": self.contentions,
            "wait_total_s": round(self.wait_total, 6),
            "max_wait_s": round(self.max_wait, 6),
            "hold_total_s": round(self.hold_total, 6),
            "max_hold_s": round(self.max_hold, 6),
        }


class _Held:
    """One entry on a thread's acquisition stack."""

    __slots__ = ("name", "obj_id", "acquired_at")

    def __init__(self, name: str, obj_id: int, acquired_at: float) -> None:
        self.name = name
        self.obj_id = obj_id
        self.acquired_at = acquired_at


def _acquisition_site() -> str:
    """``file:line in func`` of the frame that asked for the lock."""
    for frame in reversed(traceback.extract_stack()):
        if frame.filename != __file__:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class SanitizedLock:
    """A ``threading.Lock`` wrapper reporting to a :class:`LockOrderSanitizer`."""

    def __init__(self, sanitizer: "LockOrderSanitizer", name: str) -> None:
        self._sanitizer = sanitizer
        self.name = name
        self._inner = threading.Lock()
        sanitizer._register(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        started = perf_counter()
        acquired = self._inner.acquire(False)
        contended = False
        if not acquired:
            contended = True
            if not blocking:
                self._sanitizer._on_contended(self.name)
                return False
            acquired = self._inner.acquire(True, timeout)
            if not acquired:
                self._sanitizer._on_contended(self.name)
                return False
        self._sanitizer._on_acquired(
            self, perf_counter() - started, contended
        )
        return True

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class LockOrderSanitizer:
    """Collector of lock statistics and the global lock-order graph."""

    def __init__(self) -> None:
        # A plain lock on purpose: the sanitizer must never report on
        # (or recurse into) its own synchronization.
        self._mutex = threading.Lock()
        self._stats: dict[str, _LockStats] = {}
        #: held-before name -> {acquired-while-held name -> example site}.
        self._edges: dict[str, dict[str, str]] = {}
        self._local = threading.local()

    # -- lock construction ----------------------------------------------------

    def lock(self, name: str) -> SanitizedLock:
        return SanitizedLock(self, name)

    # -- wrapper callbacks ----------------------------------------------------

    def _stack(self) -> list[_Held]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _register(self, name: str) -> None:
        with self._mutex:
            self._stats.setdefault(name, _LockStats(name)).instances += 1

    def _on_contended(self, name: str) -> None:
        """A non-blocking or timed acquire that never got the lock."""
        with self._mutex:
            self._stats[name].contentions += 1

    def _on_acquired(
        self, lock: SanitizedLock, waited: float, contended: bool
    ) -> None:
        stack = self._stack()
        new_edges = [
            (held.name, lock.name) for held in stack if held.obj_id != id(lock)
        ]
        with self._mutex:
            stats = self._stats[lock.name]
            stats.acquisitions += 1
            stats.wait_total += waited
            stats.max_wait = max(stats.max_wait, waited)
            if contended:
                stats.contentions += 1
            for source, target in new_edges:
                targets = self._edges.setdefault(source, {})
                if target not in targets:
                    targets[target] = _acquisition_site()
        stack.append(_Held(lock.name, id(lock), perf_counter()))

    def _on_release(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].obj_id == id(lock):
                held = stack.pop(index)
                duration = perf_counter() - held.acquired_at
                with self._mutex:
                    stats = self._stats[lock.name]
                    stats.hold_total += duration
                    stats.max_hold = max(stats.max_hold, duration)
                return
        # Released a lock this thread never acquired through the wrapper;
        # threading will raise on the inner release, nothing to record.

    # -- reporting ------------------------------------------------------------

    def edges(self) -> dict[str, dict[str, str]]:
        """``held -> {acquired: example site}`` (a deep copy)."""
        with self._mutex:
            return {
                source: dict(targets)
                for source, targets in self._edges.items()
            }

    def cycles(self) -> list[list[str]]:
        """Lock-order cycles: SCCs of size > 1 and self-loops, sorted.

        Each cycle is reported as the sorted list of its member lock
        names (a canonical form, stable across runs and edge insertion
        order), so baselines can compare cycles structurally.
        """
        edges = self.edges()
        nodes = set(edges)
        for targets in edges.values():
            nodes.update(targets)
        index_of: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        out: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan (the graph is tiny, but recursion limits
            # are not a property we want to depend on in a sanitizer).
            work = [(node, iter(sorted(edges.get(node, ()))))]
            index_of[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current_node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index_of:
                        index_of[successor] = lowlink[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(sorted(edges.get(successor, ()))))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[current_node] = min(
                            lowlink[current_node], index_of[successor]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(
                        lowlink[parent], lowlink[current_node]
                    )
                if lowlink[current_node] == index_of[current_node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current_node:
                            break
                    if len(component) > 1:
                        out.append(sorted(component))

        for node in sorted(nodes):
            if node not in index_of:
                strongconnect(node)
        for node in sorted(nodes):
            if node in edges.get(node, {}):
                out.append([node])
        return sorted(out)

    def stats(self) -> dict:
        """Counters + graph summary (the health endpoint's ``locks``)."""
        with self._mutex:
            locks = {
                name: stats.to_dict()
                for name, stats in sorted(self._stats.items())
            }
            edge_count = sum(len(t) for t in self._edges.values())
        return {
            "enabled": True,
            "locks": locks,
            "order_edges": edge_count,
            "cycles": self.cycles(),
        }

    def graph(self) -> dict:
        """The full order graph, artifact-shaped (CI uploads this)."""
        return {
            "locks": {
                name: stats.to_dict()
                for name, stats in sorted(self._stats.items())
            },
            "edges": [
                {"held": source, "acquired": target, "site": site}
                for source, targets in sorted(self.edges().items())
                for target, site in sorted(targets.items())
            ],
            "cycles": self.cycles(),
        }


# -- process-global activation ------------------------------------------------

_active: LockOrderSanitizer | None = None


def current() -> LockOrderSanitizer | None:
    """The active sanitizer, activating from the environment on demand."""
    global _active
    if _active is None and os.environ.get(ENV_SWITCH) == "1":
        _active = LockOrderSanitizer()
    return _active


def activate() -> LockOrderSanitizer:
    """Install (and return) a fresh process-global sanitizer."""
    global _active
    _active = LockOrderSanitizer()
    return _active


def deactivate(previous: LockOrderSanitizer | None = None) -> None:
    """Drop the active sanitizer (optionally restoring ``previous``).

    Locks created while it was active keep reporting to the instance
    that built them; only *new* locks revert to plain primitives.
    """
    global _active
    _active = previous
