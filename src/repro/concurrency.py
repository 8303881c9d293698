"""Lock construction for repro's shared state.

Every lock guarding cross-request state is created through
:func:`make_lock` with a stable *lock-class* name (``"ViewStore._lock"``,
``"FactTable._lock"``, ...).  In normal operation it returns a plain
``threading.Lock`` — zero overhead, nothing recorded.  When the
lock-order sanitizer is active (``REPRO_SANITIZE=1``, or
:func:`repro.analysis.sanitizer.activate`), it returns an instrumented
wrapper that feeds the acquisition/contention counters and the global
lock-order graph (see :mod:`repro.analysis.sanitizer`).  No holder
re-acquires a lock it holds, so none of them is re-entrant.

The name is the node identity in that graph: all instances of one lock
class share a node, so an order inversion between any two instances
anywhere in the process shows up as a cycle.
"""

from __future__ import annotations

import threading

from repro.analysis import sanitizer as _sanitizer

__all__ = ["make_lock"]


def make_lock(name: str):
    """A ``threading.Lock`` (or its sanitized wrapper) named ``name``."""
    active = _sanitizer.current()
    if active is not None:
        return active.lock(name)
    return threading.Lock()
