"""Concurrency & cache-correctness analysis for the repro codebase.

Two halves, one subsystem:

* **Static** — a custom AST lint framework (:mod:`repro.analysis.core`,
  :mod:`repro.analysis.rules`) whose rules machine-check the invariants
  the cache hierarchy relies on: generation-stamped cache keys,
  lock-guarded shared attributes (declared with ``# guarded-by:``
  annotations, see :mod:`repro.analysis.guards`), frozen cached
  payloads, no unlocked check-then-act on shared dicts, and no
  swallowed errors on request paths.  Pre-existing violations are
  grandfathered in a committed baseline
  (:mod:`repro.analysis.baseline`); new ones fail ``repro lint``.

* **Runtime** — a lock-order sanitizer
  (:mod:`repro.analysis.sanitizer`): instrumented ``Lock`` wrappers
  (opt-in via ``REPRO_SANITIZE=1``) that record per-thread
  acquisition stacks, build the global lock-order graph, and report
  cycles (potential deadlocks) plus contention/hold statistics.  The
  pytest plugin (:mod:`repro.analysis.pytest_plugin`) runs the test
  suite under instrumentation and fails on any lock-order cycle not in
  the committed ``lock-order-baseline.json``.
"""

__all__ = [
    "ALL_RULES",
    "Baseline",
    "LintRunner",
    "LockOrderSanitizer",
    "Violation",
]

_EXPORTS = {
    "ALL_RULES": ("repro.analysis.rules", "ALL_RULES"),
    "Baseline": ("repro.analysis.baseline", "Baseline"),
    "LintRunner": ("repro.analysis.core", "LintRunner"),
    "LockOrderSanitizer": ("repro.analysis.sanitizer", "LockOrderSanitizer"),
    "Violation": ("repro.analysis.core", "Violation"),
}


def __getattr__(name: str):
    # Lazy re-exports: the hot runtime path (repro.concurrency) imports
    # only the sanitizer; the AST lint machinery loads on first use.
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(name) from None
    from importlib import import_module

    return getattr(import_module(module_name), attr)
