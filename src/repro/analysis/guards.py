"""Per-class attribute metadata: guards, locks, and cache-like attrs.

One pass over a module's classes yields, per class:

* **guarded attributes** — declared with ``# guarded-by: <lock>`` on the
  attribute's declaration (``self._x = ...`` in ``__init__`` /
  ``__post_init__``, or a class-body field), consumed by the
  ``lock-guard`` rule;
* **lock attributes** — attributes holding a lock (``threading.Lock()``,
  ``RLock()``, :func:`repro.concurrency.make_lock`, or
  dataclass fields whose factory mentions one of those), consumed by
  ``check-then-act`` to decide a class has shared state worth guarding;
* **cache-like attributes** — :class:`repro.lru.ThreadSafeLRU` instances
  and dict-shaped attributes whose name contains ``memo``, ``cache`` or
  ``translation`` (the star's roll-up translation tables), consumed by
  ``gen-key`` to find insertions whose keys must carry a generation
  component.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.core import ModuleSource

__all__ = ["ClassInfo", "collect_classes"]

_CACHE_NAME_RE = re.compile(
    r"(memo|cache|translation|checkpoint|history)", re.IGNORECASE
)
_LOCK_FACTORY_NAMES = {"Lock", "RLock", "make_lock"}
_DICTISH_CALL_NAMES = {"dict", "OrderedDict", "defaultdict", "WeakValueDictionary"}


@dataclass
class ClassInfo:
    """Lint-relevant attribute metadata of one class."""

    name: str
    qualname: str
    node: ast.ClassDef
    #: attr name -> lock name it must be accessed under.
    guarded: dict[str, str] = field(default_factory=dict)
    #: attrs that hold locks.
    locks: set[str] = field(default_factory=set)
    #: attrs that are generation-keyed caches (LRU maps / memo dicts).
    caches: set[str] = field(default_factory=set)


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_lock_value(value: ast.expr) -> bool:
    """Does this default/assigned expression construct a lock?"""
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if name in _LOCK_FACTORY_NAMES:
            return True
        # Dataclass fields: field(default_factory=threading.Lock) or
        # field(default_factory=partial(make_lock, "...")).
        if name == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    return _is_lock_value(keyword.value) or (
                        isinstance(keyword.value, ast.Attribute)
                        and keyword.value.attr in _LOCK_FACTORY_NAMES
                    ) or (
                        isinstance(keyword.value, ast.Name)
                        and keyword.value.id in _LOCK_FACTORY_NAMES
                    )
        if name == "partial" and value.args:
            first = value.args[0]
            inner = (
                first.attr
                if isinstance(first, ast.Attribute)
                else getattr(first, "id", None)
            )
            return inner in _LOCK_FACTORY_NAMES
    return False


def _is_dictish_value(value: ast.expr) -> bool:
    """Does this expression construct a plain mapping (memo-dict shape)?"""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if name in _DICTISH_CALL_NAMES:
            return True
        if name == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    inner = keyword.value
                    inner_name = (
                        inner.attr
                        if isinstance(inner, ast.Attribute)
                        else getattr(inner, "id", None)
                    )
                    return inner_name in _DICTISH_CALL_NAMES
    return False


def _is_lru_value(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and _call_name(value) == "ThreadSafeLRU"


def _declarations(node: ast.ClassDef):
    """(attr name, statement, value expr) for every attribute declaration.

    Covers class-body fields (``x: T = ...`` / ``x = ...``) and
    ``self.x = ...`` assignments in ``__init__`` / ``__post_init__``.
    """
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, stmt, value
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in (
            "__init__",
            "__post_init__",
        ):
            for inner in ast.walk(stmt):
                inner_targets: list[ast.expr] = []
                inner_value: ast.expr | None = None
                if isinstance(inner, ast.AnnAssign):
                    inner_targets, inner_value = [inner.target], inner.value
                elif isinstance(inner, ast.Assign):
                    inner_targets, inner_value = inner.targets, inner.value
                for target in inner_targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        yield target.attr, inner, inner_value


def collect_classes(module: ModuleSource) -> list[ClassInfo]:
    """Every class in the module with its guard/lock/cache attr metadata."""
    out: list[ClassInfo] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = (
                    f"{prefix}.{child.name}" if prefix else child.name
                )
                info = ClassInfo(name=child.name, qualname=qualname, node=child)
                for attr, stmt, value in _declarations(child):
                    lock_name = module.statement_annotation(
                        stmt, module.guard_lines
                    )
                    if lock_name is not None:
                        info.guarded[attr] = lock_name
                    if value is None:
                        continue
                    if _is_lock_value(value):
                        info.locks.add(attr)
                    elif _is_lru_value(value) or (
                        _CACHE_NAME_RE.search(attr)
                        and _is_dictish_value(value)
                    ):
                        info.caches.add(attr)
                out.append(info)
                walk(child, qualname)
            else:
                walk(child, prefix)

    walk(module.tree, "")
    return out
