"""The repo-specific lint rules.

Five rules, each encoding one invariant of the cache/concurrency
design (see README "Concurrency invariants"):

``gen-key``
    Every insertion into a cache-like attribute (a ``ThreadSafeLRU`` or
    a ``*memo*``/``*cache*`` dict) must key on a generation component
    (``star.generation``, ``selection.generation``...); only a subscript
    store into a memo dict may carry it in the stored value instead.  A
    generation-less key can serve stale data forever.

``lock-guard``
    Attributes declared ``# guarded-by: <lock>`` may only be touched
    inside ``with self.<lock>:`` (or in helpers annotated
    ``# guarded-by-caller: <lock>``).

``frozen-payload``
    Values constructed from frozen payload classes (``NamedTuple``,
    ``@dataclass(frozen=True)``, or ``# frozen-payload``-marked) must
    not be mutated after construction — no ``.append`` /
    item-assignment / attribute rebinding on them or their fields.
    Cached payloads are shared by every later hit; one in-place edit
    poisons every subsequent response.

``check-then-act``
    In a class that owns a lock, a membership test / ``.get`` read of a
    shared dict attribute combined with an unguarded store to the same
    attribute in the same method is a data race: two threads can both
    miss and both write.  Double-checked builds whose *store* sits under
    the lock pass.

``swallowed-error``
    No bare ``except:`` anywhere; no broad handler (``Exception``,
    ``StorageError``, ``ReproError``) whose body is only ``pass`` on
    request paths — degraded answers must be deliberate, not silent.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterable, Iterator

from repro.analysis.core import ModuleSource, ProjectIndex, Violation
from repro.analysis.guards import ClassInfo, collect_classes

__all__ = [
    "ALL_RULES",
    "CheckThenActRule",
    "FrozenPayloadRule",
    "GenKeyRule",
    "LockGuardRule",
    "SwallowedErrorRule",
]

_GENERATION_RE = re.compile(r"generation", re.IGNORECASE)

_CONSTRUCTORS = ("__init__", "__post_init__")


def _is_self_attr(node: ast.AST, attrs: Iterable[str] | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attrs is None or node.attr in set(attrs))
    )


def _methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def _with_lock_names(stmt: ast.With | ast.AsyncWith) -> set[str]:
    """Lock names a ``with`` statement acquires (``self.X`` / ``X`` / ``r.X``)."""
    names: set[str] = set()
    for item in stmt.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
    return names


def _walk_guarded(
    root: ast.AST,
    held: frozenset[str],
    module: ModuleSource,
    visit: Callable[[ast.AST, frozenset[str]], None],
) -> None:
    """Walk a function body, tracking which locks are lexically held.

    Nested ``def``/``lambda`` bodies run later, possibly without the
    locks held at their definition site, so they restart from their own
    ``# guarded-by-caller:`` annotation (or nothing).
    """
    visit(root, held)
    if isinstance(root, (ast.With, ast.AsyncWith)):
        for item in root.items:
            _walk_guarded(item, held, module, visit)
        inner = held | _with_lock_names(root)
        for stmt in root.body:
            _walk_guarded(stmt, inner, module, visit)
        return
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            caller_guard = module.statement_annotation(
                child, module.caller_guard_lines
            )
            child_held = (
                frozenset({caller_guard}) if caller_guard else frozenset()
            )
            _walk_guarded(child, child_held, module, visit)
        elif isinstance(child, ast.Lambda):
            _walk_guarded(child, frozenset(), module, visit)
        else:
            _walk_guarded(child, held, module, visit)


def _function_walk(
    method: ast.FunctionDef, module: ModuleSource
) -> list[tuple[ast.AST, frozenset[str]]]:
    caller_guard = module.statement_annotation(
        method, module.caller_guard_lines
    )
    held0 = frozenset({caller_guard}) if caller_guard else frozenset()
    out: list[tuple[ast.AST, frozenset[str]]] = []
    for stmt in method.body:
        _walk_guarded(
            stmt, held0, module, lambda node, held: out.append((node, held))
        )
    return out


class LockGuardRule:
    """Guarded attributes are only touched under their declared lock."""

    id = "lock-guard"
    description = (
        "access to a `# guarded-by:` attribute outside `with self.<lock>`"
    )

    def check(
        self, module: ModuleSource, index: ProjectIndex
    ) -> Iterator[Violation]:
        for info in collect_classes(module):
            if not info.guarded:
                continue
            for method in _methods(info.node):
                if method.name in _CONSTRUCTORS:
                    continue
                yield from self._check_method(module, info, method)

    def _check_method(
        self, module: ModuleSource, info: ClassInfo, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        findings: list[Violation] = []

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if _is_self_attr(node, info.guarded):
                required = info.guarded[node.attr]  # type: ignore[union-attr]
                if required not in held:
                    findings.append(
                        module.violation(
                            self.id,
                            node,
                            f"self.{node.attr} accessed outside "  # type: ignore[union-attr]
                            f"`with self.{required}` (declared "
                            f"# guarded-by: {required})",
                        )
                    )

        for node, held in _function_walk(method, module):
            visit(node, held)
        yield from findings


class GenKeyRule:
    """Cache insertions must carry a generation component."""

    id = "gen-key"
    description = (
        "cache/memo insertion whose key (and value) carries no "
        "generation component"
    )

    def check(
        self, module: ModuleSource, index: ProjectIndex
    ) -> Iterator[Violation]:
        for info in collect_classes(module):
            if not info.caches:
                continue
            for method in _methods(info.node):
                if method.name in _CONSTRUCTORS:
                    continue
                yield from self._check_method(module, info, method)

    def _check_method(
        self, module: ModuleSource, info: ClassInfo, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        assignments = self._local_assignments(method)
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("put", "setdefault")
                    and _is_self_attr(func.value, info.caches)
                    and node.args
                    # A shared LRU serves whatever its key finds, so the
                    # generation must be in the key.
                    and not self._has_generation(node.args[0], assignments)
                ):
                    yield module.violation(
                        self.id,
                        node,
                        f"insertion into self.{func.value.attr} whose "  # type: ignore[union-attr]
                        "key carries no generation component "
                        "(star/selection generation)",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and _is_self_attr(
                        target.value, info.caches
                    ):
                        key_ok = self._has_generation(
                            target.slice, assignments
                        )
                        # Memo-dict idiom: the key is a plain identity and
                        # the *stored value* carries the generation stamp
                        # compared on read — that protocol also passes.
                        value_ok = self._has_generation(
                            node.value, assignments
                        )
                        if not key_ok and not value_ok:
                            yield module.violation(
                                self.id,
                                node,
                                f"store into self.{target.value.attr} "  # type: ignore[union-attr]
                                "whose key and value carry no generation "
                                "component",
                            )

    @staticmethod
    def _local_assignments(
        method: ast.FunctionDef,
    ) -> dict[str, list[ast.expr]]:
        out: dict[str, list[ast.expr]] = {}
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    out.setdefault(node.target.id, []).append(node.value)
        return out

    def _has_generation(
        self,
        expr: ast.expr,
        assignments: dict[str, list[ast.expr]],
        depth: int = 0,
    ) -> bool:
        if depth > 4:
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and _GENERATION_RE.search(
                node.attr
            ):
                return True
            if isinstance(node, ast.Name):
                if _GENERATION_RE.search(node.id):
                    return True
                for candidate in assignments.get(node.id, ()):
                    if candidate is not expr and self._has_generation(
                        candidate, assignments, depth + 1
                    ):
                        return True
        return False


class FrozenPayloadRule:
    """No mutation of frozen payload objects after construction."""

    id = "frozen-payload"
    description = "mutation of a frozen DTO/cached payload after construction"

    _MUTATORS = {
        "append",
        "extend",
        "insert",
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "remove",
        "discard",
        "add",
        "sort",
        "reverse",
    }

    def check(
        self, module: ModuleSource, index: ProjectIndex
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, index, node)

    def _frozen_locals(
        self, index: ProjectIndex, func: ast.FunctionDef
    ) -> dict[str, str]:
        out: dict[str, str] = {}
        # Parameters annotated with a frozen class are frozen too — this
        # is how mutation-log consumers receive StarMutation payloads.
        arguments = func.args
        for arg in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ):
            name = self._annotation_name(arg.annotation)
            if name in index.frozen_classes:
                out[arg.arg] = name
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                callee = node.value.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else getattr(callee, "id", None)
                )
                if name in index.frozen_classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            out[target.id] = name
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                name = self._annotation_name(node.annotation)
                if name in index.frozen_classes:
                    out[node.target.id] = name
        return out

    @staticmethod
    def _annotation_name(annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return annotation.value.rsplit(".", 1)[-1]
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Attribute):
            return annotation.attr
        return None

    def _frozen_base(
        self,
        node: ast.expr,
        frozen_locals: dict[str, str],
        index: ProjectIndex,
    ) -> str | None:
        """If ``node`` is ``<frozen value>.attr`` (or deeper), its class."""
        base = node
        while isinstance(base, ast.Attribute):
            inner = base.value
            if isinstance(inner, ast.Name) and inner.id in frozen_locals:
                return frozen_locals[inner.id]
            if isinstance(inner, ast.Call):
                callee = inner.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else getattr(callee, "id", None)
                )
                if name in index.frozen_classes:
                    return name
            base = inner
        return None

    def _check_function(
        self,
        module: ModuleSource,
        index: ProjectIndex,
        func: ast.FunctionDef,
    ) -> Iterator[Violation]:
        frozen_locals = self._frozen_locals(index, func)
        if not frozen_locals and not index.frozen_classes:
            return
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in self._MUTATORS
                ):
                    owner = self._frozen_base(
                        callee.value, frozen_locals, index
                    )
                    if owner is not None:
                        yield module.violation(
                            self.id,
                            node,
                            f".{callee.attr}() on a field of frozen "
                            f"payload {owner} (cached payloads are shared; "
                            "build a new object instead)",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AugAssign)
                    else node.targets
                )
                for target in targets:
                    base: ast.expr | None = None
                    if isinstance(target, ast.Subscript):
                        base = target.value
                    elif isinstance(target, ast.Attribute):
                        base = target
                    if base is None:
                        continue
                    owner = self._frozen_base(base, frozen_locals, index)
                    if owner is not None:
                        yield module.violation(
                            self.id,
                            node,
                            f"assignment into frozen payload {owner} after "
                            "construction (cached payloads are shared; "
                            "build a new object instead)",
                        )


class CheckThenActRule:
    """No unguarded test+store races on shared dict attributes."""

    id = "check-then-act"
    description = (
        "membership/get check and store on a shared dict without a lock"
    )

    def check(
        self, module: ModuleSource, index: ProjectIndex
    ) -> Iterator[Violation]:
        for info in collect_classes(module):
            # Only classes that own a lock have declared themselves
            # shared; single-threaded helpers stay out of scope.
            if not info.locks:
                continue
            for method in _methods(info.node):
                if method.name in _CONSTRUCTORS:
                    continue
                yield from self._check_method(module, info, method)

    def _check_method(
        self, module: ModuleSource, info: ClassInfo, method: ast.FunctionDef
    ) -> Iterator[Violation]:
        checked: set[str] = set()
        stores: list[tuple[str, ast.AST]] = []

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            guarded = bool(held & info.locks)
            if isinstance(node, ast.Compare) and not guarded:
                if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                    for operand in node.comparators:
                        if _is_self_attr(operand):
                            checked.add(operand.attr)  # type: ignore[union-attr]
            if isinstance(node, ast.Call) and not guarded:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and _is_self_attr(func.value)
                ):
                    checked.add(func.value.attr)  # type: ignore[union-attr]
            if isinstance(node, ast.Assign) and not guarded:
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and _is_self_attr(
                        target.value
                    ):
                        stores.append((target.value.attr, node))  # type: ignore[union-attr]
            if isinstance(node, ast.Delete) and not guarded:
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and _is_self_attr(
                        target.value
                    ):
                        stores.append((target.value.attr, node))  # type: ignore[union-attr]

        for node, held in _function_walk(method, module):
            visit(node, held)
        for attr, node in stores:
            if attr in checked:
                yield module.violation(
                    self.id,
                    node,
                    f"check-then-act on self.{attr}: tested and stored "
                    "without holding a lock (two threads can both miss "
                    "and both write)",
                )


class SwallowedErrorRule:
    """No bare excepts; no silently-swallowed broad exceptions."""

    id = "swallowed-error"
    description = "bare `except:` or broad exception handler that only passes"

    _BROAD = {"Exception", "BaseException", "StorageError", "ReproError"}

    def check(
        self, module: ModuleSource, index: ProjectIndex
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.violation(
                    self.id,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "too; name the exception",
                )
                continue
            names = self._exception_names(node.type)
            if names & self._BROAD and self._only_passes(node.body):
                caught = ", ".join(sorted(names & self._BROAD))
                yield module.violation(
                    self.id,
                    node,
                    f"swallowed {caught}: handler body is only `pass` — "
                    "a degraded answer must be deliberate (log, count, "
                    "or re-raise)",
                )

    @staticmethod
    def _exception_names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        candidates = node.elts if isinstance(node, ast.Tuple) else [node]
        for candidate in candidates:
            if isinstance(candidate, ast.Attribute):
                names.add(candidate.attr)
            elif isinstance(candidate, ast.Name):
                names.add(candidate.id)
        return names

    @staticmethod
    def _only_passes(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or `...`
            if isinstance(stmt, ast.Continue):
                continue
            return False
        return True


ALL_RULES = (
    GenKeyRule(),
    LockGuardRule(),
    FrozenPayloadRule(),
    CheckThenActRule(),
    SwallowedErrorRule(),
)
