"""The acceptance gate, run as a test: the real tree is lint-clean.

This is the same check CI's lint job runs (``repro lint src
--check-baseline``): zero new findings over ``src/`` and zero stale
entries in the committed ``lint-baseline.json``.  Keeping it inside
tier-1 means a violation fails the ordinary test run too, not just the
dedicated CI job.  The tree's other invariants ride along: the baselines
stay empty, every Markdown file ``src/`` points a reader to exists, no
module imports a name it never reads, and every ``__all__`` entry of
the package resolves.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro

from repro.analysis.baseline import Baseline
from repro.analysis.core import LintRunner

REPO_ROOT = Path(__file__).resolve().parents[2]


def _relative_src_violations():
    # Lint with repo-root-relative paths so fingerprints match the
    # committed baseline regardless of the invocation directory.
    import os

    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return LintRunner().run(["src"])
    finally:
        os.chdir(cwd)


def test_src_is_clean_against_committed_baseline():
    violations = _relative_src_violations()
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    new, grandfathered, stale = baseline.split(violations)
    assert [v.format() for v in new] == []
    assert [entry["fingerprint"] for entry in stale] == []
    # The grandfather set is the small, deliberate double-checked
    # fast-path reads; it only ever shrinks.
    assert len(grandfathered) == len(baseline)


def test_baseline_is_empty():
    # PR 8 retired the last grandfathered double-checked fast paths by
    # moving their reads under the declared locks; the baseline only
    # ever shrinks and is now pinned at zero entries.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert len(baseline) == 0


def test_lock_order_baseline_is_empty():
    import json

    data = json.loads((REPO_ROOT / "lock-order-baseline.json").read_text())
    assert data["cycles"] == []


def test_every_markdown_file_src_names_exists():
    """Each ``*.md`` file a docstring, comment or message in ``src/``
    points a reader to is one the repository has at its root."""
    markdown_name = re.compile(r"\b[\w-]+\.md\b")
    missing = sorted(
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in (REPO_ROOT / "src").rglob("*.py")
        for name in set(markdown_name.findall(path.read_text(encoding="utf-8")))
        if not (REPO_ROOT / name).is_file()
    )
    assert missing == []


#: The trees whose modules the unused-import guard reads.
PYTHON_TREES = ("src", "tests", "benchmarks", "examples")


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every import in ``tree``, at any depth,
    except ``from __future__`` and ``*`` imports."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(
                (alias.asname or alias.name.split(".")[0], node.lineno)
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(
                (alias.asname or alias.name, node.lineno)
                for alias in node.names
                if alias.name != "*"
            )
    return bound


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: a load (the root of an attribute chain
    is one), a name inside a string annotation, an ``__all__`` entry, or
    a parameter of a test function (pytest passes fixtures by name)."""
    read: set[str] = set()

    def annotation(node: ast.AST | None) -> None:
        for sub in ast.walk(node) if node is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read.update(_read_names(ast.parse(sub.value, mode="eval")))

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation(node.returns)
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is None:
                    continue
                annotation(arg.annotation)
                if node.name.startswith("test"):
                    read.add(arg.arg)
        elif isinstance(node, ast.AnnAssign):
            annotation(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return read


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for tree_name in PYTHON_TREES:
        for path in sorted((REPO_ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = _read_names(tree)
            unused.extend(
                f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
                for name, line in _imported_names(tree)
                if name not in read
            )
    assert unused == []


def test_every_export_of_the_package_resolves():
    """Each ``__all__`` entry of every ``repro`` module is an attribute
    of that module once it is imported."""
    names = ["repro"]
    names.extend(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    dangling = []
    for name in names:
        module = importlib.import_module(name)
        dangling.extend(
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        )
    assert dangling == []


#: ``FactTable``'s stored columns and row count; only its one append,
#: its constructor and its copy may write them.
FACT_STATE = {"_codes", "_measures", "_count"}
FACT_WRITERS = {
    ("FactTable", "insert_columns"),
    ("FactTable", "__init__"),
    ("FactTable", "copy"),
}
_GROWERS = {"append", "extend", "insert", "frombytes", "fromlist", "pop"}


def _names_fact_state(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in FACT_STATE
        for sub in ast.walk(node)
    )


def _writes_fact_state(node: ast.AST) -> bool:
    """An assignment, augmented assignment or ``del`` whose target names
    a fact column or the row count, or a growing call on one."""
    if isinstance(node, ast.Assign):
        return any(_names_fact_state(target) for target in node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return _names_fact_state(node.target)
    if isinstance(node, ast.Delete):
        return any(_names_fact_state(target) for target in node.targets)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _GROWERS
        and _names_fact_state(node.func.value)
    )


def test_the_fact_table_has_one_append():
    """In ``storage/tables.py`` only ``FactTable.insert_columns``,
    ``__init__`` and ``copy`` assign to or extend the fact columns or
    the row count, so no second write path can come back unseen."""
    path = REPO_ROOT / "src" / "repro" / "storage" / "tables.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writers = set()
    for owner in ast.walk(tree):
        if not isinstance(owner, (ast.Module, ast.ClassDef)):
            continue
        scope = owner.name if isinstance(owner, ast.ClassDef) else "<module>"
        for function in owner.body:
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_writes_fact_state(n) for n in ast.walk(function)):
                    writers.add((scope, function.name))
    assert writers == FACT_WRITERS


def test_the_world_loads_through_the_columnar_append():
    """``load_world`` appends the sales with ``insert_columns`` and never
    row by row through ``insert_facts`` or ``insert_fact``."""
    path = REPO_ROOT / "src" / "repro" / "data" / "loader.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (load_world,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "load_world"
    ]
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(load_world)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert "insert_columns" in called
    assert called.isdisjoint({"insert_facts", "insert_fact"})
