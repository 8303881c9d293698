"""The acceptance gate, run as a test: the real tree is lint-clean.

This is the same check CI's lint job runs (``repro lint src
--check-baseline``): zero new findings over ``src/`` and zero stale
entries in the committed ``lint-baseline.json``.  Keeping it inside
tier-1 means a violation fails the ordinary test run too, not just the
dedicated CI job.  The tree's other invariants ride along: the baselines
stay empty, and every Markdown file ``src/`` points a reader to exists.
"""

import re
from pathlib import Path

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
