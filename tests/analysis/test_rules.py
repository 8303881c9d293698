"""Fixture corpora for the lint rules: one positive + one negative each."""


def _by_rule(violations, rule):
    return [v for v in violations if v.rule == rule]


class TestGenKey:
    def test_generationless_memo_store_is_flagged(self, lint):
        violations = lint(
            """
            class Engine:
                def __init__(self):
                    self._view_memo = {}

                def build(self, star, name):
                    view = object()
                    self._view_memo[name] = view
                    return view
            """
        )
        (violation,) = _by_rule(violations, "gen-key")
        assert violation.line == 8
        assert "fixture.py:8" in violation.format()
        assert "_view_memo" in violation.message

    def test_generation_stamped_key_passes(self, lint):
        violations = lint(
            """
            class Engine:
                def __init__(self):
                    self._view_memo = {}

                def build(self, star, name):
                    key = (name, star.generation)
                    self._view_memo[key] = object()
            """
        )
        assert _by_rule(violations, "gen-key") == []

    def test_generation_stamped_value_passes(self, lint):
        # Memo-dict idiom: plain key, the stored value carries the
        # stamp that reads compare against.
        violations = lint(
            """
            class Engine:
                def __init__(self):
                    self._view_memo = {}

                def build(self, star, name):
                    self._view_memo[name] = (star.generation, object())
            """
        )
        assert _by_rule(violations, "gen-key") == []

    def test_stamped_value_put_is_flagged(self, lint):
        # An LRU put must key on the generation: a generation carried
        # only in the stored value is served by any later lookup.
        violations = lint(
            """
            class Service:
                def __init__(self):
                    self._query_cache = ThreadSafeLRU(64)

                def run(self, q, star):
                    key = (q, star.datamart)
                    stamps = self._generation_stamps(star, q)
                    self._query_cache.put(key, (stamps, object()))
            """
        )
        (violation,) = _by_rule(violations, "gen-key")
        assert violation.line == 9
        assert "key carries no generation" in violation.message

    def test_lru_put_without_generation_is_flagged(self, lint):
        violations = lint(
            """
            class Service:
                def __init__(self):
                    self._query_cache = ThreadSafeLRU(64)

                def run(self, q, star):
                    self._query_cache.put((q, star.generation), 1)
                    self._query_cache.put(q, 2)
            """
        )
        (violation,) = _by_rule(violations, "gen-key")
        assert violation.line == 8

    def test_generationless_translation_store_is_flagged(self, lint):
        # Translation-table caches (the star's roll-up translations)
        # are cache-shaped attrs: a store without a generation in the
        # key or value must be flagged like any memo dict.
        violations = lint(
            """
            class Star:
                def __init__(self):
                    self._rollup_translations = {}

                def translation(self, fact, dimension, level):
                    table = object()
                    self._rollup_translations[(fact, dimension, level)] = table
                    return table
            """
        )
        (violation,) = _by_rule(violations, "gen-key")
        assert "_rollup_translations" in violation.message

    def test_generation_stamped_translation_value_passes(self, lint):
        violations = lint(
            """
            class Star:
                def __init__(self):
                    self._rollup_translations = {}

                def translation(self, fact, dimension, level):
                    member_generation = self._member_generations.get(dimension, 0)
                    table = _RollupTranslation(member_generation)
                    self._rollup_translations[(fact, dimension, level)] = table
                    return table
            """
        )
        assert _by_rule(violations, "gen-key") == []


class TestLockGuard:
    SOURCE = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            # guarded-by: _lock
            self._entries = {}

        def get(self, key):
            return self._entries.get(key)

        def put(self, key, value):
            with self._lock:
                self._entries[key] = value

        def _trim(self):  # guarded-by-caller: _lock
            self._entries.clear()
    """

    def test_unguarded_access_flagged_guarded_and_caller_guard_pass(self, lint):
        violations = _by_rule(lint(self.SOURCE), "lock-guard")
        assert [v.line for v in violations] == [11]
        assert "self._entries" in violations[0].message
        assert "_lock" in violations[0].message

    def test_unguarded_view_memo_write_is_flagged(self, lint):
        # The ISSUE acceptance fixture: an unguarded `_view_memo` write.
        violations = lint(
            """
            import threading

            class Engine:
                def __init__(self):
                    self._memo_lock = threading.Lock()
                    # guarded-by: _memo_lock
                    self._view_memo = {}

                def seed(self, key, view, generation):
                    self._view_memo[(key, generation)] = view
            """
        )
        flagged = _by_rule(violations, "lock-guard")
        assert [v.line for v in flagged] == [11]
        assert "fixture.py:11" in flagged[0].format()


class TestFrozenPayload:
    def test_mutating_a_namedtuple_field_is_flagged(self, lint):
        violations = lint(
            """
            from typing import NamedTuple

            class Snapshot(NamedTuple):
                rows: list

            def poison(cache):
                snap = Snapshot(rows=[])
                snap.rows.append(1)
            """
        )
        (violation,) = _by_rule(violations, "frozen-payload")
        assert violation.line == 9
        assert "Snapshot" in violation.message

    def test_frozen_dataclass_item_assignment_is_flagged(self, lint):
        violations = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Payload:
                attrs: dict

            def poison():
                payload = Payload(attrs={})
                payload.attrs["k"] = 1
            """
        )
        (violation,) = _by_rule(violations, "frozen-payload")
        assert violation.line == 10

    def test_mutating_annotated_frozen_parameter_is_flagged(self, lint):
        # PR 9: mutation-log consumers receive StarMutation-shaped frozen
        # payloads as parameters — mutating their fields is poison even
        # though the construction site is in another function.
        violations = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class StarMutation:
                payload: tuple

            def poison(mutation: StarMutation):
                mutation.payload.append(("extra", 1))
            """
        )
        (violation,) = _by_rule(violations, "frozen-payload")
        assert violation.line == 9
        assert "StarMutation" in violation.message

    def test_thawed_payload_copy_passes(self, lint):
        violations = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class StarMutation:
                payload: tuple

            def fine(mutation: StarMutation):
                details = thaw_payload(mutation.payload)
                details["extra"] = 1
                return details
            """
        )
        assert _by_rule(violations, "frozen-payload") == []

    def test_copying_before_mutation_passes(self, lint):
        violations = lint(
            """
            from typing import NamedTuple

            class Snapshot(NamedTuple):
                rows: list

            def fine():
                snap = Snapshot(rows=[])
                rows = list(snap.rows)
                rows.append(1)
                return rows
            """
        )
        assert _by_rule(violations, "frozen-payload") == []


class TestCheckThenAct:
    def test_unguarded_test_and_store_is_flagged(self, lint):
        violations = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def racy(self, key):
                    if key not in self._items:
                        self._items[key] = object()
                    return self._items[key]
            """
        )
        (violation,) = _by_rule(violations, "check-then-act")
        assert violation.line == 11
        assert "self._items" in violation.message

    def test_double_checked_store_under_lock_passes(self, lint):
        violations = lint(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def safe(self, key):
                    if key not in self._items:
                        with self._lock:
                            if key not in self._items:
                                self._items[key] = object()
                    return self._items[key]
            """
        )
        assert _by_rule(violations, "check-then-act") == []

    def test_lockless_class_is_out_of_scope(self, lint):
        violations = lint(
            """
            class SingleThreaded:
                def __init__(self):
                    self._items = {}

                def racy_but_private(self, key):
                    if key not in self._items:
                        self._items[key] = object()
                    return self._items[key]
            """
        )
        assert _by_rule(violations, "check-then-act") == []


class TestSwallowedError:
    def test_bare_except_is_flagged(self, lint):
        violations = lint(
            """
            def bad():
                try:
                    risky()
                except:
                    pass
            """
        )
        flagged = _by_rule(violations, "swallowed-error")
        assert [v.line for v in flagged] == [5]
        assert "bare" in flagged[0].message

    def test_pass_only_storage_error_handler_is_flagged(self, lint):
        violations = lint(
            """
            def bad():
                try:
                    risky()
                except StorageError:
                    pass
            """
        )
        (violation,) = _by_rule(violations, "swallowed-error")
        assert "StorageError" in violation.message

    def test_deliberate_handler_passes(self, lint):
        violations = lint(
            """
            def fine(log):
                try:
                    return risky()
                except StorageError as exc:
                    log.warning("degraded: %s", exc)
                    return None
            """
        )
        assert _by_rule(violations, "swallowed-error") == []

    def test_lint_ok_suppression(self, lint):
        violations = lint(
            """
            def documented():
                try:
                    return risky()
                except StorageError:  # lint-ok: swallowed-error - stale keys degrade
                    pass
            """
        )
        assert _by_rule(violations, "swallowed-error") == []

    def test_star_suppression_covers_every_rule(self, lint):
        violations = lint(
            """
            def documented():
                try:
                    return risky()
                except:  # lint-ok: * - fixture
                    pass
            """
        )
        assert violations == []
