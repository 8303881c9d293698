"""Tests for the shared materialized-view store (PR 4).

The contract: views are shared warehouse objects keyed on ``(fact,
selection fingerprint, star generation)`` — one build serves every
session with content-equal selections; datamarts and differing
selections stay isolated; member, geometry, feature and layer writes
carry every view; fact appends are *patched* (delta rows filtered
through each view's selection) and the patched view is
indistinguishable from a full rebuild; a session's memo access is safe
under the threaded HTTP
adapter; and selections holding since-vanished keys degrade instead of
raising on the request path.
"""

import threading

import pytest

from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.geomd import GeometricType
from repro.personalization import PersonalizationEngine, ViewStore
from repro.prml.evaluator import SelectionSet


@pytest.fixture()
def session(engine, profile, world):
    return engine.start_session(profile, location=world.stores[0].location)


def _twin_session(engine, user_schema, world, name="Bo Li"):
    return engine.start_session(
        build_regional_manager_profile(user_schema, name=name),
        location=world.stores[0].location,
    )


def _append_copy_of(star, row_id, store_key=None):
    """Append a fact row copying ``row_id``'s coordinates/measures
    (optionally rebinding the Store key)."""
    table = star.fact_table()
    row = table.row(row_id)
    coordinates = {d: row[d] for d in table.fact.dimension_names}
    if store_key is not None:
        coordinates["Store"] = store_key
    measures = {m: row[m] for m in table.fact.measures}
    return star.insert_fact(table.fact.name, coordinates, measures)


class TestSharing:
    def test_n_sessions_one_build(self, engine, user_schema, world, session):
        """Rounds of four sessions, each round ended before the next
        starts, all materialize from the first session's build."""
        session.view()
        builds = engine.view_store.stats()["builds"]
        for _round in range(3):
            peers = [
                _twin_session(engine, user_schema, world, name=f"peer-{i}")
                for i in range(4)
            ]
            views = {id(peer.view()) for peer in peers}
            assert views == {id(session.view())}
            for peer in peers:
                peer.end()
        assert engine.view_store.stats()["builds"] == builds

    def test_store_entry_counts_hits(self, engine, session):
        session.view()
        first_stats = engine.view_store.stats()
        session.selection.add_member(
            "Store", "Store", next(iter(session.selection.members[("Store", "Store")]))
        )  # no growth: generation unchanged, memo still valid
        session.view()
        assert engine.view_store.stats()["builds"] == first_stats["builds"]

    def test_datamarts_never_share(self, world, user_schema):
        """Two tenants over twin stars: structural isolation — each engine
        owns its own store, even for identical selection content."""
        engines = [
            PersonalizationEngine(
                build_sales_star(world),
                user_schema,
                geo_source=WorldGeoSource(world),
                parameters={"threshold": 3},
            )
            for _ in range(2)
        ]
        for engine in engines:
            engine.add_rules(ALL_PAPER_RULES.values())
        sessions = [
            engine.start_session(
                build_regional_manager_profile(user_schema),
                location=world.stores[0].location,
            )
            for engine in engines
        ]
        first, second = (s.view() for s in sessions)
        assert first is not second
        assert first.fact_rows == second.fact_rows
        assert engines[0].view_store is not engines[1].view_store


class TestInvalidation:
    def test_unreferenced_member_mutation_carries(self, engine, session):
        """PR 9 bugfix pin: a member mutation on a dimension the view's
        selection does not reference used to throw the view away; it must
        carry to the new generation without a rebuild."""
        warm = session.view()
        builds = engine.view_store.stats()["builds"]
        assert not any(
            dim == "Product" for dim, _level in session.selection.members
        )
        session.context.star.add_member("Product", "Family", "Exotic")
        fresh = session.view()
        assert fresh is warm
        stats = engine.view_store.stats()
        assert stats["builds"] == builds
        assert stats["carries"] >= 1

    def test_referenced_member_update_invalidates(self, engine, session, world):
        """A geometry load inside a referenced dimension moves no parent
        link, so the view is carried, not dropped: no build and no
        invalidation, and its rows equal a fresh build's."""
        warm = session.view()
        assert any(
            dim == "Store" for dim, _level in session.selection.members
        )
        before = engine.view_store.stats()
        session.context.star.become_spatial(
            "Store.City",
            GeometricType.POINT,
            WorldGeoSource(world).level_geometries("Store", "City"),
        )
        fresh = session.view()
        assert fresh is warm
        after = engine.view_store.stats()
        assert after["builds"] == before["builds"]
        assert after["invalidations"] == before["invalidations"]
        assert after["carries"] == before["carries"] + 1
        assert fresh.fact_rows == session._build_view(warm.fact).fact_rows

    def test_referenced_member_add_carries(self, engine, session, world):
        """A member *add* inside a referenced dimension carries: a new
        member is referenced by no existing fact row, so the view's rows
        are provably unchanged (the patch filter is re-derived lazily)."""
        warm = session.view()
        builds = engine.view_store.stats()["builds"]
        session.context.star.add_member(
            "Store", "Store", "S-new", parents={"City": world.cities[0].name}
        )
        fresh = session.view()
        assert fresh is warm
        assert engine.view_store.stats()["builds"] == builds
        rebuilt = session._build_view(warm.fact)
        assert fresh.fact_rows == rebuilt.fact_rows

    def test_feature_mutation_carries(self, engine, session, world):
        from repro.geometry import Point

        warm = session.view()
        builds = engine.view_store.stats()["builds"]
        session.context.star.add_features(
            "Airport", [("Test Field", Point(1.0, 2.0), None)]
        )
        fresh = session.view()
        assert fresh is warm
        assert engine.view_store.stats()["builds"] == builds
        assert fresh.fact_rows == warm.fact_rows

    def test_lru_bound_evicts(self, star, user_schema, world, profile):
        engine = PersonalizationEngine(
            star,
            user_schema,
            geo_source=WorldGeoSource(world),
            parameters={"threshold": 3},
            view_store=ViewStore(1),
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        first = engine.start_session(profile, location=world.stores[0].location)
        second = _twin_session(engine, user_schema, world)
        first.view()
        # Grow the second session's selection: a distinct fingerprint that
        # evicts the first entry from the size-1 store.
        column = star.fact_table().key_column("Store")
        unselected = next(
            key
            for key in column
            if key not in second.selection.members[("Store", "Store")]
        )
        second.selection.add_member("Store", "Store", unselected)
        second.view()
        assert len(engine.view_store) == 1
        assert engine.view_store.stats()["evictions"] == 1

    def test_store_rejects_zero_size(self):
        with pytest.raises(ValueError):
            ViewStore(max_size=0)

    def test_detach_stops_maintenance(self, engine, session):
        store = engine.view_store
        warm = session.view()
        engine.detach()
        assert len(store) == 0
        patches = store.stats()["patches"]
        _append_copy_of(session.context.star, warm.fact_rows[0])
        assert store.stats()["patches"] == patches  # no longer listening


class TestIncrementalMaintenance:
    def test_append_patches_instead_of_rebuilding(self, engine, session):
        star = session.context.star
        warm = session.view()
        builds = engine.view_store.stats()["builds"]
        _append_copy_of(star, warm.fact_rows[0])
        patched = session.view()
        stats = engine.view_store.stats()
        assert stats["builds"] == builds  # no rebuild
        assert stats["patches"] >= 1
        assert len(patched.fact_rows) == len(warm.fact_rows) + 1

    def test_non_matching_append_is_filtered(self, engine, session, world):
        star = session.context.star
        warm = session.view()
        selected = session.selection.members[("Store", "Store")]
        outside = next(
            store.name for store in world.stores if store.name not in selected
        )
        _append_copy_of(star, warm.fact_rows[0], store_key=outside)
        patched = session.view()
        assert engine.view_store.stats()["patches"] >= 1
        assert patched.fact_rows == warm.fact_rows

    def test_patched_equals_rebuilt(self, engine, session, world):
        """Property-style equivalence: after a mixed append workload the
        patched view must equal a from-scratch rebuild, row for row."""
        star = session.context.star
        warm = session.view()
        selected = session.selection.members[("Store", "Store")]
        outside = next(
            store.name for store in world.stores if store.name not in selected
        )
        for i in range(8):
            _append_copy_of(
                star,
                warm.fact_rows[i % len(warm.fact_rows)],
                store_key=outside if i % 3 == 0 else None,
            )
        patched = session.view()
        rebuilt = session._build_view(patched.fact)
        assert patched.fact_rows == rebuilt.fact_rows
        assert patched.stats() == rebuilt.stats()
        assert engine.view_store.stats()["builds"] == 1

    def test_multi_fact_append_carries_other_views(
        self, dual_fact_star, user_schema
    ):
        engine = PersonalizationEngine(dual_fact_star, user_schema)
        session = engine.start_session(
            build_regional_manager_profile(user_schema)
        )
        sales_warm = session.view("Sales")
        returns_warm = session.view("Returns")
        dual_fact_star.insert_fact("Sales", {"Product": "P1"}, {"Units": 2})
        assert len(session.view("Sales").fact_rows) == len(sales_warm.fact_rows) + 1
        # The Returns view was unaffected: carried, not rebuilt or patched.
        assert session.view("Returns").fact_rows == returns_warm.fact_rows
        assert engine.view_store.stats()["carries"] >= 1
        assert engine.view_store.stats()["builds"] == 2


class TestConcurrency:
    def test_concurrent_view_calls_share_one_build(self, engine, session):
        """Satellite regression: ``view()``'s memo used to be an unlocked
        check-then-act; the threaded HTTP server can hit one session
        concurrently.  Every thread must get the same materialization and
        the store must build at most once."""
        barrier = threading.Barrier(8)
        results: list[object] = []
        errors: list[BaseException] = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(50):
                    results.append(session.view())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({id(view) for view in results}) == 1
        assert engine.view_store.stats()["builds"] == 1

    def test_concurrent_views_during_appends_stay_consistent(
        self, engine, session
    ):
        """Readers racing fact appends: every returned view must equal a
        from-scratch rebuild at *some* prefix of the append sequence
        (monotonic row counts, no duplicated or phantom rows)."""
        star = session.context.star
        warm = session.view()
        template = warm.fact_rows[0]
        stop = threading.Event()
        seen: list[list[int]] = []
        errors: list[BaseException] = []

        def read():
            try:
                while not stop.is_set():
                    seen.append(list(session.view().fact_rows))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        for _ in range(20):
            _append_copy_of(star, template)
        stop.set()
        reader.join()
        assert not errors
        final = session._build_view(warm.fact)
        for rows in seen:
            # Ascending, duplicate-free, and a subset of the final rows.
            assert rows == sorted(set(rows))
            assert set(rows) <= set(final.fact_rows)
        assert session.view().fact_rows == final.fact_rows


class TestStaleSelections:
    def test_stale_member_keys_are_dropped(self, session):
        """A selection can name members the star does not hold (a
        restored session record, a hand-built selection): stale keys
        must degrade, not raise, on the request path."""
        star = session.context.star
        selection = session.selection
        live_rows = list(session.view().fact_rows)
        selection.add_member("Store", "Store", "vanished-store")
        selection.add_member("Store", "City", "vanished-city")
        allowed = selection.allowed_leaf_keys(star)
        assert "vanished-store" not in allowed["Store"]
        assert session.view().fact_rows == live_rows

    def test_all_stale_keys_leave_dimension_unrestricted(self, star):
        selection = SelectionSet()
        selection.add_member("Store", "Store", "vanished-store")
        assert selection.allowed_leaf_keys(star) == {}
        assert list(selection.fact_row_ids(star)) == list(
            star.fact_table().row_ids()
        )

    def test_stale_dimension_and_level_are_dropped(self, star):
        selection = SelectionSet()
        selection.add_member("NoSuchDimension", "Leaf", "x")
        selection.add_member("Store", "NoSuchLevel", "x")
        assert selection.allowed_leaf_keys(star) == {}

    def test_scan_path_agrees(self, star):
        selection = SelectionSet()
        selection.add_member("Store", "Store", "vanished-store")
        star.oracle = True
        assert selection.allowed_leaf_keys(star) == {}


class TestFingerprint:
    def test_fingerprint_is_content_based(self):
        first, second = SelectionSet(), SelectionSet()
        first.add_member("Store", "Store", "a")
        first.add_member("Store", "Store", "b")
        second.add_member("Store", "Store", "b")
        second.add_member("Store", "Store", "a")
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_changes_on_growth(self):
        selection = SelectionSet()
        selection.add_member("Store", "Store", "a")
        before = selection.fingerprint()
        selection.add_member("Store", "Store", "a")  # no growth
        assert selection.fingerprint() == before
        selection.add_feature("Airport", "X")
        assert selection.fingerprint() != before

    def test_snapshot_is_detached(self):
        selection = SelectionSet()
        selection.add_member("Store", "Store", "a")
        frozen = selection.snapshot()
        assert frozen.fingerprint() == selection.fingerprint()
        selection.add_member("Store", "Store", "b")
        assert frozen.member_triples() == [("Store", "Store", "a")]
        assert frozen.fingerprint() != selection.fingerprint()
