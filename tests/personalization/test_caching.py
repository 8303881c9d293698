"""Tests for the generation-keyed view memo and its invalidation protocol.

The contract under test: ``session.view()`` may serve a memoized
:class:`PersonalizedView` only while *neither* the session's selection
generation *nor* the star generation has moved; any selection growth
(acquisition rules, instance re-runs) must produce a rebuilt view, and
any star write (member/fact/feature inserts, layer adds, geometry loads)
must make the memo revalidate against the shared store, which patches
fact appends and carries every other write — and with the star's
``oracle`` switch set the responses must be identical, just rebuilt
every time.
"""

import pytest

from repro.data import WorldGeoSource, build_regional_manager_profile
from repro.errors import PersonalizationError
from repro.geomd import GeometricType
from repro.geometry import Point

WIDEN_CONDITION = (
    "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
)


@pytest.fixture()
def session(engine, profile, world):
    return engine.start_session(profile, location=world.stores[0].location)


class TestViewMemo:
    def test_steady_state_serves_memoized_view(self, session):
        first = session.view()
        second = session.view()
        assert second is first

    def test_memo_disabled_rebuilds_identical_views(self, engine, session):
        engine.star.oracle = True
        first = session.view()
        second = session.view()
        assert second is not first
        assert second.fact_rows == first.fact_rows

    def test_cached_and_uncached_views_agree(self, engine, session):
        cached = session.view()
        engine.star.oracle = True
        uncached = session.view()
        assert uncached.fact_rows == cached.fact_rows
        assert uncached.stats() == cached.stats()

    def test_equal_selections_share_one_view_across_sessions(
        self, engine, user_schema, world
    ):
        """PR 4 semantics: the shared view store serves one materialization
        to any number of sessions whose selections hold the same content —
        the uid stays per-session, the *fingerprint* is the cache key."""
        first = engine.start_session(
            build_regional_manager_profile(user_schema),
            location=world.stores[0].location,
        )
        second = engine.start_session(
            build_regional_manager_profile(user_schema, name="Bo Li"),
            location=world.stores[0].location,
        )
        assert first.selection.fingerprint() == second.selection.fingerprint()
        assert first.view() is second.view()
        # The shared view aliases neither session's live selection.
        assert first.view().selection is not first.selection
        assert first.view().selection is not second.selection

    def test_differing_selections_never_share_a_view(
        self, engine, user_schema, world
    ):
        first = engine.start_session(
            build_regional_manager_profile(user_schema),
            location=world.stores[0].location,
        )
        second = engine.start_session(
            build_regional_manager_profile(user_schema, name="Bo Li"),
            location=world.stores[0].location,
        )
        column = second.context.star.fact_table().key_column("Store")
        unselected = next(
            key
            for key in column
            if key not in second.selection.members[("Store", "Store")]
        )
        second.selection.add_member("Store", "Store", unselected)
        assert first.selection.fingerprint() != second.selection.fingerprint()
        assert first.view() is not second.view()

    def test_selection_generation_counts_only_growth(self, session):
        selection = session.selection
        (dimension, level), keys = next(iter(selection.members.items()))
        key = next(iter(keys))
        before = selection.generation
        selection.add_member(dimension, level, key)  # already selected
        assert selection.generation == before
        selection.add_member(dimension, level, "never-seen-before")
        assert selection.generation == before + 1


class TestInvalidation:
    def test_selection_report_and_rerun_refresh_view(self, session):
        stale = session.view()
        for _ in range(4):  # interest threshold is 3
            session.record_spatial_selection("GeoMD.Store.City", WIDEN_CONDITION)
        session.rerun_instance_rules()
        fresh = session.view()
        assert fresh is not stale
        assert len(fresh.fact_rows) > len(stale.fact_rows)

    def test_manual_selection_growth_refreshes_view(self, session):
        stale = session.view()
        column = session.context.star.fact_table().key_column("Store")
        unselected = next(
            key
            for key in column
            if key not in session.selection.members[("Store", "Store")]
        )
        session.selection.add_member("Store", "Store", unselected)
        fresh = session.view()
        assert fresh is not stale
        assert len(fresh.fact_rows) > len(stale.fact_rows)

    def test_fact_insert_refreshes_view(self, session):
        star = session.context.star
        stale = session.view()
        fact_table = star.fact_table()
        row = fact_table.row(stale.fact_rows[0])
        coordinates = {d: row[d] for d in fact_table.fact.dimension_names}
        measures = {m: row[m] for m in fact_table.fact.measures}
        star.insert_fact(fact_table.fact.name, coordinates, measures)
        fresh = session.view()
        assert fresh is not stale
        assert len(fresh.fact_rows) == len(stale.fact_rows) + 1

    def test_feature_insert_carries_view(self, session):
        """PR 9: feature inserts no longer rebuild views — the store
        carries the (provably unchanged) view to the new generation and
        the session memo revalidates against it."""
        star = session.context.star
        stale = session.view()
        generation = star.generation
        star.add_features("Airport", [("Test Field", Point(1.0, 2.0), None)])
        assert star.generation == generation + 1
        fresh = session.view()
        assert fresh is stale
        assert fresh.fact_rows == session._build_view(fresh.fact).fact_rows

    def test_member_insert_carries_view(self, session):
        """PR 9: a member add on an unreferenced dimension carries the
        view instead of rebuilding; content must equal a fresh build."""
        star = session.context.star
        stale = session.view()
        star.add_member("Product", "Family", "Exotic")
        fresh = session.view()
        assert fresh is stale
        assert fresh.fact_rows == session._build_view(fresh.fact).fact_rows

    def test_member_update_refreshes_view(self, session, world):
        """A geometry load on a referenced dimension moves the star
        generation, so the session memo revalidates; the store hands
        back the carried view, whose rows equal a fresh build's."""
        star = session.context.star
        stale = session.view()
        generation = star.generation
        star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            WorldGeoSource(world).level_geometries("Store", "Store"),
        )
        assert star.generation == generation + 1
        fresh = session.view()
        assert fresh is stale
        assert fresh.fact_rows == session._build_view(fresh.fact).fact_rows

    def test_layer_table_creation_carries_view(self, session):
        star = session.context.star
        schema = star.schema
        stale = session.view()
        schema.add_layer("Harbour", schema.layers["Airport"].geometric_type)
        star.ensure_layer_table("Harbour")
        fresh = session.view()
        assert fresh is stale
        assert fresh.fact_rows == session._build_view(fresh.fact).fact_rows

    def test_idempotent_session_start_keeps_other_sessions_warm(
        self, engine, user_schema, world
    ):
        """A second login re-fires the (idempotent) schema rules; that must
        not bump the star generation and evict every session's memo."""
        first = engine.start_session(
            build_regional_manager_profile(user_schema),
            location=world.stores[0].location,
        )
        warm = first.view()
        engine.start_session(
            build_regional_manager_profile(user_schema, name="Bo Li"),
            location=world.stores[0].location,
        )
        assert first.view() is warm


class TestMultiFactViews:
    @pytest.fixture()
    def dual_session(self, dual_fact_star, user_schema):
        from repro.personalization import PersonalizationEngine

        engine = PersonalizationEngine(dual_fact_star, user_schema)
        return engine.start_session(
            build_regional_manager_profile(user_schema)
        )

    def test_view_requires_explicit_fact_when_ambiguous(self, dual_session):
        with pytest.raises(PersonalizationError, match="fact tables"):
            dual_session.view()

    def test_views_per_fact(self, dual_session):
        dual_session.selection.add_member("Product", "Product", "P2")
        sales = dual_session.view("Sales")
        returns = dual_session.view("Returns")
        assert sales.fact == "Sales"
        assert returns.fact == "Returns"
        assert len(sales.fact_rows) == 1
        assert len(returns.fact_rows) == 1
        assert sales.stats()["fact_rows_total"] == 2
        assert returns.stats()["fact_rows_total"] == 1
        assert sales.cube().count() == 1.0

    def test_per_fact_memos_are_independent(self, dual_session):
        sales = dual_session.view("Sales")
        returns = dual_session.view("Returns")
        assert dual_session.view("Sales") is sales
        assert dual_session.view("Returns") is returns

    def test_cube_for_other_fact_recomputes_rows(self, dual_session):
        """A view's fact_rows are row ids of its own fact table; a cube
        over another fact must not misapply them."""
        dual_session.selection.add_member("Product", "Product", "P2")
        sales = dual_session.view("Sales")
        assert sales.cube("Returns").count() == 1.0  # Returns row for P2
        assert sales.cube().count() == 1.0  # Sales row for P2
