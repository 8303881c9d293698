"""Tests for personalized views feeding non-spatial BI queries."""

import pytest

from repro.mdm import Aggregator
from repro.olap import AggSpec


class TestPersonalizedView:
    @pytest.fixture()
    def session(self, engine, profile, world):
        return engine.start_session(profile, location=world.stores[0].location)

    def test_restriction_smaller_than_full(self, session, star):
        view = session.view()
        assert view.is_restricted
        assert 0 < len(view.fact_rows) < len(star.fact_table())

    def test_cube_respects_selection(self, session, star):
        view = session.view()
        count = view.cube().count()
        assert count == len(view.fact_rows)

    def test_selected_rows_only_contain_selected_stores(self, session, star):
        view = session.view()
        selected_stores = view.selection.members[("Store", "Store")]
        column = star.fact_table().key_column("Store")
        for row in view.fact_rows:
            assert column[row] in selected_stores

    def test_non_spatial_query_over_view(self, session):
        """The Section 4.2.4 scenario: a plain OLAP query, no spatial ops,
        yet results are already spatially personalized."""
        view = session.view()
        result = (
            view.cube()
            .measures(AggSpec(Aggregator.SUM, "StoreSales"))
            .by("Product.Family")
            .result()
        )
        assert result.fact_rows_scanned == len(view.fact_rows)

    def test_stats_shape(self, session):
        stats = session.view().stats()
        assert set(stats) == {
            "fact_rows_total",
            "fact_rows_kept",
            "members_selected",
        }
        # The layer counts come from the session's schema, not the view.
        assert set(session.view_stats()) == set(stats) | {
            "layers",
            "spatial_levels",
        }

    def test_5km_selection_is_correct(self, session, world, engine):
        """Every selected store is within 5 km; every unselected farther."""
        location = world.stores[0].location
        selected = session.view().selection.members[("Store", "Store")]
        for store in world.stores:
            distance = store.location.distance_to(location)
            if distance < 5_000.0:
                assert store.name in selected
            else:
                assert store.name not in selected


class TestInterestWidening:
    def test_degree_threshold_drives_widening(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        before = len(session.view().fact_rows)

        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(4):  # threshold is 3
            session.record_spatial_selection("GeoMD.Store.City", condition)
        session.rerun_instance_rules()
        after = len(session.view().fact_rows)
        assert after > before
        # The widening added city-level selections.
        assert ("Store", "City") in session.selection.members
        session.end()

    def test_below_threshold_no_widening(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        before = len(session.view().fact_rows)
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(2):  # below threshold of 3
            session.record_spatial_selection("GeoMD.Store.City", condition)
        session.rerun_instance_rules()
        assert ("Store", "City") not in session.selection.members
        # 5kmStores re-ran but its selections are the same members.
        assert len(session.view().fact_rows) == before
        session.end()

    def test_widened_cities_have_train_connection(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(4):
            session.record_spatial_selection("GeoMD.Store.City", condition)
        session.rerun_instance_rules()
        selected_cities = session.selection.members.get(("Store", "City"), set())
        assert selected_cities
        # Every selected city must be a stop on some train line that also
        # serves an airport within 50km of travel.
        for city_name in selected_cities:
            city = world.city(city_name)
            on_some_line = False
            for line in world.train_lines:
                if city_name not in line.stops:
                    continue
                for airport in world.airports:
                    if airport.name not in line.stops:
                        continue
                    arc = line.path.arc_between(city.location, airport.location)
                    if arc < 50_000.0:
                        on_some_line = True
            assert on_some_line, f"{city_name} has no qualifying train link"
        session.end()
