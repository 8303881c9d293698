"""Integration tests for the worked Examples 5.1, 5.2 and 5.3."""

from repro.data import build_regional_manager_profile
from repro.geomd import GeometricType


class TestExample51SchemaRule:
    """addSpatiality: role-gated Airport layer + Store spatialization."""

    def test_regional_manager_triggers_rule(self, engine, profile):
        session = engine.start_session(profile)
        outcome = next(
            o for o in session.outcomes if o.rule_name == "addSpatiality"
        )
        assert outcome.layers_added == ["Airport"]
        assert outcome.levels_spatialized == ["Store.Store"]
        schema = session.context.geomd_schema
        assert schema.layer("Airport").geometric_type is GeometricType.POINT
        session.end()

    def test_other_role_does_not_trigger(self, engine, profile, user_schema, world):
        location = world.stores[0].location
        # A regional manager logs in first on the same engine: what the
        # rule adds for that session must not reach the analyst's.
        engine.start_session(profile, location).end()
        analyst = build_regional_manager_profile(user_schema, name="Bob")
        analyst.set("DecisionMaker.dm2role.name", "Analyst")
        session = engine.start_session(analyst, location)
        outcome = next(
            o for o in session.outcomes if o.rule_name == "addSpatiality"
        )
        assert outcome.fired_actions == 0
        schema = session.context.geomd_schema
        assert schema.layers == {}
        assert schema.spatial_levels == {}
        five_km = next(o for o in session.outcomes if o.rule_name == "5kmStores")
        assert five_km.selected_instances == 0
        assert session.selection.is_empty
        session.end()

    def test_airport_features_loaded(self, engine, profile, world):
        session = engine.start_session(profile)
        table = engine.star.layer_table("Airport")
        assert len(table) == len(world.airports)
        session.end()


class TestExample52InstanceRule:
    """5kmStores: select stores within 5 km of the session location."""

    def test_selection_is_exactly_the_5km_disc(self, engine, profile, world):
        location = world.cities[0].location
        session = engine.start_session(profile, location)
        selected = session.selection.members.get(("Store", "Store"), set())
        expected = {
            s.name
            for s in world.stores
            if s.location.distance_to(location) < 5_000.0
        }
        assert selected == expected
        session.end()

    def test_no_location_skips_rule_with_error(self, engine, profile):
        # Without a session location the rule's context data is missing:
        # the rule is skipped and the outcome records why.
        session = engine.start_session(profile, location=None)
        outcome = next(o for o in session.outcomes if o.rule_name == "5kmStores")
        assert outcome.error is not None
        assert outcome.selected_instances == 0
        assert ("Store", "Store") not in session.selection.members
        session.end()

    def test_succeeding_analysis_uses_only_selected_stores(
        self, engine, profile, world, star
    ):
        location = world.cities[0].location
        session = engine.start_session(profile, location)
        view = session.view()
        column = star.fact_table().key_column("Store")
        selected = session.selection.members[("Store", "Store")]
        assert all(column[row] in selected for row in view.fact_rows)
        session.end()


class TestExample53InterestRule:
    """IntAirportCity + TrainAirportCity: track interest, then widen."""

    CONDITION = (
        "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
    )

    def test_degree_accumulates_per_matching_selection(
        self, engine, profile, world
    ):
        session = engine.start_session(profile, world.stores[0].location)
        for expected in (1, 2, 3):
            session.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
            assert profile.degree("AirportCity") == expected
        session.end()

    def test_threshold_gates_train_rule(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        # threshold = 3; degree 3 is NOT > 3.
        for _ in range(3):
            session.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
        session.rerun_instance_rules()
        assert ("Store", "City") not in session.selection.members
        # One more pushes it over.
        session.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
        session.rerun_instance_rules()
        assert ("Store", "City") in session.selection.members
        session.end()

    def test_train_layer_added_on_trigger(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        assert "Train" not in session.context.geomd_schema.layers
        for _ in range(4):
            session.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
        session.rerun_instance_rules()
        schema = session.context.geomd_schema
        assert schema.layer("Train").geometric_type is GeometricType.LINE
        session.end()

    def test_selected_cities_satisfy_50km_arc_condition(
        self, engine, profile, world
    ):
        session = engine.start_session(profile, world.stores[0].location)
        for _ in range(4):
            session.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
        session.rerun_instance_rules()
        selected = session.selection.members[("Store", "City")]

        expected = set()
        for line in world.train_lines:
            airport_stops = [
                world.airport(s)
                for s in line.stops
                if any(a.name == s for a in world.airports)
            ]
            city_stops = [
                world.city(s)
                for s in line.stops
                if any(c.name == s for c in world.cities)
            ]
            for city in city_stops:
                for airport in airport_stops:
                    arc = line.path.arc_between(city.location, airport.location)
                    if arc < 50_000.0:
                        expected.add(city.name)
        assert selected == expected
        session.end()

    def test_interest_persists_across_sessions(self, engine, profile, world):
        session1 = engine.start_session(profile, world.stores[0].location)
        for _ in range(4):
            session1.record_spatial_selection("GeoMD.Store.City", self.CONDITION)
        session1.end()
        # New session: TrainAirportCity fires directly at SessionStart
        # because the degree survived in the user model.
        session2 = engine.start_session(profile, world.stores[0].location)
        assert ("Store", "City") in session2.selection.members
        session2.end()
