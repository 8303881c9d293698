"""Tests for the personalization engine (phases, sessions, matching)."""

import pytest

from repro.data import (
    ADD_SPATIALITY,
    FIVE_KM_STORES,
    INT_AIRPORT_CITY,
    TRAIN_AIRPORT_CITY,
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_schema,
)
from repro.errors import PersonalizationError, PRMLSemanticError
from repro.mdm import MDSchema
from repro.personalization import (
    PersonalizationEngine,
    RulePhase,
    classify_rule,
)
from repro.prml import parse_rule
from repro.storage import StarSchema


class TestClassification:
    def test_schema_rule(self):
        assert classify_rule(parse_rule(ADD_SPATIALITY)) is RulePhase.SCHEMA

    def test_instance_rule(self):
        assert classify_rule(parse_rule(FIVE_KM_STORES)) is RulePhase.INSTANCE

    def test_acquisition_rule(self):
        assert classify_rule(parse_rule(INT_AIRPORT_CITY)) is RulePhase.ACQUISITION

    def test_mixed_rule_is_instance(self):
        # TrainAirportCity has AddLayer AND SelectInstance -> instance phase.
        assert classify_rule(parse_rule(TRAIN_AIRPORT_CITY)) is RulePhase.INSTANCE


class TestRegistration:
    def test_duplicate_name_rejected(self, engine):
        with pytest.raises(PersonalizationError, match="duplicate"):
            engine.add_rule(ADD_SPATIALITY)

    def test_semantic_validation_runs(self, world, star, user_schema):
        engine = PersonalizationEngine(
            star, user_schema, geo_source=WorldGeoSource(world)
        )
        with pytest.raises(PRMLSemanticError):
            engine.add_rule(
                "Rule:bad When SessionStart do "
                "BecomeSpatial(MD.Sales.Galaxy.geometry, POINT) endWhen"
            )

    def test_phase_override(self, world, star, user_schema):
        engine = PersonalizationEngine(
            star, user_schema, geo_source=WorldGeoSource(world)
        )
        registered = engine.add_rule(ADD_SPATIALITY, phase=RulePhase.INSTANCE)
        assert registered.phase is RulePhase.INSTANCE

    def test_rule_lookup(self, engine):
        assert engine.rule("addSpatiality").phase is RulePhase.SCHEMA
        with pytest.raises(PersonalizationError):
            engine.rule("ghost")

    def test_requires_geomd_star(self, user_schema):
        md_star = StarSchema(MDSchema.from_dict(build_sales_schema().to_dict()))
        with pytest.raises(PersonalizationError, match="GeoMD"):
            PersonalizationEngine(md_star, user_schema)


class TestSessionLifecycle:
    def test_schema_rules_run_before_instance_rules(self, engine, profile, world):
        session = engine.start_session(
            profile, location=world.stores[0].location
        )
        names = [o.rule_name for o in session.outcomes]
        assert names.index("addSpatiality") < names.index("5kmStores")
        session.end()

    def test_double_end_rejected(self, engine, profile):
        session = engine.start_session(profile)
        session.end()
        with pytest.raises(PersonalizationError):
            session.end()

    def test_closed_session_rejects_selection(self, engine, profile):
        session = engine.start_session(profile)
        session.end()
        with pytest.raises(PersonalizationError):
            session.record_spatial_selection("GeoMD.Store.City", "1 < 2")

    def test_view_without_selection_keeps_everything(
        self, world, star, user_schema
    ):
        engine = PersonalizationEngine(
            star, user_schema, geo_source=WorldGeoSource(world)
        )
        engine.add_rule(ADD_SPATIALITY)  # schema-only personalization
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile)
        view = session.view()
        assert not view.is_restricted
        assert view.stats()["fact_rows_kept"] == view.stats()["fact_rows_total"]
        session.end()

    def test_unauthorized_role_gets_no_spatiality(
        self, engine, profile, user_schema, world
    ):
        location = world.stores[0].location
        # A regional manager's session first, on the same engine.
        engine.start_session(profile, location).end()
        analyst = build_regional_manager_profile(user_schema, name="Plain User")
        analyst.set("DecisionMaker.dm2role.name", "Analyst")
        session = engine.start_session(analyst, location)
        schema = session.context.geomd_schema
        assert schema.layers == {}
        assert schema.spatial_levels == {}
        five_km = next(o for o in session.outcomes if o.rule_name == "5kmStores")
        assert five_km.selected_instances == 0
        assert session.selection.is_empty
        session.end()


class TestSpatialSelectionMatching:
    CONDITION = (
        "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
    )

    def test_matching_event_fires_rule(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        outcomes = session.record_spatial_selection(
            "GeoMD.Store.City", self.CONDITION
        )
        assert [o.rule_name for o in outcomes] == ["IntAirportCity"]
        assert profile.degree("AirportCity") == 1
        session.end()

    def test_formatting_insensitive_matching(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        spaced = (
            "Distance( GeoMD.Store.City.geometry ,\n"
            "          GeoMD.Airport.geometry ) < 20km"
        )
        outcomes = session.record_spatial_selection("GeoMD.Store.City", spaced)
        assert len(outcomes) == 1
        session.end()

    def test_non_matching_event_ignored(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        outcomes = session.record_spatial_selection(
            "GeoMD.Store.City",
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<25km",
        )
        assert outcomes == []
        assert profile.degree("AirportCity") == 0
        session.end()

    def test_wrong_target_ignored(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        outcomes = session.record_spatial_selection(
            "GeoMD.Store", self.CONDITION
        )
        assert outcomes == []
        session.end()

    def test_event_pattern_canonicalized_at_registration(self, engine):
        """Acquisition rules carry their canonical event pattern so a
        selection report compares strings instead of re-printing ASTs."""
        registered = engine.rule("IntAirportCity")
        assert registered.event_target == "GeoMD.Store.City"
        assert registered.event_condition is not None
        assert "20" in registered.event_condition
        schema_rule = next(
            r for r in engine.rules if r.phase is not RulePhase.ACQUISITION
        )
        assert schema_rule.event_target is None
        assert schema_rule.event_condition is None


class TestDisabledRules:
    def test_disabled_rule_skipped(self, engine, profile, world):
        engine.rule("5kmStores").enabled = False
        session = engine.start_session(profile, world.stores[0].location)
        names = [o.rule_name for o in session.outcomes]
        assert "5kmStores" not in names
        session.end()
