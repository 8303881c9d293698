"""Failure-injection tests: broken geo sources, hostile inputs, edge cases."""

import pytest

from repro.data import (
    ADD_SPATIALITY,
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.errors import (
    PersonalizationError,
    PRMLSyntaxError,
    SchemaError,
    StorageError,
)
from repro.geometry import LineString, Point
from repro.personalization import PersonalizationEngine
from repro.storage.snapshot import star_to_dict


class _BrokenGeoSource:
    """A source returning the wrong geometry type for store points."""

    def layer_features(self, layer_name):
        if layer_name == "Airport":
            return [("ALC", Point(0, 0), {})]
        return None

    def level_geometries(self, dimension, level):
        if dimension == "Store" and level == "Store":
            # LINE where POINT was declared by BecomeSpatial.
            return {"anything": LineString([(0, 0), (1, 1)])}
        return None


class _EmptyGeoSource:
    def layer_features(self, layer_name):
        return None

    def level_geometries(self, dimension, level):
        return None


def _tenant_state(engine):
    """What a refused rule must leave as it was: the star's contents,
    its log and generation, and the tenant schema."""
    star = engine.star
    return (
        star_to_dict(star),
        len(star.mutation_log),
        star.generation,
        engine.geomd_schema.to_dict(),
    )


class TestGeoSourceFailures:
    def test_type_mismatch_from_source_is_reported(self, world, user_schema):
        """``BecomeSpatial`` refused after the same rule's ``AddLayer``:
        the layer the rule would have loaded is not loaded either."""
        star = build_sales_star(world)
        first_store = star.dimension_table("Store").members("Store")[0].key
        source = _BrokenGeoSource()
        source.level_geometries = lambda d, l: (  # noqa: E731 - test shim
            {first_store: LineString([(0, 0), (1, 1)])}
            if (d, l) == ("Store", "Store")
            else None
        )
        engine = PersonalizationEngine(star, user_schema, geo_source=source)
        before = _tenant_state(engine)
        # The tenant loads the level's geometries when the rule is
        # registered, so that is where the mismatch is reported.
        with pytest.raises(PersonalizationError, match="declared POINT"):
            engine.add_rule(ADD_SPATIALITY)
        assert engine.rules == []
        member = star.dimension_table("Store").members("Store")[0]
        assert member.geometry is None
        assert _tenant_state(engine) == before
        assert "Airport" not in star.layer_tables

    def test_a_refused_layer_load_writes_nothing(self, world, user_schema):
        """A feature the layer refuses refuses the whole rule before any
        write: no layer is declared, no table made, nothing logged."""
        star = build_sales_star(world)
        source = _BrokenGeoSource()
        source.layer_features = lambda name: [  # noqa: E731 - test shim
            ("ALC", Point(0, 0), {}),
            ("bad", LineString([(0, 0), (1, 1)]), {}),
        ]
        engine = PersonalizationEngine(star, user_schema, geo_source=source)
        before = _tenant_state(engine)
        with pytest.raises(StorageError, match="declared POINT"):
            engine.add_rule(ADD_SPATIALITY)
        assert engine.rules == []
        assert _tenant_state(engine) == before
        assert "Airport" not in engine.geomd_schema.layers

    @pytest.mark.parametrize(
        "actions",
        [
            "AddLayer('Airport', POINT)\n    AddLayer('Airport', LINE)",
            "BecomeSpatial(MD.Sales.Store.geometry, POINT)\n"
            "    BecomeSpatial(MD.Sales.Store.geometry, POLYGON)",
        ],
        ids=["layer", "level"],
    )
    def test_a_rule_that_redeclares_writes_nothing(
        self, world, user_schema, actions
    ):
        """The second action re-declares what the first declares with
        another type: the rule is refused before its first load."""
        engine = PersonalizationEngine(
            build_sales_star(world), user_schema, geo_source=_EmptyGeoSource()
        )
        before = _tenant_state(engine)
        rule = (
            "Rule:twice When SessionStart do\n"
            "  If (SUS.DecisionMaker.dm2role.name='RegionalSalesManager') then\n"
            f"    {actions}\n"
            "  endIf\n"
            "endWhen\n"
        )
        with pytest.raises(SchemaError, match="cannot redeclare"):
            engine.add_rule(rule)
        assert engine.rules == []
        assert _tenant_state(engine) == before

    def test_missing_source_data_leaves_members_bare(self, world, user_schema):
        star = build_sales_star(world)
        engine = PersonalizationEngine(
            star, user_schema, geo_source=_EmptyGeoSource()
        )
        engine.add_rule(ADD_SPATIALITY)
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile)
        # Schema change applied; no geometries backfilled; no crash.
        assert session.context.geomd_schema.is_spatial_level("Store.Store")
        member = star.dimension_table("Store").members("Store")[0]
        assert member.geometry is None
        session.end()

    def test_no_source_at_all(self, world, user_schema):
        star = build_sales_star(world)
        engine = PersonalizationEngine(star, user_schema, geo_source=None)
        engine.add_rule(ADD_SPATIALITY)
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile)
        assert session.context.geomd_schema.is_spatial_level("Store.Store")
        session.end()


class TestHostileInputs:
    def test_malformed_rule_source(self, engine):
        with pytest.raises(PRMLSyntaxError):
            engine.add_rule("Rule: When banana do endWhen")

    def test_malformed_selection_report(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        with pytest.raises(PRMLSyntaxError):
            session.record_spatial_selection("GeoMD.Store.City", "<<<nope")
        session.end()

    def test_selection_with_bad_target_path(self, engine, profile, world):
        session = engine.start_session(profile, world.stores[0].location)
        with pytest.raises(PRMLSyntaxError):
            session.record_spatial_selection("not-a-path!!", "1 < 2")
        session.end()


class TestMultiUser:
    def test_interleaved_sessions_have_independent_selections(
        self, world, star, user_schema
    ):
        engine = PersonalizationEngine(
            star,
            user_schema,
            geo_source=WorldGeoSource(world),
            parameters={"threshold": 3},
        )
        engine.add_rules(ALL_PAPER_RULES.values())

        ana = build_regional_manager_profile(user_schema, name="Ana")
        bea = build_regional_manager_profile(user_schema, name="Bea")
        # Two managers standing at stores of different cities, concurrently
        # (a store location guarantees a non-empty 5 km selection).
        store_a = world.stores[0]
        store_b = next(s for s in world.stores if s.city != store_a.city)
        session_a = engine.start_session(ana, store_a.location)
        session_b = engine.start_session(bea, store_b.location)

        stores_a = session_a.selection.members.get(("Store", "Store"), set())
        stores_b = session_b.selection.members.get(("Store", "Store"), set())
        assert stores_a and stores_b
        assert stores_a != stores_b  # different neighbourhoods

        # Interest accrues per profile, not globally.
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(4):
            session_a.record_spatial_selection("GeoMD.Store.City", condition)
        assert ana.degree("AirportCity") == 4
        assert bea.degree("AirportCity") == 0
        session_a.rerun_instance_rules()
        session_b.rerun_instance_rules()
        assert ("Store", "City") in session_a.selection.members
        assert ("Store", "City") not in session_b.selection.members
        session_a.end()
        session_b.end()

    def test_schema_mutations_are_idempotent_across_users(
        self, world, star, user_schema
    ):
        engine = PersonalizationEngine(
            star,
            user_schema,
            geo_source=WorldGeoSource(world),
            parameters={"threshold": 3},
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        schemas = []
        for name in ("Ana", "Bea", "Cris"):
            profile = build_regional_manager_profile(user_schema, name=name)
            session = engine.start_session(profile, world.cities[0].location)
            schemas.append(session.context.geomd_schema)
            session.end()
        # One shared schema for the three sessions' equal sets.
        assert schemas[0] is schemas[1] is schemas[2]
        assert list(schemas[0].layers) == ["Airport"]
        assert len(star.layer_table("Airport")) == len(world.airports)


class TestEmptyWarehouse:
    def test_rules_over_empty_world(self, user_schema):
        from repro.data import WorldConfig, generate_world

        tiny = generate_world(
            WorldConfig(
                seed=5,
                states_x=1,
                states_y=1,
                cities_per_state=1,
                stores_per_city=1,
                customers_per_city=1,
                airport_city_ratio=1.0,
                train_lines=1,
                cities_per_train_line=2,
                days=2,
                sales=1,
            )
        )
        star = build_sales_star(tiny)
        engine = PersonalizationEngine(
            star,
            user_schema,
            geo_source=WorldGeoSource(tiny),
            parameters={"threshold": 0},
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile, tiny.cities[0].location)
        stats = session.view().stats()
        assert stats["fact_rows_total"] == 1
        session.end()
