"""Tests for PRML rule evaluation against a runtime context."""

import pytest

from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
)
from repro.errors import PRMLRuntimeError
from repro.geometry import Point
from repro.personalization import PersonalizationEngine
from repro.prml import Evaluator, RuntimeContext, SelectionSet, parse_rule
from repro.storage.snapshot import star_to_dict

#: What the schema actions below name, loaded into the star the way rule
#: registration loads it (Airport and Train from the world, Store's
#: geometries; Rivers, A and B have no source data).
LOADED = [
    f"Rule:load{index} When SessionStart do {action} endWhen"
    for index, action in enumerate(
        [
            "AddLayer('Airport', POINT)",
            "AddLayer('Train', LINE)",
            "AddLayer('Rivers', LINE)",
            "AddLayer('A', POINT)",
            "AddLayer('B', POINT)",
            "BecomeSpatial(MD.Sales.Store.geometry, POINT)",
        ]
    )
]


@pytest.fixture()
def context(world, star, user_schema):
    engine = PersonalizationEngine(
        star, user_schema, geo_source=WorldGeoSource(world)
    )
    engine.add_rules(LOADED)
    profile = build_regional_manager_profile(user_schema)
    profile.open_session(Point(0.0, 0.0))
    return RuntimeContext(
        user_profile=profile,
        md_schema=engine.schemas.base,
        geomd_schema=engine.schemas.base,
        star=star,
        parameters={"threshold": 3},
        schemas=engine.schemas,
    )


def run(context, source):
    return Evaluator(context).execute(parse_rule(source))


class TestSchemaActions:
    def test_add_layer_populates_from_source(self, context, world):
        outcome = run(
            context,
            "Rule:r When SessionStart do AddLayer('Airport', POINT) endWhen",
        )
        assert outcome.layers_added == ["Airport"]
        assert "Airport" in context.geomd_schema.layers
        table = context.star.layer_table("Airport")
        assert len(table) == len(world.airports)

    def test_schema_actions_write_nothing(self, context):
        """They switch the context to a shared schema; the star stays
        as registration left it."""
        before, generation = star_to_dict(context.star), context.star.generation
        base = context.geomd_schema
        run(
            context,
            "Rule:r When SessionStart do AddLayer('Airport', POINT) "
            "BecomeSpatial(MD.Sales.Store.geometry, POINT) endWhen",
        )
        assert context.schema_set == ("layer:Airport", "level:Store.Store")
        assert context.geomd_schema is not base
        assert not base.layers and not base.spatial_levels
        assert context.star.generation == generation
        assert star_to_dict(context.star) == before

    def test_unloaded_layer_is_a_runtime_error(self, context):
        with pytest.raises(PRMLRuntimeError, match="not loaded"):
            run(
                context,
                "Rule:r When SessionStart do AddLayer('Highway', LINE) endWhen",
            )

    def test_add_layer_without_source_data(self, context):
        outcome = run(
            context,
            "Rule:r When SessionStart do AddLayer('Rivers', LINE) endWhen",
        )
        assert outcome.layers_added == ["Rivers"]
        assert len(context.star.layer_table("Rivers")) == 0

    def test_become_spatial_backfills_geometries(self, context):
        outcome = run(
            context,
            "Rule:r When SessionStart do "
            "BecomeSpatial(MD.Sales.Store.geometry, POINT) endWhen",
        )
        assert outcome.levels_spatialized == ["Store.Store"]
        member = context.star.dimension_table("Store").members("Store")[0]
        assert member.geometry is not None
        assert context.geomd_schema.is_spatial_level("Store.Store")

    def test_become_spatial_unknown_level(self, context):
        with pytest.raises(PRMLRuntimeError):
            run(
                context,
                "Rule:r When SessionStart do "
                "BecomeSpatial(MD.Sales.Nebula.geometry, POINT) endWhen",
            )


class TestConditions:
    def test_role_condition_gates_actions(self, context):
        source = (
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.dm2role.name='Intern') then "
            "AddLayer('Airport', POINT) endIf endWhen"
        )
        outcome = run(context, source)
        assert outcome.fired_actions == 0

    def test_else_branch(self, context):
        source = (
            "Rule:r When SessionStart do "
            "If (SUS.DecisionMaker.dm2role.name='Intern') then "
            "AddLayer('A', POINT) else AddLayer('B', POINT) endIf endWhen"
        )
        outcome = run(context, source)
        assert outcome.layers_added == ["B"]

    def test_non_boolean_condition_rejected(self, context):
        with pytest.raises(PRMLRuntimeError, match="boolean"):
            run(
                context,
                "Rule:r When SessionStart do "
                "If (1 + 1) then AddLayer('A', POINT) endIf endWhen",
            )

    def test_logical_short_circuit(self, context):
        # The right operand would fail (unset value); 'and' short-circuits.
        source = (
            "Rule:r When SessionStart do "
            "If (1 > 2 and SUS.DecisionMaker.dm2session.s2location.geometry = 1) "
            "then AddLayer('A', POINT) endIf endWhen"
        )
        outcome = run(context, source)
        assert outcome.fired_actions == 0

    def test_parameter_resolution(self, context):
        source = (
            "Rule:r When SessionStart do "
            "If (threshold = 3) then AddLayer('A', POINT) endIf endWhen"
        )
        assert run(context, source).fired_actions == 1

    def test_missing_parameter(self, context):
        context.parameters = {}
        with pytest.raises(PRMLRuntimeError, match="parameter"):
            run(
                context,
                "Rule:r When SessionStart do "
                "If (threshold = 3) then AddLayer('A', POINT) endIf endWhen",
            )

    def test_division_by_zero(self, context):
        with pytest.raises(PRMLRuntimeError, match="division"):
            run(
                context,
                "Rule:r When SessionStart do "
                "If (1 / 0 > 1) then AddLayer('A', POINT) endIf endWhen",
            )


class TestForeachAndSelection:
    def _spatialize_stores(self, context):
        run(
            context,
            "Rule:setup When SessionStart do "
            "BecomeSpatial(MD.Sales.Store.geometry, POINT) endWhen",
        )

    def test_foreach_iterates_level(self, context):
        self._spatialize_stores(context)
        outcome = run(
            context,
            "Rule:r When SessionStart do "
            "Foreach s in (GeoMD.Store) SelectInstance(s) endForeach endWhen",
        )
        n_stores = len(context.star.dimension_table("Store").members("Store"))
        assert outcome.iterations == n_stores
        assert outcome.selected_instances == n_stores

    def test_distance_filtered_selection(self, context):
        self._spatialize_stores(context)
        # Put the user exactly at the first store.
        first = context.star.dimension_table("Store").members("Store")[0]
        context.user_profile.close_session()
        context.user_profile.open_session(first.geometry)
        outcome = run(
            context,
            "Rule:r When SessionStart do Foreach s in (GeoMD.Store) "
            "If (Distance(s.geometry, "
            "SUS.DecisionMaker.dm2session.s2location.geometry) < 1m) then "
            "SelectInstance(s) endIf endForeach endWhen",
        )
        assert outcome.selected_instances == 1
        assert context.selection.members[("Store", "Store")] == {first.key}

    def test_cartesian_product(self, context):
        run(
            context,
            "Rule:a When SessionStart do AddLayer('Airport', POINT) endWhen",
        )
        run(
            context,
            "Rule:t When SessionStart do AddLayer('Train', LINE) endWhen",
        )
        outcome = run(
            context,
            "Rule:r When SessionStart do "
            "Foreach t, a in (GeoMD.Train, GeoMD.Airport) "
            "SelectInstance(a) endForeach endWhen",
        )
        n_trains = len(context.star.layer_table("Train"))
        n_airports = len(context.star.layer_table("Airport"))
        assert outcome.iterations == n_trains * n_airports

    def test_member_geometry_missing_error(self, context):
        # The session has not made Store spatial (although the star holds
        # the geometries): s.geometry must fail clearly.
        with pytest.raises(PRMLRuntimeError, match="no geometry"):
            run(
                context,
                "Rule:r When SessionStart do Foreach s in (GeoMD.Store) "
                "If (Distance(s.geometry, s.geometry) < 1m) then "
                "SelectInstance(s) endIf endForeach endWhen",
            )

    def test_feature_selection(self, context):
        run(
            context,
            "Rule:a When SessionStart do AddLayer('Airport', POINT) endWhen",
        )
        outcome = run(
            context,
            "Rule:r When SessionStart do Foreach a in (GeoMD.Airport) "
            "SelectInstance(a) endForeach endWhen",
        )
        assert outcome.selected_instances == len(
            context.star.layer_table("Airport")
        )
        assert "Airport" in context.selection.features


class TestSetContent:
    def test_increment(self, context):
        source = (
            "Rule:r When SessionStart do "
            "SetContent(SUS.DecisionMaker.dm2airportcity.degree, "
            "SUS.DecisionMaker.dm2airportcity.degree+1) endWhen"
        )
        run(context, source)
        run(context, source)
        assert context.user_profile.degree("AirportCity") == 2

    def test_set_string(self, context):
        run(
            context,
            "Rule:r When SessionStart do "
            "SetContent(SUS.DecisionMaker.name, 'Maria') endWhen",
        )
        assert context.user_profile.get("DecisionMaker.name") == "Maria"

    def test_md_target_rejected(self, context):
        with pytest.raises(PRMLRuntimeError, match="SUS path"):
            run(
                context,
                "Rule:r When SessionStart do "
                "SetContent(MD.Sales.Store.name, 'X') endWhen",
            )


class TestSelectionSet:
    def test_fact_rows_unrestricted_when_empty(self, star):
        selection = SelectionSet()
        assert selection.is_empty
        assert len(selection.fact_row_ids(star)) == len(star.fact_table())

    def test_fact_rows_filtered_by_leaf_member(self, star):
        selection = SelectionSet()
        key = star.fact_table().key_column("Store")[0]
        selection.add_member("Store", "Store", key)
        rows = selection.fact_row_ids(star)
        assert 0 < len(rows) < len(star.fact_table())
        column = star.fact_table().key_column("Store")
        assert all(column[row] == key for row in rows)

    def test_union_across_levels(self, star):
        selection = SelectionSet()
        store_key = star.fact_table().key_column("Store")[0]
        other_city = star.rollup_member(
            "Store", star.fact_table().key_column("Store")[1], "City"
        ).key
        selection.add_member("Store", "Store", store_key)
        only_store = len(selection.fact_row_ids(star))
        selection.add_member("Store", "City", other_city)
        both = len(selection.fact_row_ids(star))
        assert both >= only_store

    def test_intersection_across_dimensions(self, star):
        selection = SelectionSet()
        store_key = star.fact_table().key_column("Store")[0]
        selection.add_member("Store", "Store", store_key)
        store_only = len(selection.fact_row_ids(star))
        customer_key = star.fact_table().key_column("Customer")[0]
        selection.add_member("Customer", "Customer", customer_key)
        both = len(selection.fact_row_ids(star))
        assert both <= store_only
