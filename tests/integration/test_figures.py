"""Figure regeneration tests — one test class per paper figure.

The paper's evaluation artefacts are Figures 1-6; each class below rebuilds
the corresponding artefact programmatically and asserts its structure, so
"figure regenerated" is a checked property, not a screenshot.  The
benchmarks in ``benchmarks/`` time the same constructions.
"""

import pytest

from repro.data import (
    ALL_PAPER_RULES,
    build_motivating_user_model,
    build_sales_schema,
)
from repro.geomd import GeoMDSchema, GeometricType, geomd_to_uml
from repro.mdm import diff_schemas, schema_to_uml
from repro.prml import (
    AddLayerAction,
    BecomeSpatialAction,
    BinaryOp,
    BinaryOperator,
    ForeachStmt,
    GeomTypeLit,
    IfStmt,
    NumberLit,
    PathExpr,
    QuantityLit,
    Rule,
    SelectInstanceAction,
    SessionEndEvent,
    SessionStartEvent,
    SetContentAction,
    SpatialCall,
    SpatialFunction,
    SpatialSelectionEvent,
    StringLit,
    VarPath,
    parse_rule,
    print_rule,
)
from repro.sus import sus_metamodel
from repro.uml import to_plantuml


class TestFig2MDModel:
    """Fig. 2 — the MD model for sales analysis."""

    def test_uml_rendering_contains_paper_elements(self):
        model = schema_to_uml(build_sales_schema())
        text = to_plantuml(model)
        assert "class Sales <<Fact>>" in text
        for measure in ("UnitSales", "StoreCost", "StoreSales"):
            assert measure in text
        assert "class Store <<Base>>" in text
        assert "Rolls-upTo" not in text.split("class")[0]  # associations render

    def test_structure(self):
        schema = build_sales_schema()
        fact = schema.fact("Sales")
        assert fact.dimension_names == ("Customer", "Store", "Product", "Time")


class TestFig3SUSProfile:
    """Fig. 3 — the UML profile for the Spatial-aware User Model."""

    def test_stereotypes_and_enum(self):
        model = sus_metamodel()
        profile = model.profiles["SUS"]
        assert set(profile.stereotypes) == {
            "User",
            "Session",
            "Characteristic",
            "LocationContext",
            "SpatialSelection",
        }
        assert model.enumerations["GeometricTypes"].literals == (
            "POINT",
            "LINE",
            "POLYGON",
            "COLLECTION",
        )


class TestFig4UserModel:
    """Fig. 4 — the spatial-aware user model of the motivating example."""

    def test_uml_rendering(self):
        model = build_motivating_user_model().to_uml()
        text = to_plantuml(model)
        assert "class DecisionMaker <<User>>" in text
        assert "class AirportCity <<SpatialSelection>>" in text
        assert "degree : Integer" in text
        assert "s2location" in text
        assert "dm2airportcity" in text


class TestFig5PRMLMetamodel:
    """Fig. 5 — the PRML metamodel excerpt: every construct instantiable."""

    def test_all_constructs_instantiable_and_printable(self):
        rule = Rule(
            name="allConstructs",
            event=SpatialSelectionEvent(
                target=PathExpr("GeoMD", ("Store", "City")),
                condition=BinaryOp(
                    BinaryOperator.LT,
                    SpatialCall(
                        SpatialFunction.DISTANCE,
                        (
                            PathExpr("GeoMD", ("Store", "City", "geometry")),
                            PathExpr("GeoMD", ("Airport", "geometry")),
                        ),
                    ),
                    QuantityLit(20, "km"),
                ),
            ),
            body=(
                IfStmt(
                    condition=BinaryOp(
                        BinaryOperator.GT,
                        NumberLit(2),
                        NumberLit(1),
                    ),
                    then_body=(
                        AddLayerAction(StringLit("Train"), GeomTypeLit(GeometricType.LINE)),
                        BecomeSpatialAction(
                            PathExpr("MD", ("Sales", "Store", "geometry")),
                            GeomTypeLit(GeometricType.POINT),
                        ),
                        ForeachStmt(
                            variables=("s",),
                            sources=(PathExpr("GeoMD", ("Store",)),),
                            body=(SelectInstanceAction(VarPath("s")),),
                        ),
                        SetContentAction(
                            PathExpr(
                                "SUS",
                                ("DecisionMaker", "dm2airportcity", "degree"),
                            ),
                            NumberLit(1),
                        ),
                    ),
                    else_body=(),
                ),
            ),
        )
        text = print_rule(rule)
        assert parse_rule(text) == rule

    def test_all_spatial_operators_exist(self):
        names = {fn.value for fn in SpatialFunction}
        assert names == {
            "Intersect",
            "Disjoint",
            "Cross",
            "Inside",
            "Equals",
            "Distance",
            "Intersection",
        }

    def test_all_event_kinds_exist(self):
        assert SessionStartEvent() is not None
        assert SessionEndEvent() is not None


class TestFig6GeoMDModel:
    """Fig. 6 — the GeoMD model obtained after the schema rules."""

    @pytest.fixture()
    def fig6(self, engine, profile, world):
        # The schema rules fire at SessionStart (Example 5.1); the Train
        # layer appears once interest passed the threshold (Example 5.3).
        session = engine.start_session(profile, world.stores[0].location)
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(4):
            session.record_spatial_selection("GeoMD.Store.City", condition)
        session.rerun_instance_rules()
        schema = session.context.geomd_schema
        session.end()
        return schema

    def test_store_is_spatial_level(self, fig6):
        assert fig6.is_spatial_level("Store.Store")
        assert fig6.level_geometric_type("Store.Store") is GeometricType.POINT

    def test_airport_and_train_layers(self, fig6):
        assert fig6.layer("Airport").geometric_type is GeometricType.POINT
        assert fig6.layer("Train").geometric_type is GeometricType.LINE

    def test_diff_from_fig2(self, fig6):
        diff = diff_schemas(GeoMDSchema.from_md(build_sales_schema()), fig6)
        assert set(diff.added_layers) == {"Airport", "Train"}
        assert set(diff.spatialized_levels) == {"Store.Store", "Store.City"}
        assert not diff.removed_levels
        assert not diff.added_facts

    def test_uml_rendering(self, fig6):
        text = to_plantuml(geomd_to_uml(fig6))
        assert "class Store <<SpatialLevel>>" in text
        assert "class Airport <<Layer>>" in text
        assert "class Train <<Layer>>" in text


class TestFig1Process:
    """Fig. 1 — the end-to-end spatial personalization process."""

    def test_md_to_geomd_to_instances(self, engine, profile, world):
        base = GeoMDSchema.from_md(build_sales_schema())
        assert not base.layers and not base.spatial_levels

        session = engine.start_session(profile, world.stores[0].location)
        view = session.view()
        # Step 1 (schema rules): spatiality was added.
        assert session.context.geomd_schema.layers
        assert session.context.geomd_schema.spatial_levels
        # Step 2 (instance rules): the instance got personalized.
        assert view.is_restricted
        assert 0 < len(view.fact_rows) < view.stats()["fact_rows_total"]
        session.end()

    def test_paper_rules_drive_the_whole_process(self, engine):
        assert {r.rule.name for r in engine.rules} == set(ALL_PAPER_RULES)
