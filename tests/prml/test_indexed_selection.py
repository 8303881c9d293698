"""Example 5.2's rule shape answered from the envelope index.

A ``Foreach`` that selects the members of one level within a distance
of a fixed geometry runs from the star's cached envelope columns when
``star.use_indexes`` is on.  It must be a pure speedup: every test runs
the same rule with the index on and off (the interpreted loop) and
compares the selection, its generation and fingerprint, and every
:class:`RuleOutcome` field — or, where the loop raises, the error and
the selection it left behind.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import (
    ADD_CITY_SPATIALITY,
    ADD_SPATIALITY,
    FIVE_KM_STORES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.data.sales_schema import build_sales_schema
from repro.errors import ReproError
from repro.geomd import GeoMDSchema
from repro.geometry import GeometryCollection, HaversineMetric, PlanarMetric, Point
from repro.geometry import distance as planar_distance
from repro.prml import Evaluator, RuntimeContext, parse_rule
from repro.prml import evaluator as evaluator_module
from repro.storage import StarSchema

LOCATION = "SUS.DecisionMaker.dm2session.s2location.geometry"

USER_SCHEMA = build_motivating_user_model()


def nearby_rule(level="GeoMD.Store", op="<", member_first=True, threshold="radius"):
    arguments = ("s.geometry", LOCATION) if member_first else (LOCATION, "s.geometry")
    return parse_rule(
        f"Rule:near When SessionStart do "
        f"Foreach s in ({level}) "
        f"If (Distance({arguments[0]}, {arguments[1]}) {op} {threshold}) then "
        f"SelectInstance(s) endIf endForeach endWhen"
    )


def spatialize(star, world):
    """The paper's schema rules: Store and City become spatial."""
    context = RuntimeContext(
        user_profile=build_regional_manager_profile(USER_SCHEMA),
        md_schema=star.schema,
        geomd_schema=star.schema,
        star=star,
        geo_source=WorldGeoSource(world),
    )
    evaluator = Evaluator(context)
    evaluator.execute(parse_rule(ADD_SPATIALITY))
    evaluator.execute(parse_rule(ADD_CITY_SPATIALITY))
    return star


@pytest.fixture(scope="module")
def spatial_star(world):
    return spatialize(build_sales_star(world), world)


def run(star, rule, use_indexes, location=None, parameters=None, metric=None):
    """Execute ``rule`` in a fresh session: ``(outcome fields, error,
    selection)``, the error as ``(type name, message)``."""
    profile = build_regional_manager_profile(USER_SCHEMA)
    profile.open_session(location)
    context = RuntimeContext(
        user_profile=profile,
        md_schema=star.schema,
        geomd_schema=star.schema,
        star=star,
        parameters=dict(parameters or {}),
        metric=metric or PlanarMetric(),
    )
    saved = star.use_indexes
    star.use_indexes = use_indexes
    try:
        outcome = dataclasses.asdict(Evaluator(context).execute(rule))
        error = None
    except ReproError as exc:
        outcome, error = None, (type(exc).__name__, str(exc))
    finally:
        star.use_indexes = saved
    return outcome, error, context.selection


def assert_same_as_loop(star, rule, **kwargs):
    """Run ``rule`` indexed and interpreted; both must agree exactly."""
    indexed = run(star, rule, True, **kwargs)
    loop = run(star, rule, False, **kwargs)
    assert indexed[0] == loop[0]
    assert indexed[1] == loop[1]
    assert indexed[2].members == loop[2].members
    assert indexed[2].generation == loop[2].generation
    assert indexed[2].fingerprint() == loop[2].fingerprint()
    return loop


@pytest.fixture()
def index_calls(monkeypatch):
    """Whether each Foreach took the indexed path (True) or the loop."""
    calls = []
    original = Evaluator._select_nearby_with_index

    def spy(self, stmt, env, outcome):
        taken = original(self, stmt, env, outcome)
        calls.append(taken)
        return taken

    monkeypatch.setattr(Evaluator, "_select_nearby_with_index", spy)
    return calls


@st.composite
def nearby_cases(draw, stores):
    """A login location, a radius, a comparison and an argument order.

    Radii are drawn freely or set to a store's exact distance from the
    location, the boundary where ``<`` and ``<=`` differ.
    """
    anchor = draw(st.sampled_from(stores)).location
    offset = draw(
        st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(
                st.floats(-20_000, 20_000, allow_nan=False),
                st.floats(-20_000, 20_000, allow_nan=False),
            ),
        )
    )
    location = Point(anchor.x + offset[0], anchor.y + offset[1])
    member_first = draw(st.booleans())
    boundary = draw(st.sampled_from(stores)).location
    exact = (
        planar_distance(boundary, location)
        if member_first
        else planar_distance(location, boundary)
    )
    radius = draw(
        st.one_of(st.just(exact), st.just(0.0), st.floats(0, 60_000, allow_nan=False))
    )
    level = draw(st.sampled_from(["GeoMD.Store", "GeoMD.Store.City"]))
    op = draw(st.sampled_from(["<", "<="]))
    return location, radius, level, op, member_first


class TestDifferential:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_indexed_equals_loop(self, spatial_star, world, index_calls, data):
        location, radius, level, op, member_first = data.draw(
            nearby_cases(world.stores)
        )
        assert_same_as_loop(
            spatial_star,
            nearby_rule(level, op, member_first),
            location=location,
            parameters={"radius": radius},
        )
        assert index_calls[-2:] == [True, False]

    @pytest.mark.parametrize("op, kept", [("<", False), ("<=", True)])
    def test_radius_equal_to_a_store_distance(
        self, spatial_star, world, index_calls, op, kept
    ):
        store, other = world.stores[0], world.stores[1]
        radius = planar_distance(other.location, store.location)
        outcome, error, selection = assert_same_as_loop(
            spatial_star,
            nearby_rule(op=op),
            location=store.location,
            parameters={"radius": radius},
        )
        assert error is None
        assert index_calls == [True, False]
        keys = selection.members[("Store", "Store")]
        assert (other.name in keys) is kept
        assert outcome["iterations"] == len(world.stores)


class TestPaperRule:
    def test_5km_stores_takes_the_indexed_path(
        self, engine, profile, world, index_calls, monkeypatch
    ):
        measured = []
        real_distance = evaluator_module.prml_distance

        def counting_distance(args, metric):
            measured.append(args)
            return real_distance(args, metric)

        monkeypatch.setattr(evaluator_module, "prml_distance", counting_distance)
        location = world.stores[0].location
        indexed = engine.start_session(profile, location)
        assert index_calls == [True]
        # One probe and the envelope candidates, not every store.
        assert 0 < len(measured) < len(world.stores) // 4

        engine.star.use_indexes = False
        loop = engine.start_session(profile, location)
        assert index_calls == [True, False]
        assert len(measured) > len(world.stores)

        def five_km(session):
            (outcome,) = [o for o in session.outcomes if o.rule_name == "5kmStores"]
            return dataclasses.asdict(outcome)

        assert five_km(indexed) == five_km(loop)
        assert five_km(indexed)["selected_instances"] > 0
        assert indexed.selection.members == loop.selection.members
        assert indexed.selection.fingerprint() == loop.selection.fingerprint()

    def test_paper_rule_text_matches_the_shape(self):
        (stmt,) = parse_rule(FIVE_KM_STORES).body
        shape = evaluator_module._nearby_selection(stmt)
        assert shape is not None and shape.member_first


class TestFallbacks:
    """Preconditions that fail send the rule through the loop, which
    gives exactly its own outcome or error."""

    def test_member_without_geometry(self, world, index_calls):
        star = spatialize(build_sales_star(world), world)
        table = star.dimension_table("Store")
        stripped = table.members("Store")[len(world.stores) // 2]
        del stripped.attributes["geometry"]
        star.note_member_change("Store", op="update")
        # Wide enough that members before the bare one are selected
        # before the loop raises.
        _outcome, error, selection = assert_same_as_loop(
            star,
            nearby_rule(),
            location=world.stores[0].location,
            parameters={"radius": 10_000_000.0},
        )
        assert error[0] == "PRMLRuntimeError" and stripped.key in error[1]
        assert selection.member_count() > 0
        assert index_calls == [False, False]

    def test_member_geometry_that_is_not_a_geometry(self, world, index_calls):
        star = spatialize(build_sales_star(world), world)
        table = star.dimension_table("Store")
        broken = table.members("Store")[len(world.stores) // 2]
        broken.attributes["geometry"] = "POINT (0 0)"
        star.note_member_change("Store", op="update")
        _outcome, error, selection = assert_same_as_loop(
            star,
            nearby_rule(),
            location=world.stores[0].location,
            parameters={"radius": 10_000_000.0},
        )
        assert error[0] == "StorageError" and broken.key in error[1]
        assert selection.member_count() > 0
        assert index_calls == [False, False]

    def test_target_distance_cannot_measure(self, spatial_star, index_calls):
        """A target with an empty part: Distance raises on the first
        member, before the loop reads the threshold."""
        rule = parse_rule(
            "Rule:near When SessionStart do Foreach s in (GeoMD.Store) "
            "If (Distance(s.geometry, target) < radius) then "
            "SelectInstance(s) endIf endForeach endWhen"
        )
        target = GeometryCollection((Point(-1e7, -1e7), GeometryCollection(())))
        _outcome, error, selection = assert_same_as_loop(
            spatial_star, rule, parameters={"target": target, "radius": 5000.0}
        )
        assert error[0] == "GeometryError"
        assert selection.is_empty
        assert index_calls == [False, False]

    def test_session_without_location(self, spatial_star, index_calls):
        _outcome, error, selection = assert_same_as_loop(
            spatial_star, nearby_rule(), parameters={"radius": 5000.0}
        )
        assert error is not None
        assert selection.is_empty
        assert index_calls == [False, False]

    def test_haversine_metric(self, spatial_star, world, index_calls):
        outcome, error, _selection = assert_same_as_loop(
            spatial_star,
            nearby_rule(),
            location=world.stores[0].location,
            parameters={"radius": 5000.0},
            metric=HaversineMetric(),
        )
        assert error is None
        assert outcome["iterations"] == len(world.stores)
        assert index_calls == [False, False]

    def test_non_numeric_threshold(self, spatial_star, world, index_calls):
        _outcome, error, selection = assert_same_as_loop(
            spatial_star,
            nearby_rule(),
            location=world.stores[0].location,
            parameters={"radius": "far"},
        )
        assert error[0] == "PRMLRuntimeError" and "ordering comparison" in error[1]
        assert selection.is_empty
        assert index_calls == [False, False]

    def test_empty_level(self, index_calls):
        star = StarSchema(GeoMDSchema.from_md(build_sales_schema()))
        # No location either: the loop never evaluates the condition.
        outcome, error, selection = assert_same_as_loop(
            star, nearby_rule(), parameters={"radius": 5000.0}
        )
        assert error is None
        assert outcome["iterations"] == 0
        assert selection.is_empty
        assert index_calls == [False, False]

    def test_greater_than_comparison(self, spatial_star, world, index_calls):
        outcome, error, _selection = assert_same_as_loop(
            spatial_star,
            nearby_rule(op=">"),
            location=world.stores[0].location,
            parameters={"radius": 200_000.0},
        )
        assert error is None
        assert outcome["selected_instances"] > 0
        assert index_calls == [False, False]
