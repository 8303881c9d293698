"""Tests for topological hierarchy constraints over warehouse instances."""

import pytest

from repro.geomd import (
    GeoMDSchema,
    GeometricType,
    HierarchyConstraint,
    TopologicalRelation,
    check_constraint,
)
from repro.geometry import Point, Polygon
from repro.mdm.model import Dimension, Fact, Hierarchy, Level, Measure
from repro.storage import StarSchema
from repro.uml.core import INTEGER


def _geo_star():
    dim = Dimension(
        "Store",
        [Level("Store"), Level("City")],
        [Hierarchy("geo", ["Store", "City"])],
        leaf="Store",
    )
    fact = Fact("Sales", ["Store"], [Measure("units", INTEGER)])
    schema = GeoMDSchema("S", [dim], [fact])
    schema.become_spatial("Store.Store", GeometricType.POINT)
    schema.become_spatial("Store.City", GeometricType.POLYGON)
    star = StarSchema(schema)
    city_poly = Polygon([(0, 0), (100, 0), (100, 100), (0, 100)])
    star.add_member("Store", "City", "Alicante", {"geometry": city_poly})
    star.add_member(
        "Store", "Store", "S1", {"geometry": Point(50, 50)}, parents={"City": "Alicante"}
    )
    star.add_member(
        "Store", "Store", "S2", {"geometry": Point(500, 500)}, parents={"City": "Alicante"}
    )
    return star


class TestRelations:
    def test_within(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert TopologicalRelation.WITHIN.check(Point(5, 5), poly)
        assert not TopologicalRelation.WITHIN.check(Point(50, 50), poly)

    def test_disjoint(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert TopologicalRelation.DISJOINT.check(Point(50, 50), poly)

    def test_contains(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert TopologicalRelation.CONTAINS.check(poly, Point(5, 5))


class TestCheckConstraint:
    def test_violations_found(self):
        star = _geo_star()
        constraint = HierarchyConstraint(
            "Store", "Store", "City", TopologicalRelation.WITHIN
        )
        violations = check_constraint(star, constraint)
        assert len(violations) == 1
        assert violations[0].child_member == "S2"
        assert "within" in str(violations[0])

    def test_missing_geometry_is_violation(self):
        star = _geo_star()
        star.add_member(
            "Store", "Store", "S3", parents={"City": "Alicante"}
        )  # no geometry
        constraint = HierarchyConstraint(
            "Store", "Store", "City", TopologicalRelation.WITHIN
        )
        violations = check_constraint(star, constraint)
        assert {v.child_member for v in violations} == {"S2", "S3"}

    def test_generated_world_stores_within_states(self, world, star):
        """The synthetic world respects Store-within-State by construction."""
        star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            {store.name: store.location for store in world.stores},
        )
        star.become_spatial(
            "Store.State",
            GeometricType.POLYGON,
            {state.name: state.polygon for state in world.states},
        )
        constraint = HierarchyConstraint(
            "Store", "Store", "State", TopologicalRelation.WITHIN
        )
        # Stores are gaussian-spread around cities; the vast majority must
        # fall inside their state cell (a few may spill over the border).
        violations = check_constraint(star, constraint)
        assert len(violations) < len(world.stores) * 0.2
