"""Property-based tests for OLAP aggregation invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geomd import GeoMDSchema
from repro.mdm import Aggregator, Dimension, Fact, Hierarchy, Level, Measure
from repro.olap import AggSpec, CubeQuery, LevelRef, execute
from repro.storage import StarSchema
from repro.uml.core import REAL


def _tiny_star(fact_rows):
    """A 2-level dimension star filled with the given (group, value) rows."""
    dim = Dimension(
        "D",
        [Level("D"), Level("G")],
        [Hierarchy("h", ["D", "G"])],
        leaf="D",
    )
    fact = Fact("F", ["D"], [Measure("v", REAL)])
    schema = GeoMDSchema("S", [dim], [fact])
    star = StarSchema(schema)
    groups = sorted({g for g, _v in fact_rows})
    for g in groups:
        star.add_member("D", "G", f"g{g}")
    leaves = sorted({(g, i) for i, (g, _v) in enumerate(fact_rows)})
    for g, i in leaves:
        star.add_member("D", "D", f"d{i}", parents={"G": f"g{g}"})
    for i, (g, v) in enumerate(fact_rows):
        star.insert_fact("F", {"D": f"d{i}"}, {"v": v})
    return star


values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    lambda v: round(v, 4)
)
fact_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), values),
    min_size=1,
    max_size=40,
)


class TestAggregationInvariants:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows)
    def test_group_sums_equal_total(self, rows):
        star = _tiny_star(rows)
        total = execute(
            star, CubeQuery("F", [AggSpec(Aggregator.SUM, "v")])
        ).value(())
        grouped = execute(
            star,
            CubeQuery(
                "F",
                [AggSpec(Aggregator.SUM, "v")],
                group_by=[LevelRef("D", "G")],
            ),
        )
        assert sum(v[0] for v in grouped.cells.values()) == pytest.approx(
            total, abs=1e-6
        )

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows)
    def test_count_partitions(self, rows):
        star = _tiny_star(rows)
        grouped = execute(
            star,
            CubeQuery(
                "F",
                [AggSpec(Aggregator.COUNT, "*")],
                group_by=[LevelRef("D", "G")],
            ),
        )
        assert sum(v[0] for v in grouped.cells.values()) == len(rows)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows)
    def test_min_max_bound_avg(self, rows):
        star = _tiny_star(rows)
        result = execute(
            star,
            CubeQuery(
                "F",
                [
                    AggSpec(Aggregator.MIN, "v"),
                    AggSpec(Aggregator.AVG, "v"),
                    AggSpec(Aggregator.MAX, "v"),
                ],
            ),
        )
        lo = result.value((), "MIN(v)")
        avg = result.value((), "AVG(v)")
        hi = result.value((), "MAX(v)")
        assert lo - 1e-9 <= avg <= hi + 1e-9

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows, st.integers(min_value=0, max_value=2**31))
    def test_selection_order_irrelevant(self, rows, seed):
        star = _tiny_star(rows)
        ids = list(range(len(rows)))
        random.Random(seed).shuffle(ids)
        query = CubeQuery("F", [AggSpec(Aggregator.SUM, "v")])
        in_order = execute(star, query, selection=range(len(rows)))
        shuffled = execute(star, query, selection=ids)
        # Float addition is not associative: compare cells approximately.
        assert set(in_order.cells) == set(shuffled.cells)
        for coordinate, values_tuple in in_order.cells.items():
            assert shuffled.cells[coordinate] == pytest.approx(
                values_tuple, abs=1e-6
            )

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows)
    def test_rollup_distributes_over_selection_split(self, rows):
        """SUM over a selection == SUM(first half) + SUM(second half)."""
        star = _tiny_star(rows)
        half = len(rows) // 2
        query = CubeQuery("F", [AggSpec(Aggregator.SUM, "v")])
        total = execute(star, query).value(())
        first = execute(star, query, selection=range(half))
        second = execute(star, query, selection=range(half, len(rows)))
        combined = (first.value(()) if first.cells else 0.0) + (
            second.value(()) if second.cells else 0.0
        )
        assert combined == pytest.approx(total, abs=1e-6)
