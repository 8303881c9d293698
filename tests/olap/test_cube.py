"""Tests for the cube a personalized view hands the BI tool."""

import pytest

from repro.mdm import Aggregator
from repro.olap import AggSpec, Cube


class TestNavigation:
    def test_default_measures(self, star):
        cube = Cube(star)
        labels = {spec.label for spec in cube.aggregations}
        assert "SUM(UnitSales)" in labels

    def test_by_and_result(self, star):
        result = Cube(star).by("Store.City").result()
        assert len(result) > 1

    def test_rollup_totals_preserved(self, star):
        sales = Cube(star).measures(AggSpec(Aggregator.SUM, "UnitSales"))
        by_city = sales.by("Store.City")
        by_state = sales.by("Store.State")
        assert len(by_state.result()) < len(by_city.result())
        total_city = sum(v[0] for v in by_city.result().cells.values())
        total_state = sum(v[0] for v in by_state.result().cells.values())
        assert total_city == pytest.approx(total_state)


class TestSliceDice:
    def test_count_empty_result(self, star):
        cube = Cube(star).with_selection([])
        assert cube.count() == 0.0


class TestSelection:
    def test_with_selection(self, star):
        rows = list(range(100))
        cube = Cube(star).with_selection(rows)
        assert cube.count() == 100.0

    def test_selection_cleared(self, star):
        cube = Cube(star).with_selection(range(10)).with_selection(None)
        assert cube.count() == len(star.fact_table())

    def test_immutability(self, star):
        base = Cube(star)
        modified = base.by("Store.City").measures(AggSpec(Aggregator.COUNT, "*"))
        assert base.group_by == ()
        assert base.aggregations != modified.aggregations
        assert modified.group_by != ()
