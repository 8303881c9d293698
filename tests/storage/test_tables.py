"""Tests for dimension / fact / layer tables."""

import pytest

from repro.errors import StorageError
from repro.geomd import GeometricType, Layer
from repro.geometry import LineString, Point
from repro.mdm.model import Dimension, Fact, Hierarchy, Level, Measure
from repro.storage import DimensionTable, FactTable, LayerTable
from repro.uml.core import INTEGER, REAL


def _store_dimension():
    return Dimension(
        "Store",
        [Level("Store"), Level("City"), Level("State")],
        [Hierarchy("geo", ["Store", "City", "State"])],
        leaf="Store",
    )


def _loaded_table():
    table = DimensionTable(_store_dimension())
    table.add_member("State", "Valencia")
    table.add_member("City", "Alicante", parents={"State": "Valencia"})
    table.add_member("Store", "S1", parents={"City": "Alicante"})
    return table


class TestDimensionTable:
    def test_member_lookup(self):
        table = _loaded_table()
        assert table.member("Store", "S1").key == "S1"
        assert table.size("City") == 1

    def test_key_attribute_defaults_to_key(self):
        table = _loaded_table()
        assert table.member("City", "Alicante").get("name") == "Alicante"

    def test_duplicate_member_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError):
            table.add_member("State", "Valencia")

    def test_unknown_level_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError):
            table.add_member("Country", "Spain")

    def test_unknown_attribute_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError):
            table.add_member(
                "City", "Elche", {"altitude": 86}, parents={"State": "Valencia"}
            )

    def test_missing_parent_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError, match="missing parents"):
            table.add_member("City", "Elche")

    def test_dangling_parent_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError, match="insert coarser levels first"):
            table.add_member("City", "Elche", parents={"State": "Atlantis"})

    def test_wrong_parent_level_rejected(self):
        table = _loaded_table()
        with pytest.raises(StorageError, match="does not roll up"):
            table.add_member(
                "Store", "S2", parents={"State": "Valencia", "City": "Alicante"}
            )

    def test_rollup_walks_links(self):
        table = _loaded_table()
        store = table.member("Store", "S1")
        assert table.rollup(store, "State").key == "Valencia"
        assert table.rollup(store, "Store") is store

    def test_geometry_of(self):
        table = _loaded_table()
        member = table.add_member(
            "Store",
            "S2",
            {"geometry": Point(1, 2)},
            parents={"City": "Alicante"},
        )
        assert table.geometry_of(member) == Point(1, 2)
        assert table.member("Store", "S1").geometry is None

    def test_non_geometry_value_rejected_on_access(self):
        table = _loaded_table()
        member = table.add_member(
            "Store", "S3", {"geometry": "POINT (1 2)"}, parents={"City": "Alicante"}
        )
        with pytest.raises(StorageError):
            _ = member.geometry


class TestFactTable:
    def _fact(self):
        return Fact(
            "Sales",
            ["Store", "Product"],
            [Measure("units", INTEGER), Measure("amount", REAL)],
        )

    def test_insert_and_row(self):
        table = FactTable(self._fact())
        row_ids = table.insert_columns(
            {"Store": ["S1"], "Product": ["P1"]}, {"units": [2], "amount": [10.5]}
        )
        assert row_ids == [0]
        assert len(table) == 1
        assert table.row(0) == {
            "Store": "S1",
            "Product": "P1",
            "units": 2.0,
            "amount": 10.5,
        }

    def test_missing_coordinate_rejected(self):
        table = FactTable(self._fact())
        with pytest.raises(StorageError):
            table.insert_columns({"Store": ["S1"]}, {"units": [1], "amount": [1.0]})

    def test_missing_measure_rejected(self):
        table = FactTable(self._fact())
        with pytest.raises(StorageError):
            table.insert_columns({"Store": ["S1"], "Product": ["P1"]}, {"units": [1]})

    def test_non_numeric_measure_rejected(self):
        table = FactTable(self._fact())
        with pytest.raises(StorageError):
            table.insert_columns(
                {"Store": ["S1"], "Product": ["P1"]},
                {"units": ["two"], "amount": [1.0]},
            )

    def test_bool_measure_rejected(self):
        table = FactTable(self._fact())
        with pytest.raises(StorageError):
            table.insert_columns(
                {"Store": ["S1"], "Product": ["P1"]},
                {"units": [True], "amount": [1.0]},
            )

    def test_row_out_of_range(self):
        table = FactTable(self._fact())
        with pytest.raises(StorageError):
            table.row(0)

    def test_column_access(self):
        table = FactTable(self._fact())
        table.insert_columns(
            {"Store": ["S1"], "Product": ["P1"]}, {"units": [1], "amount": [2.0]}
        )
        assert table.key_column("Store") == ["S1"]
        assert table.measure_column("amount") == [2.0]
        with pytest.raises(StorageError):
            table.key_column("Time")
        with pytest.raises(StorageError):
            table.measure_column("profit")


class TestLayerTable:
    def test_type_checked_insert(self):
        table = LayerTable(Layer("Airport", GeometricType.POINT))
        table.add_feature("ALC", Point(0, 0))
        with pytest.raises(StorageError):
            table.add_feature("bad", LineString([(0, 0), (1, 1)]))

    def test_duplicate_name_rejected(self):
        table = LayerTable(Layer("Airport", GeometricType.POINT))
        table.add_feature("ALC", Point(0, 0))
        with pytest.raises(StorageError):
            table.add_feature("ALC", Point(1, 1))

    def test_a_refused_batch_adds_nothing(self):
        table = LayerTable(Layer("Airport", GeometricType.POINT))
        table.add_feature("ALC", Point(0, 0))
        for batch in (
            [("VLC", Point(1, 1)), ("bad", LineString([(0, 0), (1, 1)]))],
            [("VLC", Point(1, 1)), ("ALC", Point(2, 2))],
            [("VLC", Point(1, 1)), ("VLC", Point(2, 2))],
        ):
            with pytest.raises(StorageError):
                table.add_features((name, g, None) for name, g in batch)
            assert [f.name for f in table.features()] == ["ALC"]
        added = table.add_features([("VLC", Point(1, 1), {"iata": "VLC"})])
        assert [f.feature_id for f in added] == [1]
        assert table.feature("VLC").attributes == {"iata": "VLC"}

    def test_lookup_and_iteration(self):
        table = LayerTable(Layer("Train", GeometricType.LINE))
        table.add_feature("L1", LineString([(0, 0), (1, 1)]), {"stops": "a, b"})
        assert table.feature("L1").attributes["stops"] == "a, b"
        assert len(table) == 1
        assert len(list(table.geometries())) == 1
        with pytest.raises(StorageError):
            table.feature("L9")
