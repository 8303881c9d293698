"""Tests for the dictionary-encoded columnar storage layer.

Covers the interned key dictionary, the columnar append and its row
adapter, the vectorized row scan, the roll-up translation tables and
the columnar envelope index.
"""

import pytest

from repro.errors import GeometryError, StorageError
from repro.geometry import Point
from repro.geometry.index import EnvelopeColumns
from repro.geometry.gtypes import Envelope
from repro.mdm.model import Dimension, Fact, Hierarchy, Level, Measure
from repro.storage import FactTable, StarSchema
from repro.storage.columns import Dictionary
from repro.storage.snapshot import star_to_dict
from repro.mdm import MDSchema
from repro.uml.core import INTEGER, REAL


class TestDictionary:
    def test_encode_interns_in_first_appearance_order(self):
        d = Dictionary()
        assert d.encode("b") == 0
        assert d.encode("a") == 1
        assert d.encode("b") == 0
        assert d.keys() == ["b", "a"]
        assert len(d) == 2
        assert "a" in d and "z" not in d

    def test_decode_round_trip(self):
        d = Dictionary(["x", "y"])
        assert d.decode(0) == "x"
        assert d.decode_many([1, 0, 1]) == ["y", "x", "y"]
        assert d.code_of("y") == 1
        assert d.code_of("z") is None

    def test_decode_unknown_code_rejected(self):
        d = Dictionary(["x"])
        with pytest.raises(StorageError):
            d.decode(1)
        with pytest.raises(StorageError):
            d.decode_many([0, 3])

    def test_lookup_mask_and_codes_of_skip_unknown_keys(self):
        d = Dictionary(["a", "b", "c"])
        assert d.codes_of(["b", "nope", "c"]) == {1, 2}
        mask = d.lookup_mask(["a", "nope", "c"])
        assert list(mask) == [1, 0, 1]


def _sales_fact():
    return Fact(
        "Sales",
        ["Store", "Product"],
        [Measure("units", INTEGER), Measure("amount", REAL)],
    )


def _columns(n):
    """``n`` rows of the sales fact as the ``(keys, measures)`` columns
    of one batch: row ``i`` is store ``S{i % 3}``, product ``P{i % 2}``."""
    return (
        {
            "Store": [f"S{i % 3}" for i in range(n)],
            "Product": [f"P{i % 2}" for i in range(n)],
        },
        {"units": list(range(n)), "amount": [float(i) * 1.5 for i in range(n)]},
    )


class TestInsertMany:
    """A batch appended through ``FactTable.insert_columns``."""

    def test_returns_row_ids_in_input_order(self):
        table = FactTable(_sales_fact())
        assert table.insert_columns(*_columns(5)) == [0, 1, 2, 3, 4]
        assert len(table) == 5
        assert table.row(3)["Store"] == "S0"
        assert table.row(3)["amount"] == 4.5

    def test_empty_batch_is_a_no_op(self):
        table = FactTable(_sales_fact())
        assert table.insert_columns(*_columns(0)) == []
        assert len(table) == 0

    def test_validation_is_all_or_nothing(self):
        table = FactTable(_sales_fact())
        keys, measures = _columns(3)
        measures["units"][2] = "two"
        with pytest.raises(StorageError):
            table.insert_columns(keys, measures)
        assert len(table) == 0  # nothing appended before the bad value
        assert table.dictionary("Store").keys() == []

    def test_maintains_built_postings(self):
        table = FactTable(_sales_fact())
        table.insert_columns(*_columns(2))
        postings = table.key_postings("Store")
        table.insert_columns(*_columns(4))
        assert postings["S0"] == [0, 2, 5]
        assert table.key_postings("Store") is postings

    def test_compat_views_decode(self):
        table = FactTable(_sales_fact())
        table.insert_columns(*_columns(4))
        assert table.key_column("Product") == ["P0", "P1", "P0", "P1"]
        assert table.measure_column("units") == [0.0, 1.0, 2.0, 3.0]
        assert list(table.key_codes("Store"))[:3] == [0, 1, 2]
        assert table.dictionary("Store").keys() == ["S0", "S1", "S2"]

    def test_unknown_dimension_and_measure_rejected(self):
        table = FactTable(_sales_fact())
        with pytest.raises(StorageError):
            table.dictionary("Time")
        with pytest.raises(StorageError):
            table.key_codes("Time")
        with pytest.raises(StorageError):
            table.measure_values("profit")


class TestRowsMatching:
    def _loaded(self, n=20):
        table = FactTable(_sales_fact())
        table.insert_columns(*_columns(n))
        return table

    def _reference(self, table, relevant, row_ids=None):
        columns = {dim: table.key_column(dim) for dim in relevant}
        ids = table.row_ids() if row_ids is None else row_ids
        return [
            row_id
            for row_id in ids
            if all(columns[d][row_id] in keys for d, keys in relevant.items())
        ]

    def test_full_scan_matches_reference(self):
        table = self._loaded()
        relevant = {"Store": {"S0", "S2"}, "Product": {"P1"}}
        assert table.rows_matching(relevant) == self._reference(table, relevant)

    def test_unconstrained_returns_all_rows(self):
        table = self._loaded(5)
        assert table.rows_matching({}) == [0, 1, 2, 3, 4]

    def test_unknown_keys_match_nothing(self):
        table = self._loaded()
        assert table.rows_matching({"Store": {"S99"}}) == []

    def test_subset_preserves_order(self):
        table = self._loaded()
        relevant = {"Product": {"P0"}}
        subset = [7, 3, 2, 18]
        assert table.rows_matching(relevant, row_ids=subset) == [
            r for r in subset if r % 2 == 0
        ]


def _star(rows=12):
    store = Dimension(
        "Store",
        [Level("Store"), Level("City"), Level("State")],
        [Hierarchy("geo", ["Store", "City", "State"])],
        leaf="Store",
    )
    product = Dimension(
        "Product",
        [Level("Product"), Level("Family")],
        [Hierarchy("cat", ["Product", "Family"])],
        leaf="Product",
    )
    fact = Fact("Sales", ["Store", "Product"], [Measure("amount", REAL)])
    star = StarSchema(MDSchema("S", [store, product], [fact]))
    star.add_member("Store", "State", "V")
    star.add_member("Store", "City", "C0", parents={"State": "V"})
    star.add_member("Store", "City", "C1", parents={"State": "V"})
    for i in range(4):
        star.add_member(
            "Store", "Store", f"S{i}", parents={"City": f"C{i % 2}"}
        )
    star.add_member("Product", "Family", "F0")
    for i in range(3):
        star.add_member("Product", "Product", f"P{i}", parents={"Family": "F0"})
    star.insert_facts(
        "Sales",
        [
            ({"Store": f"S{i % 4}", "Product": f"P{i % 3}"}, {"amount": float(i)})
            for i in range(rows)
        ],
    )
    return star


class TestStarInsertFacts:
    def test_one_mutation_per_batch(self):
        star = _star(rows=0)
        mutations = []
        star.add_mutation_listener(mutations.append)
        row_ids = star.insert_facts(
            "Sales",
            [
                ({"Store": "S0", "Product": "P0"}, {"amount": 1.0}),
                ({"Store": "S1", "Product": "P1"}, {"amount": 2.0}),
            ],
        )
        assert row_ids == [0, 1]
        assert len(mutations) == 1
        assert mutations[0].is_fact_delta
        assert mutations[0].row_ids == (0, 1)

    def test_empty_batch_emits_no_mutation(self):
        star = _star(rows=0)
        mutations = []
        star.add_mutation_listener(mutations.append)
        assert star.insert_facts("Sales", []) == []
        assert mutations == []

    def test_unknown_leaf_member_rejected(self):
        star = _star(rows=0)
        with pytest.raises(StorageError, match="unknown 'Store' leaf member"):
            star.insert_facts(
                "Sales",
                [({"Store": "S99", "Product": "P0"}, {"amount": 1.0})],
            )

    @pytest.mark.parametrize(
        "coordinates, measures",
        [
            ({"Store": "S0"}, {"amount": 1.0}),
            ({"Store": "S0", "Product": "P0", "Customer": "C"}, {"amount": 1.0}),
            ({"Store": "S0", "Product": "P0"}, {}),
            ({"Store": "S0", "Product": "P0"}, {"amount": 1.0, "units": 2}),
        ],
        ids=["missing key", "extra key", "missing measure", "extra measure"],
    )
    def test_a_row_that_misnames_the_fact_changes_nothing(
        self, coordinates, measures
    ):
        star = _star(rows=2)
        before = _state(star)
        good = ({"Store": "S1", "Product": "P1"}, {"amount": 2.0})
        with pytest.raises(StorageError, match="expects"):
            star.insert_facts("Sales", [good, (coordinates, measures)])
        assert _state(star) == before

    def test_insert_fact_still_single_row(self):
        star = _star(rows=0)
        assert star.insert_fact(
            "Sales", {"Store": "S0", "Product": "P0"}, {"amount": 1.0}
        ) == 0


def _state(star):
    """Everything a refused append must leave as it was: the rendered
    star (dictionaries, code and measure columns, members), a deep copy
    of every posting list, the generation and the mutation log."""
    table = star.fact_table("Sales")
    return (
        star_to_dict(star),
        {
            dim: {key: list(ids) for key, ids in table.key_postings(dim).items()}
            for dim in table.fact.dimension_names
        },
        star.generation,
        star.mutation_log.stats(),
    )


#: Batches ``StarSchema.insert_columns`` refuses, each with one fault.
MALFORMED = {
    "unknown leaf key": (
        {"Store": ["S0", "S99"], "Product": ["P0", "P1"]},
        {"amount": [1.0, 2.0]},
    ),
    "missing dimension": ({"Store": ["S0", "S1"]}, {"amount": [1.0, 2.0]}),
    "extra dimension": (
        {"Store": ["S0", "S1"], "Product": ["P0", "P1"], "Customer": ["C", "C"]},
        {"amount": [1.0, 2.0]},
    ),
    "missing measure": ({"Store": ["S0", "S1"], "Product": ["P0", "P1"]}, {}),
    "extra measure": (
        {"Store": ["S0", "S1"], "Product": ["P0", "P1"]},
        {"amount": [1.0, 2.0], "units": [1, 2]},
    ),
    "unequal lengths": (
        {"Store": ["S0", "S1"], "Product": ["P0"]},
        {"amount": [1.0, 2.0]},
    ),
    "bool measure": (
        {"Store": ["S0", "S1"], "Product": ["P0", "P1"]},
        {"amount": [1.0, True]},
    ),
    "str measure": (
        {"Store": ["S0", "S1"], "Product": ["P0", "P1"]},
        {"amount": ["1.0", 2.0]},
    ),
}


class TestColumnarAppend:
    def test_the_row_adapter_appends_what_the_columns_append(self):
        # Two rows loaded, so the batch interns S2, S3 and P2 anew.
        star = _star(rows=2)
        by_rows, by_columns = star.copy(), star.copy()
        stores = ["S3", "S1", "S2", "S3", "S0"]
        products = ["P2", "P0", "P2", "P1", "P0"]
        amounts = [4, 0.25, 7.5, 1, 2.125]
        before = star.generation
        row_ids = by_rows.insert_facts(
            "Sales",
            [
                ({"Store": s, "Product": p}, {"amount": a})
                for s, p, a in zip(stores, products, amounts)
            ],
        )
        assert by_columns.insert_columns(
            "Sales", {"Store": stores, "Product": products}, {"amount": amounts}
        ) == row_ids == [2, 3, 4, 5, 6]
        assert star_to_dict(by_rows) == star_to_dict(by_columns)
        assert by_rows.generation == by_columns.generation == before + 1
        for copy in (by_rows, by_columns):
            logged = copy.mutation_log.between(before, copy.generation)
            assert [(m.kind, m.row_ids) for m in logged] == [
                ("fact", tuple(row_ids))
            ]
        table = by_columns.fact_table("Sales")
        assert table.dictionary("Store").keys() == ["S0", "S1", "S3", "S2"]
        assert table.measure_column("amount")[2:] == [4.0, 0.25, 7.5, 1.0, 2.125]

    def test_a_built_posting_list_is_extended(self):
        star = _star(rows=4)
        table = star.fact_table("Sales")
        postings = table.key_postings("Store")
        star.insert_columns(
            "Sales",
            {"Store": ["S1", "S3", "S1"], "Product": ["P0", "P1", "P2"]},
            {"amount": [1.0, 2.0, 3.0]},
        )
        assert table.key_postings("Store") is postings
        assert postings["S1"] == [1, 4, 6]
        assert postings["S3"] == [3, 5]
        assert postings == star.copy().fact_table("Sales").key_postings("Store")

    @pytest.mark.parametrize("fault", sorted(MALFORMED))
    def test_a_malformed_batch_changes_nothing(self, fault):
        star = _star(rows=4)
        before = _state(star)
        keys, measures = MALFORMED[fault]
        with pytest.raises(StorageError):
            star.insert_columns("Sales", keys, measures)
        assert _state(star) == before

    def test_an_empty_batch_appends_nothing_and_logs_nothing(self):
        star = _star(rows=3)
        before = _state(star)
        assert star.insert_columns(
            "Sales", {"Store": [], "Product": []}, {"amount": []}
        ) == []
        assert _state(star) == before


class TestRollupTranslation:
    def test_translates_every_interned_code(self):
        star = _star()
        table = star.fact_table("Sales")
        translation = star.rollup_translation("Sales", "Store", "City")
        dictionary = table.dictionary("Store")
        for code in range(len(dictionary)):
            leaf = dictionary.decode(code)
            expected = star.rollup_member("Store", leaf, "City").key
            assert translation.keys[translation.codes[code]] == expected

    def test_cached_until_member_change(self):
        star = _star()
        first = star.rollup_translation("Sales", "Store", "City")
        assert star.rollup_translation("Sales", "Store", "City") is first
        # A member change on another dimension must not invalidate it.
        star.add_member("Product", "Product", "P9", parents={"Family": "F0"})
        assert star.rollup_translation("Sales", "Store", "City") is first
        # A member ADD carries its delta: parent links are fixed at
        # creation, so existing leaf→ancestor translations stay correct
        # and the table survives.
        star.add_member("Store", "City", "C9", parents={"State": "V"})
        assert star.rollup_translation("Sales", "Store", "City") is first

    def test_extends_in_place_when_dictionary_grows(self):
        star = _star()
        translation = star.rollup_translation("Sales", "Store", "City")
        size = len(translation.codes)
        star.add_member("Store", "Store", "S9", parents={"City": "C1"})
        translation = star.rollup_translation("Sales", "Store", "City")
        star.insert_facts(
            "Sales", [({"Store": "S9", "Product": "P0"}, {"amount": 1.0})]
        )
        extended = star.rollup_translation("Sales", "Store", "City")
        assert extended is translation
        assert len(extended.codes) == size + 1
        new_code = star.fact_table("Sales").dictionary("Store").code_of("S9")
        assert extended.keys[extended.codes[new_code]] == "C1"


class TestEnvelopeColumns:
    def _entries(self):
        return [(Point(float(i), float(i * 2)), f"p{i}") for i in range(30)]

    def test_rejects_zero_entries(self):
        with pytest.raises(GeometryError):
            EnvelopeColumns([])

    def test_matches_envelope_intersects(self):
        entries = self._entries()
        columns = EnvelopeColumns(entries)
        assert len(columns) == len(entries)
        for env in (
            Envelope(2.0, 3.0, 11.0, 13.0),
            Envelope(-5.0, -5.0, -1.0, -1.0),
            Envelope(0.0, 0.0, 100.0, 100.0),
        ):
            assert columns.query_envelope(env) == [
                item for geom, item in entries if geom.envelope.intersects(env)
            ]
