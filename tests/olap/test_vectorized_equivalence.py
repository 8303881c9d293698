"""The vectorized executor must be indistinguishable from the reference.

Property test: across random schemas, fact data, filters, groupings and
selections, :func:`repro.olap.query.execute` (dictionary-encoded batch
path) returns *bit-identical* cell sets — including the scanned/matched
transparency counters — to :func:`execute_reference` (the original
per-row roll-up loop), and the star's ``oracle`` switch routes
:func:`execute` back to that reference path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mdm import Aggregator, Dimension, Fact, Hierarchy, Level, MDSchema, Measure
from repro.olap import AggSpec, AttributeFilter, ComparisonOp, CubeQuery, LevelRef
from repro.olap.query import execute, execute_reference
from repro.storage import StarSchema
from repro.uml.core import REAL

_GROUP_COUNT = 3
_REGION_COUNT = 2
_PRODUCT_COUNT = 4


def _build_star(fact_rows):
    """Two-dimension star: Store (3 levels) and Product (flat leaf)."""
    store = Dimension(
        "Store",
        [Level("Store"), Level("City"), Level("Region")],
        [Hierarchy("geo", ["Store", "City", "Region"])],
        leaf="Store",
    )
    product = Dimension("Product", [Level("Product")], [], leaf="Product")
    fact = Fact("Sales", ["Store", "Product"], [Measure("v", REAL)])
    star = StarSchema(MDSchema("S", [store, product], [fact]))
    for r in range(_REGION_COUNT):
        star.add_member("Store", "Region", f"r{r}")
    for c in range(_GROUP_COUNT):
        star.add_member(
            "Store", "City", f"c{c}", parents={"Region": f"r{c % _REGION_COUNT}"}
        )
    stores = sorted({s for s, _p, _v in fact_rows})
    for s in stores:
        star.add_member(
            "Store", "Store", f"s{s}", parents={"City": f"c{s % _GROUP_COUNT}"}
        )
    for p in range(_PRODUCT_COUNT):
        star.add_member("Product", "Product", f"p{p}")
    star.insert_facts(
        "Sales",
        [
            ({"Store": f"s{s}", "Product": f"p{p}"}, {"v": v})
            for s, p, v in fact_rows
        ],
    )
    return star


values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    lambda v: round(v, 4)
)
fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=_PRODUCT_COUNT - 1),
        values,
    ),
    min_size=0,
    max_size=50,
)
aggregations = st.lists(
    st.sampled_from(
        [
            AggSpec(Aggregator.COUNT, "*"),
            AggSpec(Aggregator.COUNT, "v"),
            AggSpec(Aggregator.SUM, "v"),
            AggSpec(Aggregator.AVG, "v"),
            AggSpec(Aggregator.MIN, "v"),
            AggSpec(Aggregator.MAX, "v"),
            AggSpec(Aggregator.COUNT_DISTINCT, "v"),
        ]
    ),
    min_size=1,
    max_size=3,
)
group_bys = st.sampled_from(
    [
        (),
        (LevelRef("Store", "City"),),
        (LevelRef("Store", "Region"),),
        (LevelRef("Store", "Store"),),
        (LevelRef("Store", "City"), LevelRef("Product", "Product")),
        (LevelRef("Store", "Region"), LevelRef("Store", "City")),
    ]
)
filters = st.sampled_from(
    [
        (),
        (
            AttributeFilter(
                LevelRef("Store", "City"), "name", ComparisonOp.IN, ("c0", "c2")
            ),
        ),
        (
            AttributeFilter(
                LevelRef("Store", "Region"), "name", ComparisonOp.EQ, "r0"
            ),
        ),
        (
            AttributeFilter(
                LevelRef("Product", "Product"), "name", ComparisonOp.NE, "p1"
            ),
            AttributeFilter(
                LevelRef("Store", "City"), "name", ComparisonOp.GE, "c1"
            ),
        ),
    ]
)
selection_kinds = st.sampled_from(["none", "prefix", "shuffled", "duplicates"])


def _selection(kind, n, seed):
    if kind == "none" or n == 0:
        return None
    if kind == "prefix":
        return list(range(n // 2))
    import random

    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    if kind == "duplicates":
        ids = ids + ids[: n // 2]
    return ids


def _assert_identical(a, b):
    assert a.axes == b.axes
    assert a.labels == b.labels
    assert a.fact_rows_scanned == b.fact_rows_scanned
    assert a.fact_rows_matched == b.fact_rows_matched
    assert set(a.cells) == set(b.cells)
    for coordinate, cell in a.cells.items():
        other = b.cells[coordinate]
        # Bit-identical, not approximately equal: repr distinguishes
        # 0.0 from -0.0 and every last mantissa bit.
        assert tuple(map(repr, cell)) == tuple(map(repr, other)), coordinate


class TestVectorizedEquivalence:
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    @given(fact_rows, aggregations, group_bys, filters, selection_kinds,
           st.integers(min_value=0, max_value=2**31))
    def test_matches_reference_bit_identically(
        self, rows, aggs, group_by, where, selection_kind, seed
    ):
        star = _build_star(rows)
        query = CubeQuery("Sales", aggs, group_by=group_by, where=where)
        selection = _selection(selection_kind, len(rows), seed)
        reference = execute_reference(star, query, selection)
        assert not star.oracle
        vectorized = execute(star, query, selection)
        _assert_identical(vectorized, reference)
        # The oracle switch must route back to the reference path.
        star.oracle = True
        switched = execute(star, query, selection)
        _assert_identical(switched, reference)

    def test_results_track_appends(self):
        """Translation tables must extend when appends intern new keys."""
        star = _build_star([(0, 0, 1.0), (1, 1, 2.0)])
        query = CubeQuery(
            "Sales",
            [AggSpec(Aggregator.SUM, "v")],
            group_by=[LevelRef("Store", "City")],
        )
        _assert_identical(
            execute(star, query), execute_reference(star, query)
        )
        star.add_member("Store", "Store", "s7", parents={"City": "c1"})
        star.insert_facts(
            "Sales", [({"Store": "s7", "Product": "p0"}, {"v": 5.0})]
        )
        _assert_identical(
            execute(star, query), execute_reference(star, query)
        )
