"""``StarSchema.copy()``: one loaded star, many independent stars.

Fidelity: a copy of the medium-world star serializes like its source and
stands at the same generations and mutation log, and copying logs no
mutation and fires no listener.  Isolation: a member add, fact insert,
feature add, layer add or BecomeSpatial geometry load on either side leaves
the other side's serialization, generation and log unchanged.  The
portal-level gates (one login leaves the other tenants as loaded, and a
replay answers like tenants loaded one by one) are in
``tests/workload/test_oracle_gate.py``.
"""

import pytest

from repro.data import WorldGeoSource, build_sales_star
from repro.geomd import GeometricType
from repro.geometry import Point
from repro.storage.snapshot import star_to_dict
from repro.workload.harness import build_tier_world, tier


@pytest.fixture(scope="module")
def world():
    return build_tier_world(tier("medium"))


@pytest.fixture(scope="module")
def loaded(world):
    return build_sales_star(world)


def test_copy_serializes_and_counts_like_its_source(loaded):
    heard = []
    loaded.add_mutation_listener(heard.append)
    logged = loaded.mutation_log.stats()
    try:
        copy = loaded.copy()
    finally:
        loaded.remove_mutation_listener(heard.append)

    assert heard == []
    assert loaded.mutation_log.stats() == logged
    assert star_to_dict(copy) == star_to_dict(loaded)
    assert len(copy.fact_table("Sales")) == 20_000
    assert copy.generation == loaded.generation
    assert copy.metadata_generation == loaded.metadata_generation
    assert copy.mutation_log.stats() == logged
    assert copy.history is None


def _member_add(star, world):
    star.add_member("Product", "Family", "Family-copied")


def _fact_insert(star, world):
    table = star.fact_table("Sales")
    row = table.row(0)
    star.insert_facts(
        "Sales",
        [
            (
                {d: row[d] for d in table.fact.dimension_names},
                {m: row[m] + 1.0 for m in table.fact.measures},
            )
        ],
    )


def _feature_add(star, world):
    star.add_features("Harbour", [("Pier 1", Point(1.0, 2.0), None)])


def _layer_add(star, world):
    star.schema.add_layer("Train", GeometricType.LINE)
    star.ensure_layer_table("Train")


def _become_spatial(star, world):
    """``BecomeSpatial(Store.City, POINT)`` with its geometry load, as
    rule registration runs it."""
    star.become_spatial(
        "Store.City",
        GeometricType.POINT,
        WorldGeoSource(world).level_geometries("Store", "City"),
    )


MUTATIONS = {
    "member_add": _member_add,
    "fact_insert": _fact_insert,
    "feature_add": _feature_add,
    "layer_add": _layer_add,
    "become_spatial": _become_spatial,
}


@pytest.mark.parametrize("mutated", ["source", "copy"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_mutation_on_one_side_leaves_the_other_unchanged(
    loaded, world, mutation, mutated
):
    source = loaded.copy()
    source.schema.add_layer("Harbour", GeometricType.POINT)
    source.ensure_layer_table("Harbour")
    pair = {"source": source, "copy": source.copy()}
    side = pair[mutated]
    other = pair["copy" if mutated == "source" else "source"]
    heard = []
    other.add_mutation_listener(heard.append)
    before = star_to_dict(other)
    generation = other.generation
    logged = other.mutation_log.stats()

    MUTATIONS[mutation](side, world)

    assert star_to_dict(side) != before
    assert star_to_dict(other) == before
    assert other.generation == generation
    assert other.mutation_log.stats() == logged
    assert heard == []
