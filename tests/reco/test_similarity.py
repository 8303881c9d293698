"""Spatial profiles and the hierarchy+geometry similarity measure."""

import pytest

from repro.geomd import GeometricType
from repro.reco import (
    build_spatial_profile,
    geometry_similarity,
    hierarchy_similarity,
    user_similarity,
)


@pytest.fixture()
def spatial_star(world, star):
    """The sales star with store geometries loaded (what registering
    the BecomeSpatial schema rule does)."""
    star.become_spatial(
        "Store.Store",
        GeometricType.POINT,
        {store.name: store.location for store in world.stores},
    )
    return star


def profile_for(star, stores):
    return build_spatial_profile(star, {("Store", "Store"): set(stores)})


class TestProfile:
    def test_leaf_selection_lifts_to_every_ancestor_level(
        self, world, spatial_star
    ):
        store = world.stores[0]
        profile = profile_for(spatial_star, [store.name])
        assert profile.level_keys[("Store", "Store")] == {store.name}
        assert profile.level_keys[("Store", "City")] == {store.city}
        state = next(c.state for c in world.cities if c.name == store.city)
        assert profile.level_keys[("Store", "State")] == {state}
        # Coarser levels weigh less than the leaf.
        weights = profile.level_weights
        assert weights[("Store", "Store")] == 1.0
        assert weights[("Store", "City")] < 1.0
        assert weights[("Store", "State")] < weights[("Store", "City")]

    def test_non_leaf_selection_expands_through_rollup_index(
        self, world, spatial_star
    ):
        city = world.stores[0].city
        profile = build_spatial_profile(
            spatial_star, {("Store", "City"): {city}}
        )
        expected = {s.name for s in world.stores if s.city == city}
        assert profile.level_keys[("Store", "Store")] == expected

    def test_geometry_summary(self, world, spatial_star):
        names = [s.name for s in world.stores[:3]]
        profile = profile_for(spatial_star, names)
        assert profile.envelope is not None
        for store in world.stores[:3]:
            assert profile.envelope.contains_coord(store.location.coord)
        assert profile.centroid is not None

    def test_profile_is_identical_without_indexes(self, world, spatial_star):
        """The rollup-index fast path must be transparent (oracle)."""
        names = [s.name for s in world.stores[:4]]
        indexed = profile_for(spatial_star, names)
        spatial_star.oracle = True
        scanned = profile_for(spatial_star, names)
        assert scanned.level_keys == indexed.level_keys
        assert scanned.level_weights == indexed.level_weights
        assert scanned.envelope == indexed.envelope

    def test_unknown_dimension_and_empty_selection_are_tolerated(
        self, spatial_star
    ):
        profile = build_spatial_profile(
            spatial_star, {("Nope", "Level"): {"x"}}
        )
        assert profile.is_empty
        assert build_spatial_profile(spatial_star, {}).is_empty

    def test_stale_journaled_keys_are_dropped_not_fatal(
        self, world, spatial_star
    ):
        """Journals outlive star reloads: unknown member keys are skipped."""
        store = world.stores[0]
        profile = build_spatial_profile(
            spatial_star,
            {("Store", "Store"): {store.name, "Demolished Store 99"}},
        )
        assert profile.level_keys[("Store", "Store")] == {store.name}
        all_stale = build_spatial_profile(
            spatial_star, {("Store", "Store"): {"Demolished Store 99"}}
        )
        assert all_stale.is_empty


class TestSimilarity:
    def test_identical_footprints_are_maximally_similar(
        self, world, spatial_star
    ):
        names = [s.name for s in world.stores[:3]]
        a = profile_for(spatial_star, names)
        b = profile_for(spatial_star, names)
        assert hierarchy_similarity(a, b) == pytest.approx(1.0)
        assert geometry_similarity(a, b) == pytest.approx(1.0)
        assert user_similarity(a, b) == pytest.approx(1.0)

    def test_symmetry(self, world, spatial_star):
        a = profile_for(spatial_star, [world.stores[0].name])
        b = profile_for(spatial_star, [s.name for s in world.stores[1:4]])
        assert user_similarity(a, b) == pytest.approx(user_similarity(b, a))

    def test_disjoint_stores_in_one_city_still_overlap_via_rollup(
        self, world, spatial_star
    ):
        city = world.stores[0].city
        same_city = [s.name for s in world.stores if s.city == city]
        assert len(same_city) >= 2
        a = profile_for(spatial_star, [same_city[0]])
        b = profile_for(spatial_star, [same_city[1]])
        # No shared store, but the shared City (and State) ancestors make
        # the hierarchy component nonzero.
        assert not (
            a.level_keys[("Store", "Store")] & b.level_keys[("Store", "Store")]
        )
        assert hierarchy_similarity(a, b) > 0.0

    def test_near_beats_far(self, world, spatial_star):
        anchor = world.stores[0]
        neighbour = next(
            s for s in world.stores[1:] if s.city == anchor.city
        )
        far = max(
            world.stores,
            key=lambda s: anchor.location.distance_to(s.location),
        )
        assert far.city != anchor.city
        target = profile_for(spatial_star, [anchor.name])
        near_sim = user_similarity(
            target, profile_for(spatial_star, [neighbour.name])
        )
        far_sim = user_similarity(target, profile_for(spatial_star, [far.name]))
        assert near_sim > far_sim

    def test_empty_profiles_have_zero_similarity(self, spatial_star, world):
        empty = build_spatial_profile(spatial_star, {})
        full = profile_for(spatial_star, [world.stores[0].name])
        assert user_similarity(empty, full) == 0.0
        assert user_similarity(empty, empty) == 0.0

    def test_hierarchy_weight_bounds(self, spatial_star, world):
        a = profile_for(spatial_star, [world.stores[0].name])
        with pytest.raises(ValueError):
            user_similarity(a, a, hierarchy_weight=1.5)
