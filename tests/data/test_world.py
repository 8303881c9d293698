"""Tests for the synthetic world generator."""

import pytest

from repro.data import WorldConfig, generate_world
from repro.errors import ReproError
from repro.geometry import within


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = generate_world(WorldConfig(seed=11))
        b = generate_world(WorldConfig(seed=11))
        assert [c.location for c in a.cities] == [c.location for c in b.cities]
        assert [t.path for t in a.train_lines] == [t.path for t in b.train_lines]

    def test_different_seed_different_world(self):
        a = generate_world(WorldConfig(seed=11))
        b = generate_world(WorldConfig(seed=12))
        assert [c.location for c in a.cities] != [c.location for c in b.cities]


class TestConfigValidation:
    def test_bad_extent(self):
        with pytest.raises(ReproError):
            WorldConfig(extent_km=-1)

    def test_bad_grid(self):
        with pytest.raises(ReproError):
            WorldConfig(states_x=0)

    def test_bad_ratio(self):
        with pytest.raises(ReproError):
            WorldConfig(airport_city_ratio=2.0)

    def test_bad_train_stops(self):
        with pytest.raises(ReproError):
            WorldConfig(cities_per_train_line=1)


class TestStructure:
    def test_counts_match_config(self, world):
        config = world.config
        assert len(world.states) == config.states_x * config.states_y
        assert len(world.cities) == len(world.states) * config.cities_per_state
        assert len(world.stores) == len(world.cities) * config.stores_per_city
        assert (
            len(world.customers)
            == len(world.cities) * config.customers_per_city
        )

    def test_city_names_unique(self, world):
        names = [c.name for c in world.cities]
        assert len(names) == len(set(names))

    def test_cities_inside_their_state(self, world):
        states = {s.name: s.polygon for s in world.states}
        for city in world.cities:
            assert within(city.location, states[city.state])

    def test_stores_mostly_inside_their_state(self, world):
        """Stores spread around their city, so a few may spill over the
        border of its state cell; the vast majority fall inside."""
        states = {s.name: s.polygon for s in world.states}
        outside = [
            store
            for store in world.stores
            if not within(store.location, states[world.city(store.city).state])
        ]
        assert len(outside) < len(world.stores) * 0.2

    def test_airports_offset_from_cities(self, world):
        for airport in world.airports:
            city = world.city(airport.city)
            distance = airport.location.distance_to(city.location)
            assert 8_000.0 <= distance <= 15_000.0

    def test_lookup_helpers(self, world):
        assert world.city(world.cities[0].name) is world.cities[0]
        assert world.airport(world.airports[0].name) is world.airports[0]
        with pytest.raises(ReproError):
            world.city("Atlantis")
        with pytest.raises(ReproError):
            world.airport("Atlantis Intl")


class TestTrainLines:
    def test_stops_are_exact_vertices(self, world):
        """Example 5.3 requires "the line contains a city and airport
        points" — stations are exact polyline vertices."""
        for line in world.train_lines:
            vertices = set(line.path.coord_list)
            for stop in line.stops:
                try:
                    point = world.city(stop).location
                except ReproError:
                    point = world.airport(stop).location
                assert point.coord in vertices

    def test_each_line_serves_an_airport(self, world):
        airport_names = {a.name for a in world.airports}
        for line in world.train_lines:
            assert airport_names & set(line.stops)

    def test_arc_distance_between_stops_positive(self, world):
        line = world.train_lines[0]
        first = line.stops[0]
        last = line.stops[-1]

        def stop_point(name):
            try:
                return world.city(name).location
            except ReproError:
                return world.airport(name).location

        arc = line.path.arc_between(stop_point(first), stop_point(last))
        assert arc > 0.0
        assert arc <= line.path.length + 1e-6


class TestScaling:
    def test_tiny_world(self):
        config = WorldConfig(
            seed=3,
            states_x=1,
            states_y=1,
            cities_per_state=2,
            stores_per_city=1,
            customers_per_city=1,
            train_lines=1,
            cities_per_train_line=2,
            days=5,
            sales=10,
        )
        world = generate_world(config)
        assert world.summary()["cities"] == 2
        assert world.summary()["train_lines"] == 1
