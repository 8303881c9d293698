"""Tests for the STR-packed R-tree."""

import random

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Envelope,
    LineString,
    Point,
    STRtree,
    brute_force_within_distance,
)


def _random_points(n, seed=7, extent=1000.0):
    rng = random.Random(seed)
    return [
        (Point(rng.uniform(0, extent), rng.uniform(0, extent)), i) for i in range(n)
    ]


@pytest.fixture(params=["strtree"])
def index_factory(request):
    return STRtree


class TestConstruction:
    def test_empty_rejected(self, index_factory):
        with pytest.raises(GeometryError):
            index_factory([])

    def test_len(self, index_factory):
        idx = index_factory(_random_points(100))
        assert len(idx) == 100

    def test_strtree_rejects_bad_capacity(self):
        with pytest.raises(GeometryError):
            STRtree(_random_points(10), node_capacity=1)

    def test_single_entry(self, index_factory):
        idx = index_factory([(Point(5, 5), "only")])
        assert idx.within_distance(Point(5, 5), 1.0) == ["only"]


class TestQueries:
    def test_envelope_query_matches_brute_force(self, index_factory):
        entries = _random_points(500)
        idx = index_factory(entries)
        env = Envelope(100, 100, 400, 300)
        expected = sorted(i for p, i in entries if env.contains_coord(p.coord))
        assert sorted(idx.query_envelope(env)) == expected

    def test_within_distance_matches_brute_force(self, index_factory):
        entries = _random_points(500)
        idx = index_factory(entries)
        center = Point(500, 500)
        for radius in (0.0, 50.0, 200.0, 2000.0):
            expected = sorted(brute_force_within_distance(entries, center, radius))
            assert sorted(idx.within_distance(center, radius)) == expected

    def test_negative_radius_rejected(self, index_factory):
        idx = index_factory(_random_points(10))
        with pytest.raises(GeometryError):
            idx.within_distance(Point(0, 0), -1)

    def test_lines_indexable(self, index_factory):
        entries = [
            (LineString([(i * 10, 0), (i * 10 + 5, 5)]), i) for i in range(50)
        ]
        idx = index_factory(entries)
        hits = idx.within_distance(Point(0, 0), 6.0)
        assert 0 in hits
        assert 40 not in hits

    def test_radius_zero_hits_coincident(self, index_factory):
        entries = _random_points(50) + [(Point(123, 456), "exact")]
        idx = index_factory(entries)
        assert "exact" in idx.within_distance(Point(123, 456), 0.0)


class TestNearest:
    def test_nearest_one(self):
        entries = _random_points(300)
        tree = STRtree(entries)
        center = Point(500, 500)
        (d, item), = tree.nearest(center, k=1)
        brute = min(entries, key=lambda e: e[0].distance_to(center))
        assert item == brute[1]
        assert d == pytest.approx(brute[0].distance_to(center))

    def test_nearest_k_sorted(self):
        entries = _random_points(300)
        tree = STRtree(entries)
        center = Point(250, 250)
        results = tree.nearest(center, k=10)
        assert len(results) == 10
        dists = [d for d, _item in results]
        assert dists == sorted(dists)
        brute = sorted(e[0].distance_to(center) for e in entries)[:10]
        assert dists == pytest.approx(brute)

    def test_k_larger_than_population(self):
        entries = _random_points(5)
        tree = STRtree(entries)
        assert len(tree.nearest(Point(0, 0), k=50)) == 5

    def test_invalid_k(self):
        tree = STRtree(_random_points(5))
        with pytest.raises(GeometryError):
            tree.nearest(Point(0, 0), k=0)


class TestSkewedData:
    def test_clustered_points(self, index_factory):
        rng = random.Random(13)
        cluster_a = [
            (Point(rng.gauss(100, 5), rng.gauss(100, 5)), f"a{i}") for i in range(200)
        ]
        cluster_b = [
            (Point(rng.gauss(900, 5), rng.gauss(900, 5)), f"b{i}") for i in range(200)
        ]
        idx = index_factory(cluster_a + cluster_b)
        hits = idx.within_distance(Point(100, 100), 30.0)
        assert all(h.startswith("a") for h in hits)
        assert len(hits) > 150
