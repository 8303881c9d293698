"""ABL1 — spatial index ablation: envelope columns vs brute force.

The Example 5.2 hot loop is a radius query around the user's location;
this ablation measures the path Example 5.2 takes in the engine against
the reference linear scan, on the large world's store set.  ``envelope``
is an :class:`EnvelopeColumns` probe loosened by
:func:`candidate_probe`, then the exact distance test on the candidates.
The columns are sorted on ``min_x``, so the probe bisects to the slab
``[min_x - w, max_x]`` (``w`` the widest envelope's width) and
range-tests only the entries in it; a radius of a few kilometres keeps
a handful of stores.  Expected shape: the envelope columns beat brute
force, with the gap growing with the point count.
"""

import time

from conftest import build_engine_at_scale

from repro.geometry import brute_force_within_distance, distance
from repro.geometry.index import EnvelopeColumns, candidate_probe

RADIUS = 5_000.0


def _entries(world):
    return [(s.location, s.name) for s in world.stores]


class _EnvelopeRadius:
    """Radius queries over :class:`EnvelopeColumns` as Example 5.2 runs
    them: a loosened envelope probe, then the exact distance test."""

    def __init__(self, entries):
        self._entries = list(entries)
        self._columns = EnvelopeColumns(
            [(geom, i) for i, (geom, _item) in enumerate(self._entries)]
        )

    def within_distance(self, center, radius):
        probe = candidate_probe(center.envelope, radius)
        return [
            self._entries[i][1]
            for i in self._columns.query_envelope(probe)
            if distance(self._entries[i][0], center) <= radius
        ]


def test_abl1_spatial_index(benchmark):
    world, _star, _engine = build_engine_at_scale("large")
    entries = _entries(world)
    center = world.cities[0].location
    columns = _EnvelopeRadius(entries)

    result = benchmark(columns.within_distance, center, RADIUS)
    expected = sorted(brute_force_within_distance(entries, center, RADIUS))
    assert sorted(result) == expected

    print(f"\n[ABL1] radius query strategies over {len(entries)} stores:")
    print("  strategy     build(ms)   query(ms)   hits")
    for name, factory in (
        ("brute", None),
        ("envelope", _EnvelopeRadius),
    ):
        start = time.perf_counter()
        index = factory(entries) if factory else None
        t_build = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        for _ in range(20):
            if index is None:
                hits = brute_force_within_distance(entries, center, RADIUS)
            else:
                hits = index.within_distance(center, RADIUS)
        t_query = (time.perf_counter() - start) * 1000 / 20
        assert sorted(hits) == expected
        print(f"  {name:<10} {t_build:9.2f}  {t_query:9.3f}   {len(hits)}")
