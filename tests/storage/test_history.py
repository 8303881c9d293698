"""PR 9: :class:`StarHistory` — checkpoints, log replay, as-of reads.

The contract: ``history.as_of(g)`` reconstructs the star exactly as it
stood at generation ``g`` (a copy of the newest checkpoint at or before
``g`` + typed-delta replay), so the reconstructed star serializes like
the live star did at ``g`` and any query answered against it is
*bit-identical* to the answer that was recorded at ``g`` — pinned here
both with explicit scripts and with a hypothesis property over random
mutation schedules.  Every star write logs its delta, a level's
geometry load included, so retention is the only limit: generations in
the future, before the oldest checkpoint, or across an evicted log range
raise :class:`HistoryError`.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data import (
    ADD_CITY_SPATIALITY,
    ADD_SPATIALITY,
    WorldGeoSource,
    build_sales_star,
)
from repro.geomd import GeoMDSchema, GeometricType
from repro.geometry import Point
from repro.mdm import Aggregator, Dimension, Fact, Hierarchy, Level, Measure
from repro.olap import AggSpec, CubeQuery, LevelRef, execute
from repro.olap.gmdql import parse_query
from repro.personalization import PersonalizationEngine
from repro.storage import StarSchema
from repro.storage.snapshot import HistoryError, StarHistory, star_to_dict
from repro.uml.core import REAL


def _tiny_star():
    """A 2-level star with two groups and two leaf members."""
    dim = Dimension(
        "D",
        [Level("D"), Level("G")],
        [Hierarchy("h", ["D", "G"])],
        leaf="D",
    )
    fact = Fact("F", ["D"], [Measure("v", REAL)])
    schema = GeoMDSchema("S", [dim], [fact])
    star = StarSchema(schema)
    for g in ("g0", "g1"):
        star.add_member("D", "G", g)
    star.add_member("D", "D", "d0", parents={"G": "g0"})
    star.add_member("D", "D", "d1", parents={"G": "g1"})
    star.insert_fact("F", {"D": "d0"}, {"v": 1.5})
    star.insert_fact("F", {"D": "d1"}, {"v": 2.25})
    return star


GROUPED = CubeQuery(
    "F", [AggSpec(Aggregator.SUM, "v")], group_by=[LevelRef("D", "G")]
)


def _rows(star, as_of=None):
    return execute(star, GROUPED, as_of=as_of).to_rows()


class TestLifecycle:
    def test_attach_registers_and_reuses(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        assert star.history is history
        assert StarHistory.attach(star) is history

    def test_detach_unbinds(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        history.detach()
        assert star.history is None
        fresh = StarHistory.attach(star)
        assert fresh is not history

    def test_live_generation_returns_live_star(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        assert history.as_of(star.generation) is star

    def test_future_generation_raises(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        with pytest.raises(HistoryError, match="future"):
            history.as_of(star.generation + 1)

    def test_pre_attach_generation_raises(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        with pytest.raises(HistoryError, match="predates"):
            history.as_of(0)


class TestReplay:
    def test_fact_append_replays(self):
        star = _tiny_star()
        StarHistory.attach(star)
        generation = star.generation
        before = _rows(star)
        star.insert_fact("F", {"D": "d0"}, {"v": 10.0})
        assert _rows(star) != before
        assert _rows(star, as_of=generation) == before

    def test_member_add_replays(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        generation = star.generation
        before = _rows(star)
        star.add_member("D", "G", "g2")
        star.add_member("D", "D", "d2", parents={"G": "g2"})
        star.insert_fact("F", {"D": "d2"}, {"v": 4.0})
        assert _rows(star, as_of=generation) == before
        # The reconstructed star must not know the later member.
        historical = history.as_of(generation)
        with pytest.raises(Exception):
            historical.dimension_table("D").member("G", "g2")

    def test_generation_before_eager_checkpoint_needs_older_base(self):
        """A read at a generation before a geometry load is answered
        from the checkpoint at that generation itself, replaying
        nothing: the level is not spatial there and its member has no
        geometry."""
        star = _tiny_star()
        history = StarHistory.attach(star)
        generation = star.generation
        before = (_rows(star), star_to_dict(star))
        star.become_spatial("D.G", GeometricType.POINT, {"g0": Point(1.0, 2.0)})
        # The baseline checkpoint anchors `generation` itself
        # (zero-length replay range).
        assert _rows(star, as_of=generation) == before[0]
        historical = history.as_of(generation)
        assert star_to_dict(historical) == before[1]
        assert not historical.schema.is_spatial_level("D.G")
        assert historical.dimension_table("D").member("G", "g0").geometry is None

    def test_reconstructions_are_cached(self):
        star = _tiny_star()
        history = StarHistory.attach(star)
        generation = star.generation
        star.insert_fact("F", {"D": "d0"}, {"v": 3.0})
        first = history.as_of(generation)
        assert history.as_of(generation) is first
        assert history.replays == 1

    def test_cached_reconstruction_follows_the_live_oracle(self, monkeypatch):
        """Setting the live star's oracle switch after generation ``g`` was
        reconstructed and cached sends ``as_of=g`` reads down the row
        loop too, and the cached star's own index paths with them."""
        from repro.olap import query as query_module

        star = _tiny_star()
        history = StarHistory.attach(star)
        generation = star.generation
        star.insert_fact("F", {"D": "d0"}, {"v": 3.0})
        warm = _rows(star, as_of=generation)
        assert history.replays == 1
        ran = []
        for name in ("_execute_rowloop", "_execute_vectorized"):
            real = getattr(query_module, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                ran.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(query_module, name, spy)
        star.oracle = True
        assert _rows(star, as_of=generation) == warm
        assert ran == ["_execute_rowloop"]
        assert history.replays == 1  # served from the cache
        assert history.as_of(generation).oracle
        star.oracle = False
        assert _rows(star, as_of=generation) == warm
        assert ran == ["_execute_rowloop", "_execute_vectorized"]
        assert not history.as_of(generation).oracle

    def test_evicted_log_range_raises(self):
        star = _tiny_star()
        star.mutation_log.max_entries = 2
        history = StarHistory.attach(star, checkpoint_interval=100)
        generation = star.generation
        for _ in range(4):  # evicts the oldest entries
            star.insert_fact("F", {"D": "d0"}, {"v": 1.0})
        history._stars.clear()  # drop any cached reconstruction
        with pytest.raises(HistoryError, match="no longer"):
            history.as_of(generation + 1)


class TestBitIdentity:
    """Acceptance pin: at every generation ``g``, ``as_of=g`` answers and
    the whole reconstructed star are bit-identical to what was recorded
    live at ``g``, for random schedules of every write a star sees once
    its tenant is loaded: fact appends, member adds, layer adds, feature
    adds and a level's geometry loads.  Comparing the whole star catches
    a checkpoint or a reconstruction that shares state with the live
    star."""

    # Each step: 0 = fact append to d0/d1, 1 = new member + fact on it,
    # 2 = new layer, 3 = feature on the newest layer, 4 = a geometry
    # load of g0 or g1.
    steps = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False
            ).map(lambda v: round(v, 4)),
        ),
        min_size=1,
        max_size=12,
    )

    @staticmethod
    def _step(star, index, kind, value, layers):
        if kind == 0:
            star.insert_fact("F", {"D": f"d{index % 2}"}, {"v": value})
        elif kind == 1:
            name = f"dx{index}"
            star.add_member("D", "D", name, parents={"G": "g0"})
            star.insert_fact("F", {"D": name}, {"v": value})
        elif kind == 2 or (kind == 3 and not layers):
            layers.append(f"L{index}")
            star.schema.add_layer(layers[-1], GeometricType.POINT)
            star.ensure_layer_table(layers[-1])
        elif kind == 3:
            star.add_features(layers[-1], [(f"f{index}", Point(value, index), None)])
        else:
            star.become_spatial(
                "D.G", GeometricType.POINT, {f"g{index % 2}": Point(value, index)}
            )

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=steps)
    def test_as_of_matches_recorded_answers(self, steps):
        star = _tiny_star()
        history = StarHistory.attach(star, checkpoint_interval=5)
        recorded = {star.generation: (_rows(star), star_to_dict(star))}
        layers = []
        for index, (kind, value) in enumerate(steps):
            self._step(star, index, kind, value, layers)
            recorded[star.generation] = (_rows(star), star_to_dict(star))
        for generation, (rows, data) in recorded.items():
            # Bit-identical: exact equality on the float cells, no
            # approx — replay must take the same code paths.
            assert _rows(star, as_of=generation) == rows
            assert star_to_dict(history.as_of(generation)) == data


class TestLateRegistration:
    def test_a_rule_registered_after_the_first_login_replays(
        self, world, user_schema, profile
    ):
        """``addCitySpatiality`` registered while the tenant serves loads
        City's geometries into a star whose history attached at the
        first login.  Reads at the load's generation and at a later
        sale's replay the load and answer as the live star did."""
        star = build_sales_star(world)
        engine = PersonalizationEngine(
            star, user_schema, geo_source=WorldGeoSource(world)
        )
        engine.add_rule(ADD_SPATIALITY)
        engine.start_session(profile, location=world.stores[0].location)
        attached = star.generation
        engine.add_rule(ADD_CITY_SPATIALITY)
        assert star.generation == attached + 1
        queries = [
            parse_query(text, star.schema)
            for text in (
                "SELECT SUM(UnitSales) FROM Sales BY Store.City",
                "SELECT COUNT(*) FROM Sales "
                "WHERE DISTANCE(Store.City, LAYER Airport) < 20 KM",
            )
        ]

        def answers(as_of=None):
            return [execute(star, q, as_of=as_of).to_rows() for q in queries]

        def append_sale():
            table = star.fact_table()
            row = table.row(0)
            star.insert_fact(
                table.fact.name,
                {d: row[d] for d in table.fact.dimension_names},
                {m: row[m] for m in table.fact.measures},
            )

        recorded = {star.generation: (answers(), star_to_dict(star))}
        append_sale()
        recorded[star.generation] = (answers(), star_to_dict(star))
        append_sale()  # every recorded generation is now a past one
        for generation, (rows, data) in recorded.items():
            assert answers(as_of=generation) == rows
            assert star_to_dict(engine.history.as_of(generation)) == data
