"""Generator determinism: the single-rng, byte-identical-stream contract."""

import dataclasses
import json

import pytest

from repro.errors import ReproError
from repro.workload import (
    AS_OF_EPOCH,
    STREAM_FORMAT,
    EventStream,
    GeneratorConfig,
    WorkloadGenerator,
    default_profile,
)


def _generator(config):
    return WorkloadGenerator(
        default_profile(), config, [(0.0, 0.0), (100.0, 50.0), (30.0, 80.0)]
    )


class TestDeterminism:
    def test_same_seed_and_params_byte_identical(self, tiny_config):
        config = tiny_config
        one = _generator(config).stream().to_jsonl()
        two = _generator(config).stream().to_jsonl()
        assert one == two

    def test_repeated_stream_calls_on_one_generator_identical(self, tiny_config):
        generator = _generator(tiny_config)
        assert generator.stream().to_jsonl() == generator.stream().to_jsonl()

    def test_different_seed_differs(self, tiny_config):
        base = _generator(tiny_config).stream().to_jsonl()
        other = (
            _generator(dataclasses.replace(tiny_config, seed=tiny_config.seed + 1))
            .stream()
            .to_jsonl()
        )
        assert base != other

    def test_header_records_seed_and_config(self, tiny_stream, tiny_config):
        header = tiny_stream.header
        assert header["format"] == STREAM_FORMAT
        assert header["seed"] == tiny_config.seed
        assert header["config"]["users"] == tiny_config.users
        assert tiny_stream.seed == tiny_config.seed


class TestStreamShape:
    def test_every_session_framed_by_login(self, tiny_stream):
        first_event = {}
        for event in tiny_stream:
            first_event.setdefault(event.session, event.kind)
        assert set(first_event.values()) == {"login"}

    def test_sessions_round_robin_datamarts(self, tiny_stream, tiny_config):
        datamarts = {event.datamart for event in tiny_stream}
        assert datamarts == set(tiny_config.datamarts)

    def test_concurrency_bounds_open_sessions(self, tiny_stream, tiny_config):
        open_now = set()
        peak = 0
        for event in tiny_stream:
            if event.kind == "login":
                open_now.add(event.session)
            peak = max(peak, len(open_now))
            if event.kind == "logout":
                open_now.discard(event.session)
        assert peak <= tiny_config.concurrency

    def test_population_is_lazy_million_users_cheap(self):
        config = GeneratorConfig(
            seed=3, users=1_000_000, sessions=5, events_per_session=(2, 3)
        )
        stream = _generator(config).stream()
        assert len(stream.active_users()) <= 5
        assert all(event.user.startswith("wl-") for event in stream)

    def test_as_of_reads_carry_symbolic_epoch(self):
        profile = default_profile()
        analysts = profile.cohort("analysts")
        hot = dataclasses.replace(analysts, as_of_rate=1.0)
        forced = dataclasses.replace(
            profile, cohorts=(hot,) + tuple(
                c for c in profile.cohorts if c.name != "analysts"
            )
        )
        config = GeneratorConfig(seed=5, users=20, sessions=10)
        stream = WorkloadGenerator(forced, config, [(0.0, 0.0)]).stream()
        markers = [
            event.payload["as_of"]
            for event in stream
            if event.kind == "query" and "as_of" in event.payload
        ]
        assert markers and set(markers) == {AS_OF_EPOCH}


class TestSerialization:
    def test_jsonl_round_trip(self, tiny_stream):
        text = tiny_stream.to_jsonl()
        back = EventStream.from_jsonl(text)
        assert back.to_jsonl() == text
        assert len(back) == len(tiny_stream)

    def test_from_jsonl_rejects_foreign_documents(self):
        with pytest.raises(ReproError):
            EventStream.from_jsonl(json.dumps({"format": "something-else"}))
        with pytest.raises(ReproError):
            EventStream.from_jsonl("")

    def test_describe_reports_fact_rows(self, tiny_stream):
        summary = tiny_stream.describe(fact_rows=500)
        assert summary["fact_rows"] == 500
        assert "fact_rows" not in tiny_stream.describe()
        assert summary["sessions"] == 8


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"users": 0},
            {"sessions": 0},
            {"events_per_session": (5, 2)},
            {"concurrency": 0},
            {"datamarts": ()},
            {"fact_multiplier": 0},
            {"abandon_rate": 1.5},
        ],
    )
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ReproError):
            GeneratorConfig(**overrides)

    def test_config_round_trips(self, tiny_config):
        assert GeneratorConfig.from_dict(tiny_config.to_dict()) == tiny_config
