"""Round-trip property tests for the serialization codecs.

Every entry kind a backend holds must decode back to an equal live
object (hypothesis-generated payloads), and every corrupt payload must
be rejected with :class:`CodecError` — never decoded into garbage.
"""

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.codecs import (
    CodecError,
    decode_journal_event,
    decode_selection,
    decode_session_record,
    decode_session_state,
    encode_journal_event,
    encode_selection,
    encode_session_record,
    encode_session_state,
)
from repro.prml.evaluator import SelectionSet
from repro.reco.journal import WorkloadEvent

# JSON-exact scalars: finite floats round-trip bit-for-bit through
# json.dumps/loads, NaN would break equality checks.
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)

_json_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=4),
    ),
    max_leaves=12,
)

_meta = st.dictionaries(st.text(max_size=16), _json_value, max_size=5)

_name = st.text(min_size=1, max_size=8)


@st.composite
def _selections(draw):
    """A :class:`SelectionSet` grown through its own API."""
    selection = SelectionSet()
    for dimension, level, key in draw(
        st.lists(st.tuples(_name, _name, _name), max_size=8)
    ):
        selection.add_member(dimension, level, key)
    for layer, name in draw(st.lists(st.tuples(_name, _name), max_size=4)):
        selection.add_feature(layer, name)
    return selection


def _same_selection(decoded, selection):
    assert decoded.members == selection.members
    assert decoded.features == selection.features
    assert decoded.generation == selection.generation
    assert decoded.fingerprint() == selection.fingerprint()


class TestSessionRecordCodec:
    @given(
        token=st.text(min_size=1, max_size=30),
        datamart=st.text(min_size=1, max_size=20),
        user_id=st.text(min_size=1, max_size=20),
        created_at=st.floats(min_value=0, max_value=1e9),
        last_access=st.floats(min_value=0, max_value=1e9),
        meta=_meta,
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip(
        self, token, datamart, user_id, created_at, last_access, meta
    ):
        encoded = encode_session_record(
            token=token,
            datamart=datamart,
            user_id=user_id,
            created_at=created_at,
            last_access=last_access,
            meta=meta,
        )
        fields = decode_session_record(encoded)
        assert fields["token"] == token
        assert fields["datamart"] == datamart
        assert fields["user_id"] == user_id
        assert fields["created_at"] == created_at
        assert fields["last_access"] == last_access
        assert fields["meta"] == json.loads(json.dumps(meta))

    @given(selection=_selections(), schema_set=st.lists(_name, max_size=4))
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_selection_round_trip(self, selection, schema_set):
        """The session's state, as the service writes it into ``meta``."""
        session = SimpleNamespace(
            selection=selection,
            context=SimpleNamespace(schema_set=tuple(schema_set)),
        )
        encoded = encode_session_record(
            token="t",
            datamart="d",
            user_id="u",
            created_at=0.0,
            last_access=0.0,
            meta={"journal": True, **encode_session_state(session)},
        )
        meta = decode_session_record(encoded)["meta"]
        decoded_set, decoded = decode_session_state(meta)
        _same_selection(decoded, selection)
        assert decoded_set == tuple(schema_set)

    def test_v1_rows_are_version_skew_misses(self):
        """A v1 record carried a log of selection reports to replay, not
        the session's state: rejected, so the store deletes it."""
        v1 = json.dumps(
            {"v": 1, "token": "t", "datamart": "d", "user_id": "u",
             "created_at": 0, "last_access": 0,
             "meta": {"selections": [["GeoMD.Store.City", "c"]]}}
        )
        with pytest.raises(CodecError):
            decode_session_record(v1)

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            "[1, 2, 3]",
            '"a string"',
            json.dumps({"v": 99, "token": "t"}),
            json.dumps({"token": "t"}),  # no version at all
            json.dumps({"v": 1, "token": 17, "datamart": "d", "user_id": "u",
                        "created_at": 0, "last_access": 0, "meta": {}}),
            json.dumps({"v": 1, "token": "t", "datamart": "d", "user_id": "u",
                        "created_at": "soon", "last_access": 0, "meta": {}}),
            json.dumps({"v": 1, "token": "t", "datamart": "d", "user_id": "u",
                        "created_at": 0, "last_access": 0, "meta": [1]}),
            # The same corrupt fields at the current version.
            json.dumps({"v": 2, "token": 17, "datamart": "d", "user_id": "u",
                        "created_at": 0, "last_access": 0, "meta": {}}),
            json.dumps({"v": 2, "token": "t", "datamart": "d", "user_id": "u",
                        "created_at": "soon", "last_access": 0, "meta": {}}),
            json.dumps({"v": 2, "token": "t", "datamart": "d", "user_id": "u",
                        "created_at": 0, "last_access": 0, "meta": [1]}),
        ],
    )
    def test_corrupt_rejected(self, text):
        with pytest.raises(CodecError):
            decode_session_record(text)


class TestSelectionCodec:
    @pytest.mark.parametrize(
        "data",
        [
            None,
            [["Store", "Store", ["S1"]]],
            {"members": [], "features": []},  # no generation
            {"members": [["Store", "Store", "S1"]], "features": [],
             "generation": 1},  # keys not a list
            {"members": [["Store", "Store", [1]]], "features": [],
             "generation": 1},
            {"members": [["Store", ["S1"]]], "features": [], "generation": 1},
            {"members": [], "features": [["Airport"]], "generation": 1},
            {"members": "Store", "features": [], "generation": 1},
        ],
    )
    def test_corrupt_rejected(self, data):
        with pytest.raises(CodecError):
            decode_selection(data)

    @pytest.mark.parametrize(
        "meta",
        [
            {},
            {"selection": encode_selection(SelectionSet())},  # no schema set
            {"selection": encode_selection(SelectionSet()), "schema_set": "layer:A"},
            {"selection": encode_selection(SelectionSet()), "schema_set": [1]},
            {"schema_set": []},  # no selection
            {"selection": [], "schema_set": []},
        ],
    )
    def test_corrupt_session_state_rejected(self, meta):
        with pytest.raises(CodecError):
            decode_session_state(meta)


class TestJournalEventCodec:
    @given(
        seq=st.integers(min_value=1, max_value=2**40),
        kind=st.sampled_from(["query", "selection", "layer"]),
        datamart=st.text(min_size=1, max_size=20),
        user_id=st.text(min_size=1, max_size=20),
        payload=st.dictionaries(st.text(max_size=10), _json_value, max_size=4),
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_round_trip(self, seq, kind, datamart, user_id, payload):
        event = WorkloadEvent(
            seq=seq, kind=kind, datamart=datamart, user_id=user_id,
            payload=payload,
        )
        decoded = decode_journal_event(encode_journal_event(event))
        assert decoded.seq == event.seq
        assert decoded.kind == event.kind
        assert decoded.datamart == event.datamart
        assert decoded.user_id == event.user_id
        # Both payloads went through _freeze; equality is deep.
        assert decoded.payload == event.payload

    def test_decoded_payload_is_frozen(self):
        event = WorkloadEvent(
            seq=1, kind="query", datamart="d", user_id="u",
            payload={"q": "SELECT", "tags": ["a", "b"]},
        )
        decoded = decode_journal_event(encode_journal_event(event))
        with pytest.raises(TypeError):
            decoded.payload["q"] = "overwritten"
        assert isinstance(decoded.payload["tags"], tuple)

    @pytest.mark.parametrize(
        "text",
        [
            "garbage",
            json.dumps({"v": 2, "seq": 1}),
            json.dumps({"v": 1, "seq": "one", "kind": "query",
                        "datamart": "d", "user_id": "u", "payload": {}}),
            json.dumps({"v": 1, "seq": 1, "kind": "query",
                        "datamart": "d", "user_id": "u", "payload": "no"}),
        ],
    )
    def test_corrupt_rejected(self, text):
        with pytest.raises(CodecError):
            decode_journal_event(text)
