"""Versioned serialization codecs for the two externalized stores.

Every entry a :class:`~repro.cluster.backend.StateBackend` holds is JSON
text produced here, stamped with a ``"v"`` schema version so a future
layout change can coexist with persisted state from an older build.
Decoding is strict: corrupt text, a non-object payload, an unknown
version or a missing/mistyped field raises :class:`CodecError` — the
caller treats the entry as poisoned and drops it rather than serving
garbage.

The two entry kinds mirror the shared stores, which keep state only
(derived results stay in each worker's heap):

* **session records** — the restorable part of a
  :class:`~repro.service.sessions.SessionRecord`: token, tenant, user,
  clocks and the JSON-safe ``meta`` dict (journal opt-out, login
  location, and the session's selection and schema-set key in
  :func:`encode_session_state` form).  The live session object is *not*
  serialized — a worker resolving a cold token restores it through the
  engine from that state, firing no rule.
* **journal events** — :class:`~repro.reco.journal.WorkloadEvent` with
  its payload thawed to plain JSON; decoding re-freezes it through the
  event's own constructor, so persisted history is exactly as immutable
  as in-heap history.

Timestamps are ``time.monotonic()`` values.  On Linux that clock is
machine-wide (``CLOCK_MONOTONIC``), so TTL arithmetic stays valid across
the pre-fork pool's processes; it is *not* valid across reboots, which
is fine — sessions are idle-TTL state, not durable data.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import StorageError

__all__ = [
    "CodecError",
    "encode_selection",
    "decode_selection",
    "encode_session_record",
    "decode_session_record",
    "encode_session_state",
    "decode_session_state",
    "encode_journal_event",
    "decode_journal_event",
]


class CodecError(StorageError):
    """A persisted entry cannot be decoded (corrupt or unknown version)."""


def _loads(text: str, kind: str, version: int) -> dict:
    """Parse + envelope-check one encoded entry."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"corrupt {kind} entry: {exc}") from exc
    if not isinstance(data, dict):
        raise CodecError(
            f"corrupt {kind} entry: expected an object, got "
            f"{type(data).__name__}"
        )
    if data.get("v") != version:
        raise CodecError(
            f"unknown {kind} codec version {data.get('v')!r} "
            f"(this build reads v{version})"
        )
    return data


def _field(data: dict, kind: str, name: str, types) -> object:
    value = data.get(name)
    if not isinstance(value, types):
        raise CodecError(
            f"corrupt {kind} entry: field {name!r} is "
            f"{type(value).__name__}, expected "
            f"{getattr(types, '__name__', types)}"
        )
    return value


def _thaw(value: object) -> object:
    """Deep-convert a frozen journal payload to plain JSON values.

    Inverts :func:`repro.reco.journal._freeze` for serialization:
    mapping proxies become dicts, tuples become lists, frozensets become
    *sorted* lists (sets are unordered in the heap and JSON has no set,
    so the sorted form is their canonical encoding).
    """
    if isinstance(value, Mapping):
        return {key: _thaw(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_thaw(inner) for inner in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_thaw(inner) for inner in value)
    return value


# -- selections -------------------------------------------------------------------


def encode_selection(selection) -> dict:
    """The JSON form of a :class:`~repro.prml.evaluator.SelectionSet`:
    its member and feature content, sorted, and its generation."""
    return {
        "members": sorted(
            [dimension, level, sorted(keys)]
            for (dimension, level), keys in selection.members.items()
        ),
        "features": sorted(
            [layer, sorted(names)] for layer, names in selection.features.items()
        ),
        "generation": selection.generation,
    }


def decode_selection(data: object):
    """Rebuild a :class:`SelectionSet` from :func:`encode_selection`'s
    form, raising :class:`CodecError` on any other shape."""
    from repro.prml.evaluator import SelectionSet

    if not isinstance(data, dict):
        raise CodecError(
            f"corrupt selection: expected an object, got {type(data).__name__}"
        )
    members = _field(data, "selection", "members", list)
    features = _field(data, "selection", "features", list)
    selection = SelectionSet()
    selection.generation = _field(data, "selection", "generation", int)
    try:
        for dimension, level, keys in members:
            _check_names("selection", keys, dimension, level)
            selection.members[(dimension, level)] = set(keys)
        for layer, names in features:
            _check_names("selection", names, layer)
            selection.features[layer] = set(names)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"corrupt selection: {exc}") from exc
    return selection


def _check_names(kind: str, keys: object, *names: object) -> None:
    if not isinstance(keys, list) or not all(
        isinstance(name, str) for name in (*names, *keys)
    ):
        raise CodecError(f"corrupt {kind}: a name or key is not a string")


# -- session records ------------------------------------------------------------

# v2: ``meta`` carries the session's selection and schema set, which a
# worker restores; a v1 row carried a log of selection reports to replay
# and fails the version check, a miss that deletes the row.
SESSION_RECORD_VERSION = 2


def encode_session_record(
    token: str,
    datamart: str,
    user_id: str,
    created_at: float,
    last_access: float,
    meta: dict,
) -> str:
    """Encode the restorable fields of one session record.

    ``meta`` must be JSON-safe — the service keeps it that way (the
    journal flag is a bool, the login location a ``[x, y]`` pair, and
    :func:`encode_session_state` gives the selection and schema set).
    """
    return json.dumps(
        {
            "v": SESSION_RECORD_VERSION,
            "token": token,
            "datamart": datamart,
            "user_id": user_id,
            "created_at": created_at,
            "last_access": last_access,
            "meta": meta,
        },
        separators=(",", ":"),
    )


def decode_session_record(text: str) -> dict:
    """Decode to a plain field dict (the store builds the live record)."""
    data = _loads(text, "session-record", SESSION_RECORD_VERSION)
    return {
        "token": _field(data, "session-record", "token", str),
        "datamart": _field(data, "session-record", "datamart", str),
        "user_id": _field(data, "session-record", "user_id", str),
        "created_at": float(
            _field(data, "session-record", "created_at", (int, float))
        ),
        "last_access": float(
            _field(data, "session-record", "last_access", (int, float))
        ),
        "meta": _field(data, "session-record", "meta", dict),
    }


def encode_session_state(session) -> dict:
    """What a restore needs of a live session, as ``meta`` entries of
    its record: the selection in :func:`encode_selection` form and the
    schema-set key as a list."""
    return {
        "selection": encode_selection(session.selection),
        "schema_set": list(session.context.schema_set),
    }


def decode_session_state(meta: dict):
    """The ``(schema_set, selection)`` that :func:`encode_session_state`
    wrote into ``meta``, raising :class:`CodecError` if either is
    missing or malformed."""
    schema_set = meta.get("schema_set")
    _check_names("session state", schema_set)
    return tuple(schema_set), decode_selection(meta.get("selection"))


# -- journal events --------------------------------------------------------------

JOURNAL_EVENT_VERSION = 1


def encode_journal_event(event) -> str:
    """Encode one :class:`~repro.reco.journal.WorkloadEvent`."""
    return json.dumps(
        {
            "v": JOURNAL_EVENT_VERSION,
            "seq": event.seq,
            "kind": event.kind,
            "datamart": event.datamart,
            "user_id": event.user_id,
            "payload": _thaw(event.payload),
        },
        separators=(",", ":"),
    )


def decode_journal_event(text: str):
    """Decode to a live (re-frozen) :class:`WorkloadEvent`."""
    from repro.reco.journal import WorkloadEvent

    data = _loads(text, "journal-event", JOURNAL_EVENT_VERSION)
    return WorkloadEvent(
        seq=int(_field(data, "journal-event", "seq", int)),
        kind=_field(data, "journal-event", "kind", str),
        datamart=_field(data, "journal-event", "datamart", str),
        user_id=_field(data, "journal-event", "user_id", str),
        # WorkloadEvent.__post_init__ re-freezes the payload deeply, so
        # the decoded event is as tamper-proof as an in-heap one.
        payload=_field(data, "journal-event", "payload", dict),
    )
