"""Dictionary encoding for the columnar fact storage.

A :class:`Dictionary` interns the member keys of one fact dimension:
each distinct key string is assigned a small integer *code* in
first-appearance order, and the fact table stores an ``array('i')`` of
codes instead of a list of strings.  Scans, roll-up translation and
selection masks then operate on dense integer columns while the
row-dict API decodes on demand.

Codes are append-only: a key, once interned, keeps its code for the
table's lifetime, so posting lists, translation tables and masks built
against a dictionary prefix stay valid as the dictionary grows.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import StorageError

__all__ = ["Dictionary"]


class Dictionary:
    """Append-only interned key dictionary: ``key <-> code``.

    Not internally locked: writers (:meth:`encode`) must serialize under
    the owning fact table's insert lock; readers are safe concurrently
    because both sides of the mapping only ever append.
    """

    __slots__ = ("_keys", "_codes")

    def __init__(self, keys: Iterable[str] = ()) -> None:
        #: code -> key (dense, append-only)
        self._keys: list[str] = []
        #: key -> code
        self._codes: dict[str, int] = {}
        for key in keys:
            self.encode(key)

    def encode(self, key: str) -> int:
        """Code of ``key``, interning it on first sight."""
        code = self._codes.get(key)
        if code is None:
            code = len(self._keys)
            self._keys.append(key)
            self._codes[key] = code
        return code

    def code_of(self, key: str) -> int | None:
        """Code of an already-interned key, or ``None``."""
        return self._codes.get(key)

    def decode(self, code: int) -> str:
        try:
            return self._keys[code]
        except IndexError:
            raise StorageError(
                f"dictionary has no code {code} (size {len(self._keys)})"
            ) from None

    def decode_many(self, codes: Iterable[int]) -> list[str]:
        """Decode a code column back to its key strings (compat views)."""
        keys = self._keys
        try:
            return [keys[code] for code in codes]
        except IndexError:
            raise StorageError(
                f"code column references a code beyond the dictionary "
                f"(size {len(keys)})"
            ) from None

    def codes_of(self, keys: Iterable[str]) -> set[int]:
        """Codes of the given keys, silently skipping unknown ones.

        A key that was never interned cannot appear in any code column,
        so dropping it from a filter set is exact, not lossy.
        """
        codes = self._codes
        out: set[int] = set()
        for key in keys:
            code = codes.get(key)
            if code is not None:
                out.add(code)
        return out

    def lookup_mask(self, keys: Iterable[str]) -> bytearray:
        """``code -> 0/1`` byte table for the given allowed keys.

        The unit of vectorized selection: applying a filter to a code
        column is ``map(mask.__getitem__, column)``, never a per-row set
        lookup on strings.
        """
        mask = bytearray(len(self._keys))
        codes = self._codes
        for key in keys:
            code = codes.get(key)
            if code is not None:
                mask[code] = 1
        return mask

    def copy(self) -> "Dictionary":
        """An independent dictionary assigning the same codes."""
        copy = Dictionary()
        copy._keys = list(self._keys)
        copy._codes = dict(self._codes)
        return copy

    def keys(self) -> list[str]:
        """The interned keys in code order (a copy)."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._codes

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._keys))

    def __repr__(self) -> str:
        return f"<Dictionary n={len(self._keys)}>"
