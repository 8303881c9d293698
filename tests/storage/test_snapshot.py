"""Tests for ``star_to_dict``, the equality oracle of the copy and
history tests (a star has no persistence path to round-trip through)."""

from repro.storage.snapshot import star_to_dict


class TestEncodedColumns:
    def test_snapshot_is_dictionary_encoded(self, star):
        data = star_to_dict(star)
        fact_data = data["facts"]["Sales"]
        assert "keys" not in fact_data
        codes = fact_data["codes"]["Store"]
        interned = fact_data["dictionaries"]["Store"]
        assert all(isinstance(code, int) for code in codes)
        decoded = [interned[code] for code in codes]
        assert decoded == star.fact_table().key_column("Store")
