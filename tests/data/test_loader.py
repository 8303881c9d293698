"""The loaded sales star is pinned bit for bit.

Each world's star is rendered with ``star_to_dict`` (members, fact
dictionaries in code order, code columns and measure columns) and
hashed, so any change to the draws, their order, the key encoding or
the measure values fails here.  The generations and the mutation log's
per-kind counts pin the writes the load makes: one ``member`` mutation
per member and one ``fact`` mutation for all the sales.
"""

import hashlib
import json

import pytest

from repro.data import WorldConfig, build_sales_star, generate_world
from repro.storage.snapshot import star_to_dict
from repro.workload.harness import build_tier_world, tier

PINS = {
    "default": (
        lambda: generate_world(WorldConfig()),
        "70ce7d4ca3230b11c7546640deb84677e37dc7f113d7465a7694285e71b5ade3",
        576,
        575,
        {"member": 575, "fact": 1},
    ),
    "medium": (
        lambda: build_tier_world(tier("medium")),
        "e69f0421207aa027494643459aa80f1b8757f6518ec3cddb71ae0bf9cfba47ac",
        1422,
        1421,
        {"member": 1421, "fact": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_the_loaded_star_is_pinned(name):
    make_world, digest, generation, metadata_generation, kinds = PINS[name]
    star = build_sales_star(make_world())
    rendered = json.dumps(star_to_dict(star), sort_keys=True, default=repr)
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest
    assert star.generation == generation
    assert star.metadata_generation == metadata_generation
    assert star.mutation_log.stats()["kinds"] == kinds
