"""Portal-restart scenario: the warehouse is rebuilt, the profile persists.

The paper's user model "will be updated during the lifetime of the
system"; this test saves a user profile mid-interest, simulates a
process restart, and checks the widening behaviour resumes exactly where
it left off.  The star needs no snapshot: no login writes it, so a
restart rebuilds it from the world and the same registered rules.
"""

import json

from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.personalization import PersonalizationEngine
from repro.sus import UserProfile

CONDITION = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"


def _engine(world, user_schema):
    """A tenant as a (re)started process builds it: the world's star and
    the paper's rules."""
    engine = PersonalizationEngine(
        build_sales_star(world),
        user_schema,
        geo_source=WorldGeoSource(world),
        parameters={"threshold": 3},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    return engine


class TestRestart:
    def test_state_resumes_after_restart(self, world, user_schema):
        engine = _engine(world, user_schema)
        profile = build_regional_manager_profile(user_schema)

        # Session 1: personalize, accrue interest just below the threshold.
        session = engine.start_session(profile, world.stores[0].location)
        for _ in range(3):
            session.record_spatial_selection("GeoMD.Store.City", CONDITION)
        session.end()

        # --- "Restart": the profile from JSON, the tenant rebuilt ---------
        profile_json = json.dumps(profile.to_dict())

        restored_schema = build_motivating_user_model()
        restored_profile = UserProfile.from_dict(
            restored_schema, json.loads(profile_json)
        )
        assert restored_profile.degree("AirportCity") == 3
        restored_engine = _engine(world, restored_schema)

        # Session 2 on the restored state: still below threshold.
        session2 = restored_engine.start_session(
            restored_profile, world.stores[0].location
        )
        assert ("Store", "City") not in session2.selection.members

        # One more selection crosses the threshold; widening kicks in.
        session2.record_spatial_selection("GeoMD.Store.City", CONDITION)
        assert restored_profile.degree("AirportCity") == 4
        session2.rerun_instance_rules()
        assert ("Store", "City") in session2.selection.members
        session2.end()

    def test_restored_star_produces_identical_views(self, world, user_schema):
        engine = _engine(world, user_schema)
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile, world.stores[0].location)
        original_rows = set(session.view().fact_rows)
        session.end()

        restored_engine = _engine(world, user_schema)
        profile2 = build_regional_manager_profile(user_schema, name="Ana Two")
        session2 = restored_engine.start_session(
            profile2, world.stores[0].location
        )
        assert set(session2.view().fact_rows) == original_rows
        session2.end()
