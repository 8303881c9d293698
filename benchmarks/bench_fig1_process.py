"""FIG1 — the end-to-end personalization process (login to view)."""

from repro.data import build_regional_manager_profile


def test_fig1_process(benchmark, engine, world, user_schema):
    location = world.stores[0].location

    def full_process():
        profile = build_regional_manager_profile(user_schema)
        session = engine.start_session(profile, location=location)
        stats = session.view_stats()
        session.end()
        return stats

    stats = benchmark(full_process)
    assert stats["layers"] >= 1
    assert stats["spatial_levels"] >= 1
    assert 0 < stats["fact_rows_kept"] < stats["fact_rows_total"]
    benchmark.extra_info.update(stats)
    print("\n[FIG1] end-to-end process (MD -> GeoMD -> personalized instance):")
    print(f"  {stats}")
