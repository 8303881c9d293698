"""repro — reproduction of *Using Web-based Personalization on Spatial
Data Warehouses* (Glorio, Mazón, Garrigós & Trujillo, EDBT 2010).

Subpackages, bottom-up:

``repro.geometry``
    Planar geometry kernel (ISO/OGC subset): types, WKT, predicates,
    distance/intersection, metrics, spatial indexes.
``repro.uml``
    Minimal MOF/UML metamodel with profiles and stereotypes.
``repro.mdm``
    Multidimensional metamodel (facts, dimensions, Base levels,
    hierarchies) — the profile of Luján-Mora et al. [16].
``repro.geomd``
    Geographic MD extension: spatial levels, thematic layers,
    GeometricTypes, topological constraints.
``repro.storage``
    In-memory star schema: dimension/fact/layer tables.
``repro.olap``
    Spatial OLAP engine: cube queries, navigation, spatial aggregation,
    GeoMDQL-lite.
``repro.sus``
    Spatial-aware user model (the SUS profile of Fig. 3/4).
``repro.prml``
    PRML: lexer, parser, AST (Fig. 5), semantic analysis, evaluator,
    spatial operator runtime.
``repro.personalization``
    The Fig. 1 engine: rule phases, sessions, personalized views.
``repro.web``
    Web portal simulation (login → personalized analysis → logout).
``repro.data``
    Deterministic synthetic worlds and the paper's fixtures/rules.

Quickstart::

    from repro.data import (generate_world, build_sales_star, WorldGeoSource,
                            build_motivating_user_model,
                            build_regional_manager_profile, ALL_PAPER_RULES)
    from repro.personalization import PersonalizationEngine
    from repro.geometry import Point

    world = generate_world()
    star = build_sales_star(world)
    engine = PersonalizationEngine(star, build_motivating_user_model(),
                                   geo_source=WorldGeoSource(world),
                                   parameters={"threshold": 3})
    engine.add_rules(ALL_PAPER_RULES.values())
    profile = build_regional_manager_profile()
    session = engine.start_session(profile, location=Point(0.0, 0.0))
    print(session.view_stats())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
