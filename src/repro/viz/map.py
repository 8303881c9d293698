"""Render a personalized session as an SVG map.

The paper's stated future work: "we plan to extend this approach
considering visualization aspects of the SDW mainly focus on spatial BI
tools" (Section 6).  This module implements that extension: a spatial-BI
style map of one decision maker's personalized view —

* state cells and city markers for orientation;
* every store, with the *selected* stores highlighted;
* the session location and its 5 km zone (Example 5.2);
* airport features and train lines once the layers exist, with the
  widened cities marked (Example 5.3).
"""

from __future__ import annotations

from repro.data.world import World
from repro.errors import ReproError
from repro.geometry import Envelope, Point
from repro.personalization.engine import PersonalizedSession
from repro.viz.svg import SVGCanvas, Viewport

__all__ = ["render_session_map", "render_world_map"]

_STYLE = {
    "state_fill": "#f7f7f2",
    "state_stroke": "#b0b0a8",
    "city": "#8c8c84",
    "store": "#9dbcd4",
    "store_selected": "#d62728",
    "airport": "#7a43b6",
    "train": "#2ca02c",
    "highway": "#c9c9bf",
    "user": "#ff7f0e",
    "widened_city": "#2ca02c",
}


def _world_envelope(world: World) -> Envelope:
    env = world.states[0].polygon.envelope
    for state in world.states[1:]:
        env = env.union(state.polygon.envelope)
    return env


def render_world_map(world: World, width: int = 800, height: int = 600) -> str:
    """The raw world, before any personalization (for comparison)."""
    viewport = Viewport(_world_envelope(world), width, height)
    canvas = SVGCanvas(viewport, title=f"world seed={world.config.seed}")
    _draw_base(canvas, world)
    _draw_legend(canvas, selected=False, widened=False)
    return canvas.render()


def render_session_map(
    session: PersonalizedSession,
    world: World,
    width: int = 800,
    height: int = 600,
    zone_radius_m: float = 5_000.0,
) -> str:
    """A personalized session as a spatial-BI map."""
    if session.closed:
        raise ReproError("cannot render a closed session")
    viewport = Viewport(_world_envelope(world), width, height)
    canvas = SVGCanvas(
        viewport, title=f"personalized view: {session.profile.user_id}"
    )
    _draw_base(canvas, world)

    selection = session.selection
    selected_stores = selection.members.get(("Store", "Store"), set())
    widened_cities = selection.members.get(("Store", "City"), set())

    # Layers present in the session's personalized schema.
    schema = session.context.geomd_schema
    if "Train" in schema.layers:
        for line in world.train_lines:
            canvas.polyline(
                list(line.path.coord_list),
                stroke=_STYLE["train"],
                stroke_width=2,
                stroke_dasharray="6,3",
            )
    if "Airport" in schema.layers:
        for airport in world.airports:
            canvas.circle(
                airport.location.x,
                airport.location.y,
                5,
                fill=_STYLE["airport"],
            )
            canvas.text(
                airport.location.x,
                airport.location.y,
                "✈",
                font_size=10,
                fill="#ffffff",
                text_anchor="middle",
            )

    # Widened cities (Example 5.3).
    for city in world.cities:
        if city.name in widened_cities:
            canvas.circle(
                city.location.x,
                city.location.y,
                9,
                fill="none",
                stroke=_STYLE["widened_city"],
                stroke_width=2.5,
            )

    # Stores, highlighting the selection.
    for store in world.stores:
        selected = store.name in selected_stores
        canvas.circle(
            store.location.x,
            store.location.y,
            4 if selected else 2.5,
            fill=_STYLE["store_selected"] if selected else _STYLE["store"],
        )

    # The user's location context and 5 km zone.
    profile = session.profile
    if profile.has("DecisionMaker.dm2session.s2location.geometry"):
        location = profile.get("DecisionMaker.dm2session.s2location.geometry")
        assert isinstance(location, Point)
        canvas.world_circle(
            location.x,
            location.y,
            zone_radius_m,
            fill="none",
            stroke=_STYLE["user"],
            stroke_width=1.5,
            stroke_dasharray="4,2",
        )
        canvas.circle(location.x, location.y, 5, fill=_STYLE["user"])

    _draw_legend(canvas, selected=True, widened=bool(widened_cities))
    return canvas.render()


def _draw_base(canvas: SVGCanvas, world: World) -> None:
    for state in world.states:
        canvas.polygon(
            list(state.polygon.shell),
            fill=_STYLE["state_fill"],
            stroke=_STYLE["state_stroke"],
            stroke_width=1,
        )
    for highway in world.highways:
        canvas.polyline(
            list(highway.path.coord_list),
            stroke=_STYLE["highway"],
            stroke_width=1.5,
        )
    for city in world.cities:
        canvas.circle(city.location.x, city.location.y, 3, fill=_STYLE["city"])
        canvas.text(
            city.location.x,
            city.location.y + canvas.viewport.world.height * 0.012,
            city.name,
            font_size=8,
            fill="#5c5c55",
            text_anchor="middle",
        )


def _draw_legend(canvas: SVGCanvas, selected: bool, widened: bool) -> None:
    entries = [("city", _STYLE["city"]), ("store", _STYLE["store"])]
    if selected:
        entries.append(("selected store", _STYLE["store_selected"]))
        entries.append(("user + 5km zone", _STYLE["user"]))
        entries.append(("airport", _STYLE["airport"]))
    if widened:
        entries.append(("train line", _STYLE["train"]))
        entries.append(("widened city", _STYLE["widened_city"]))
    x, y = 10.0, 14.0
    canvas.screen_rect(
        x - 4, y - 12, 130, 14 * len(entries) + 8, fill="#ffffff", opacity=0.85
    )
    for label, color in entries:
        canvas.screen_text(x + 12, y + 3, label, font_size=10, fill="#333")
        canvas._elements.append(
            f'<circle cx="{x + 4}" cy="{y}" r="4" fill="{color}"/>'
        )
        y += 14
