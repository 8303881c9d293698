"""Deterministic synthetic geography for the motivating example.

The paper's running example is a company sales SDW that was never
published; this generator builds an equivalent world: a rectangular
region divided into state cells, cities inside states, stores and
customers around cities, airports near a subset of cities, train lines
whose vertices pass *exactly* through the city and airport points they
serve (so Example 5.3's "the line contains a city and airport points"
holds by construction), and highways crossing the region.

All coordinates are metres on a local plane; all randomness flows from
one seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.geometry import LineString, Point, Polygon

__all__ = [
    "WorldConfig",
    "City",
    "Store",
    "Customer",
    "Airport",
    "TrainLine",
    "Highway",
    "State",
    "World",
    "generate_world",
]

_CITY_NAMES = [
    "Alicante", "Valencia", "Murcia", "Albacete", "Elche", "Cartagena",
    "Castellon", "Gandia", "Benidorm", "Orihuela", "Alcoy", "Torrevieja",
    "Denia", "Elda", "Lorca", "Cuenca", "Teruel", "Requena", "Xativa",
    "Villena", "Yecla", "Jumilla", "Caravaca", "Totana", "Aguilas",
    "Calpe", "Altea", "Javea", "Crevillente", "Petrer", "Sagunto",
    "Paterna", "Torrent", "Mislata", "Burjassot", "Ontinyent", "Buñol",
    "Utiel", "Segorbe", "Vinaros",
]


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic world; defaults give a small demo world."""

    seed: int = 7
    extent_km: float = 500.0
    states_x: int = 3
    states_y: int = 2
    cities_per_state: int = 5
    stores_per_city: int = 3
    customers_per_city: int = 10
    airport_city_ratio: float = 0.4
    train_lines: int = 4
    cities_per_train_line: int = 4
    highways: int = 3
    products: int = 20
    product_families: int = 4
    days: int = 90
    sales: int = 2_000

    def __post_init__(self) -> None:
        if self.extent_km <= 0:
            raise ReproError("extent_km must be positive")
        if self.states_x < 1 or self.states_y < 1:
            raise ReproError("need at least a 1x1 state grid")
        if not 0.0 <= self.airport_city_ratio <= 1.0:
            raise ReproError("airport_city_ratio must be within [0, 1]")
        if self.cities_per_train_line < 2:
            raise ReproError("train lines need at least 2 stops")


@dataclass
class State:
    name: str
    polygon: Polygon


@dataclass
class City:
    name: str
    state: str
    location: Point
    population: int


@dataclass
class Store:
    name: str
    city: str
    location: Point
    address: str


@dataclass
class Customer:
    name: str
    city: str
    location: Point
    address: str


@dataclass
class Airport:
    name: str
    city: str  # nearest served city
    location: Point


@dataclass
class TrainLine:
    name: str
    path: LineString
    #: Stop names in travel order; each is a city or airport name whose
    #: point is an exact vertex of ``path``.
    stops: tuple[str, ...]


@dataclass
class Highway:
    name: str
    path: LineString


@dataclass
class World:
    config: WorldConfig
    states: list[State] = field(default_factory=list)
    cities: list[City] = field(default_factory=list)
    stores: list[Store] = field(default_factory=list)
    customers: list[Customer] = field(default_factory=list)
    airports: list[Airport] = field(default_factory=list)
    train_lines: list[TrainLine] = field(default_factory=list)
    highways: list[Highway] = field(default_factory=list)

    def city(self, name: str) -> City:
        for city in self.cities:
            if city.name == name:
                return city
        raise ReproError(f"world has no city {name!r}")

    def airport(self, name: str) -> Airport:
        for airport in self.airports:
            if airport.name == name:
                return airport
        raise ReproError(f"world has no airport {name!r}")

    def summary(self) -> dict[str, int]:
        return {
            "states": len(self.states),
            "cities": len(self.cities),
            "stores": len(self.stores),
            "customers": len(self.customers),
            "airports": len(self.airports),
            "train_lines": len(self.train_lines),
            "highways": len(self.highways),
        }


def _city_name(index: int) -> str:
    if index < len(_CITY_NAMES):
        return _CITY_NAMES[index]
    return f"{_CITY_NAMES[index % len(_CITY_NAMES)]}{index // len(_CITY_NAMES) + 1}"


def generate_world(config: WorldConfig | None = None) -> World:
    """Build the deterministic world for a configuration."""
    config = config or WorldConfig()
    rng = random.Random(config.seed)
    world = World(config=config)
    extent = config.extent_km * 1000.0
    cell_w = extent / config.states_x
    cell_h = extent / config.states_y

    # States: grid cells.
    for sy in range(config.states_y):
        for sx in range(config.states_x):
            index = sy * config.states_x + sx
            x0, y0 = sx * cell_w, sy * cell_h
            world.states.append(
                State(
                    name=f"State{index + 1}",
                    polygon=Polygon(
                        [
                            (x0, y0),
                            (x0 + cell_w, y0),
                            (x0 + cell_w, y0 + cell_h),
                            (x0, y0 + cell_h),
                        ]
                    ),
                )
            )

    # Cities: random interior points of their state cell (margin 5%).
    city_index = 0
    for state in world.states:
        env = state.polygon.envelope
        margin_x = env.width * 0.05
        margin_y = env.height * 0.05
        for _ in range(config.cities_per_state):
            x = rng.uniform(env.min_x + margin_x, env.max_x - margin_x)
            y = rng.uniform(env.min_y + margin_y, env.max_y - margin_y)
            world.cities.append(
                City(
                    name=_city_name(city_index),
                    state=state.name,
                    location=Point(x, y),
                    population=rng.randint(20_000, 800_000),
                )
            )
            city_index += 1

    # Stores and customers: gaussian spread around their city.
    spread = min(cell_w, cell_h) * 0.04
    for city in world.cities:
        for s in range(config.stores_per_city):
            location = Point(
                city.location.x + rng.gauss(0.0, spread),
                city.location.y + rng.gauss(0.0, spread),
            )
            world.stores.append(
                Store(
                    name=f"{city.name} Store {s + 1}",
                    city=city.name,
                    location=location,
                    address=f"{rng.randint(1, 200)} Main St, {city.name}",
                )
            )
        for c in range(config.customers_per_city):
            location = Point(
                city.location.x + rng.gauss(0.0, spread * 2.0),
                city.location.y + rng.gauss(0.0, spread * 2.0),
            )
            world.customers.append(
                Customer(
                    name=f"Customer {city.name} {c + 1}",
                    city=city.name,
                    location=location,
                    address=f"{rng.randint(1, 900)} Elm St, {city.name}",
                )
            )

    # Airports near a deterministic subset of cities (offset ~8-15 km).
    airport_count = max(1, round(len(world.cities) * config.airport_city_ratio))
    airport_cities = rng.sample(world.cities, airport_count)
    for city in airport_cities:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(8_000.0, 15_000.0)
        world.airports.append(
            Airport(
                name=f"{city.name} Airport",
                city=city.name,
                location=Point(
                    city.location.x + radius * math.cos(angle),
                    city.location.y + radius * math.sin(angle),
                ),
            )
        )

    # Train lines: each visits one airport and a few cities, with vertices
    # exactly at the stop points (stations).
    for line_index in range(config.train_lines):
        if not world.airports:
            break
        airport = world.airports[line_index % len(world.airports)]
        other_cities = [c for c in world.cities if c.name != airport.city]
        stop_cities = rng.sample(
            other_cities,
            min(config.cities_per_train_line - 1, len(other_cities)),
        )
        # Order stops along distance from the airport for a plausible route.
        stop_cities.sort(
            key=lambda c: airport.location.distance_to(c.location)
        )
        home_city = world.city(airport.city)
        stops: list[tuple[str, Point]] = [
            (home_city.name, home_city.location),
            (airport.name, airport.location),
        ]
        stops.extend((c.name, c.location) for c in stop_cities)
        coords = [p.coord for _name, p in stops]
        deduped = [coords[0]]
        stop_names = [stops[0][0]]
        for (name, _p), coord in zip(stops[1:], coords[1:]):
            if coord != deduped[-1]:
                deduped.append(coord)
                stop_names.append(name)
        if len(deduped) < 2:
            continue
        world.train_lines.append(
            TrainLine(
                name=f"Line {line_index + 1}",
                path=LineString(deduped),
                stops=tuple(stop_names),
            )
        )

    # Highways: west-east / south-north polylines with gentle jitter.
    for h in range(config.highways):
        vertical = h % 2 == 1
        offset = extent * (h + 1) / (config.highways + 1)
        waypoints = []
        steps = 6
        for i in range(steps + 1):
            t = extent * i / steps
            jitter = rng.uniform(-extent * 0.02, extent * 0.02)
            if vertical:
                waypoints.append((offset + jitter, t))
            else:
                waypoints.append((t, offset + jitter))
        world.highways.append(
            Highway(name=f"Highway A{h + 1}", path=LineString(waypoints))
        )

    return world
