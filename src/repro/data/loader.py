"""Load a synthetic world into the Fig. 2 star schema.

Builds the GeoMD-ready star: dimension members with roll-up links, a
seeded sales fact stream with plausible measure distributions, and (on
demand, through the personalization rules) geographic layers.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from repro.data.sales_schema import FACT_NAME, build_sales_schema
from repro.data.world import World
from repro.geomd.schema import GeoMDSchema
from repro.storage.star import StarSchema

__all__ = ["build_sales_star", "load_world"]

_FAMILY_NAMES = ["Food", "Drink", "Household", "Electronics", "Clothing", "Garden"]

_MONTH_OF_QUARTER = {1: "Q1", 2: "Q1", 3: "Q1", 4: "Q2", 5: "Q2", 6: "Q2",
                     7: "Q3", 8: "Q3", 9: "Q3", 10: "Q4", 11: "Q4", 12: "Q4"}


def load_world(world: World, star: StarSchema) -> None:
    """Fill an empty star with the world's dimension members and sales."""
    config = world.config
    rng = random.Random(config.seed + 1)

    # -- Store dimension (State <- City <- Store) ---------------------------
    for state in world.states:
        star.add_member("Store", "State", state.name)
    for city in world.cities:
        star.add_member(
            "Store",
            "City",
            city.name,
            {"population": city.population},
            parents={"State": city.state},
        )
    for store in world.stores:
        star.add_member(
            "Store",
            "Store",
            store.name,
            {"address": store.address},
            parents={"City": store.city},
        )

    # -- Customer dimension (City <- Customer) -------------------------------
    for city in world.cities:
        star.add_member("Customer", "City", city.name)
    for customer in world.customers:
        star.add_member(
            "Customer",
            "Customer",
            customer.name,
            {"address": customer.address},
            parents={"City": customer.city},
        )

    # -- Product dimension (Family <- Product) -------------------------------
    families = [
        _FAMILY_NAMES[i % len(_FAMILY_NAMES)]
        + ("" if i < len(_FAMILY_NAMES) else str(i // len(_FAMILY_NAMES) + 1))
        for i in range(config.product_families)
    ]
    for family in families:
        star.add_member("Product", "Family", family)
    product_names = []
    for p in range(config.products):
        family = families[p % len(families)]
        name = f"{family} Product {p + 1}"
        product_names.append(name)
        star.add_member(
            "Product",
            "Product",
            name,
            {"list_price": round(rng.uniform(1.0, 120.0), 2)},
            parents={"Family": family},
        )

    # -- Time dimension (Year <- Quarter <- Month <- Day) ----------------------
    start = date(2009, 1, 1)
    seen_years: set[str] = set()
    seen_quarters: set[str] = set()
    seen_months: set[str] = set()
    day_names: list[str] = []
    for offset in range(config.days):
        day = start + timedelta(days=offset)
        year_name = str(day.year)
        quarter_name = f"{year_name}-{_MONTH_OF_QUARTER[day.month]}"
        month_name = f"{year_name}-{day.month:02d}"
        day_name = day.isoformat()
        if year_name not in seen_years:
            star.add_member("Time", "Year", year_name)
            seen_years.add(year_name)
        if quarter_name not in seen_quarters:
            star.add_member(
                "Time", "Quarter", quarter_name, parents={"Year": year_name}
            )
            seen_quarters.add(quarter_name)
        if month_name not in seen_months:
            star.add_member(
                "Time", "Month", month_name, parents={"Quarter": quarter_name}
            )
            seen_months.add(month_name)
        star.add_member(
            "Time",
            "Day",
            day_name,
            {"date": day_name},
            parents={"Month": month_name},
        )
        day_names.append(day_name)

    # -- Sales facts -------------------------------------------------------------
    store_names = [s.name for s in world.stores]
    customer_names = [c.name for c in world.customers]
    stores: list[str] = []
    customers: list[str] = []
    products: list[str] = []
    days: list[str] = []
    unit_sales: list[int] = []
    store_cost: list[float] = []
    store_sales: list[float] = []
    for _ in range(config.sales):
        stores.append(rng.choice(store_names))
        customers.append(rng.choice(customer_names))
        products.append(rng.choice(product_names))
        days.append(rng.choice(day_names))
        units = rng.randint(1, 10)
        unit_cost = rng.uniform(0.5, 80.0)
        margin = rng.uniform(1.1, 1.6)
        unit_sales.append(units)
        store_cost.append(round(units * unit_cost, 2))
        store_sales.append(round(units * unit_cost * margin, 2))
    # One columnar batch: one lock acquisition, one encode pass per key
    # column, one StarMutation for the whole load.
    star.insert_columns(
        FACT_NAME,
        {"Store": stores, "Customer": customers, "Product": products, "Time": days},
        {"UnitSales": unit_sales, "StoreCost": store_cost, "StoreSales": store_sales},
    )


def build_sales_star(world: World) -> StarSchema:
    """Fig. 2 schema (lifted to GeoMD) + the world's instances, bound."""
    schema = GeoMDSchema.from_md(build_sales_schema())
    star = StarSchema(schema)
    load_world(world, star)
    return star
