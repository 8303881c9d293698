"""GeoMDQL-lite: a textual query language for the spatial OLAP engine.

The paper's related work (da Silva et al. [4]) introduces GeoMDQL, a query
language that "allows simultaneous usage of both multidimensional and
spatial operators".  The examples and the web portal need exactly that
capability for ad-hoc analysis, so this module provides a compact dialect
compiling to :class:`~repro.olap.query.CubeQuery`:

.. code-block:: text

    SELECT SUM(UnitSales), COUNT(*)
    FROM Sales
    BY Store.City, Time.Month
    WHERE Product.family = 'Food'
      AND DISTANCE(Store, LAYER Airport) < 20 KM
      AND INSIDE(Store.City, LAYER Region)

Keywords are case-insensitive; identifiers are case-sensitive (they name
schema elements).  Distance quantities accept ``M``, ``KM`` and ``MI``
suffixes (default metres).

A query is parsed against the schema its reader sees — a session's
personalized GeoMD schema — so a spatial filter on a level that schema
has not made spatial, or against a layer it lacks, is rejected here even
when the tenant's star holds the geometries.
"""

from __future__ import annotations

import math
import re

from repro.errors import QueryError
from repro.geomd.schema import GeoMDSchema
from repro.geometry.metrics import convert_to_metres
from repro.mdm.model import Aggregator, MDSchema
from repro.olap.query import (
    AggSpec,
    AttributeFilter,
    ComparisonOp,
    CubeQuery,
    LayerRef,
    LevelRef,
    SpatialFilter,
    SpatialRelation,
    resolve_name,
    resolve_spatial_level,
)

__all__ = ["parse_query"]

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>'(?:[^']|'')*')
      | (?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>)
      | (?P<punct>[(),.*])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT",
    "FROM",
    "BY",
    "WHERE",
    "AND",
    "LAYER",
    "IN",
    "KM",
    "M",
    "MI",
}

_SPATIAL_FUNCTIONS = {
    "DISTANCE": SpatialRelation.DISTANCE,
    "WITHIN": SpatialRelation.INSIDE,
    "INSIDE": SpatialRelation.INSIDE,
    "INTERSECT": SpatialRelation.INTERSECT,
    "INTERSECTS": SpatialRelation.INTERSECT,
    "DISJOINT": SpatialRelation.DISJOINT,
    "CROSS": SpatialRelation.CROSS,
    "CROSSES": SpatialRelation.CROSS,
    "EQUALS": SpatialRelation.EQUALS,
    "CONTAINS": SpatialRelation.CONTAINS,
}

_COMPARISONS = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "!=": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}


class _Tokens:
    def __init__(self, text: str) -> None:
        self.items: list[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise QueryError(f"cannot tokenize query near {rest[:25]!r}")
            token = next(v for v in match.groupdict().values() if v is not None)
            self.items.append(token)
            pos = match.end()
        self.index = 0

    def peek(self) -> str | None:
        return self.items[self.index] if self.index < len(self.items) else None

    def peek_upper(self) -> str | None:
        token = self.peek()
        return token.upper() if token is not None else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self.index += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        token = self.next()
        if token.upper() != keyword:
            raise QueryError(f"expected {keyword}, found {token!r}")

    def expect_punct(self, punct: str) -> None:
        token = self.next()
        if token != punct:
            raise QueryError(f"expected {punct!r}, found {token!r}")

    def accept_keyword(self, keyword: str) -> bool:
        if self.peek_upper() == keyword:
            self.next()
            return True
        return False


def _parse_agg(tokens: _Tokens) -> AggSpec:
    func = tokens.next().upper()
    try:
        aggregator = Aggregator[func if func != "COUNT_DISTINCT" else "COUNT_DISTINCT"]
    except KeyError:
        raise QueryError(
            f"unknown aggregation function {func!r}; expected one of "
            f"{[a.name for a in Aggregator]}"
        ) from None
    tokens.expect_punct("(")
    token = tokens.next()
    measure = "*" if token == "*" else token
    tokens.expect_punct(")")
    return AggSpec(aggregator, measure)


def _parse_dotted(tokens: _Tokens) -> list[str]:
    parts = [tokens.next()]
    while tokens.peek() == ".":
        tokens.next()
        parts.append(tokens.next())
    return parts


def _parse_literal(tokens: _Tokens) -> object:
    token = tokens.next()
    if token.startswith("'"):
        return token[1:-1].replace("''", "'")
    try:
        value = float(token)
    except ValueError:
        raise QueryError(f"expected a literal, found {token!r}") from None
    _check_finite(value, token)
    return int(value) if value.is_integer() and "." not in token and "e" not in token.lower() else value


def _parse_quantity(tokens: _Tokens) -> float:
    token = tokens.next()
    try:
        value = float(token)
    except ValueError:
        raise QueryError(f"expected a number, found {token!r}") from None
    unit = "m"
    if tokens.peek_upper() in ("KM", "M", "MI"):
        unit = tokens.next().lower()
    metres = convert_to_metres(value, unit)
    _check_finite(metres, token)
    return metres


def _check_finite(value: float, token: str) -> None:
    """``float`` also reads ``nan``, ``inf`` and ``infinity``, and an
    overflowing literal such as ``1e400`` reads as ``inf``; no filter
    means anything by them."""
    if not math.isfinite(value):
        raise QueryError(f"expected a finite number, found {token!r}")


def _attribute_filter(
    schema: MDSchema, parts: list[str], op: ComparisonOp, value: object
) -> AttributeFilter:
    if len(parts) == 2:
        dim = resolve_name(schema.dimension, parts[0])
        # Two-part paths are Dimension.attr on the leaf level, unless the
        # second part names a level (then the level key is compared).
        if parts[1] in dim.levels:
            ref = LevelRef(parts[0], parts[1])
            attribute = dim.level(parts[1]).key
        else:
            ref = LevelRef(parts[0])
            attribute = parts[1]
            resolve_name(dim.leaf_level.attribute, attribute)
        return AttributeFilter(ref, attribute, op, value)
    if len(parts) == 3:
        dim = resolve_name(schema.dimension, parts[0])
        level = resolve_name(dim.level, parts[1])
        resolve_name(level.attribute, parts[2])
        return AttributeFilter(LevelRef(parts[0], parts[1]), parts[2], op, value)
    raise QueryError(
        f"bad attribute path {'.'.join(parts)!r}; expected "
        f"'Dim.attr' or 'Dim.Level.attr'"
    )


def _parse_condition(
    tokens: _Tokens, schema: MDSchema
) -> AttributeFilter | SpatialFilter:
    head_upper = tokens.peek_upper()
    if head_upper in _SPATIAL_FUNCTIONS:
        func = tokens.next().upper()
        relation = _SPATIAL_FUNCTIONS[func]
        tokens.expect_punct("(")
        ref = LevelRef.parse(".".join(_parse_dotted(tokens)))
        tokens.expect_punct(",")
        tokens.expect_keyword("LAYER")
        layer = LayerRef(tokens.next())
        tokens.expect_punct(")")
        if isinstance(schema, GeoMDSchema):
            resolve_spatial_level(schema, ref)
            resolve_name(schema.layer, layer.name)
        if relation is SpatialRelation.DISTANCE:
            op_token = tokens.next()
            if op_token not in _COMPARISONS:
                raise QueryError(
                    f"DISTANCE(...) must be compared; found {op_token!r}"
                )
            threshold = _parse_quantity(tokens)
            return SpatialFilter(
                ref, relation, layer, _COMPARISONS[op_token], threshold
            )
        return SpatialFilter(ref, relation, layer)

    parts = _parse_dotted(tokens)
    op_token = tokens.next()
    if op_token.upper() == "IN":
        tokens.expect_punct("(")
        values = [_parse_literal(tokens)]
        while tokens.peek() == ",":
            tokens.next()
            values.append(_parse_literal(tokens))
        tokens.expect_punct(")")
        return _attribute_filter(schema, parts, ComparisonOp.IN, tuple(values))
    if op_token not in _COMPARISONS:
        raise QueryError(f"unknown comparison {op_token!r}")
    value = _parse_literal(tokens)
    return _attribute_filter(schema, parts, _COMPARISONS[op_token], value)


def parse_query(text: str, schema: MDSchema) -> CubeQuery:
    """Parse a GeoMDQL-lite query against a schema."""
    tokens = _Tokens(text)
    tokens.expect_keyword("SELECT")
    aggregations = [_parse_agg(tokens)]
    while tokens.peek() == ",":
        tokens.next()
        aggregations.append(_parse_agg(tokens))
    tokens.expect_keyword("FROM")
    fact_name = tokens.next()
    resolve_name(schema.fact, fact_name)  # existence check

    group_by: list[LevelRef] = []
    if tokens.accept_keyword("BY"):
        group_by.append(LevelRef.parse(".".join(_parse_dotted(tokens))))
        while tokens.peek() == ",":
            tokens.next()
            group_by.append(LevelRef.parse(".".join(_parse_dotted(tokens))))

    where: list[AttributeFilter | SpatialFilter] = []
    if tokens.accept_keyword("WHERE"):
        where.append(_parse_condition(tokens, schema))
        while tokens.accept_keyword("AND"):
            where.append(_parse_condition(tokens, schema))

    if tokens.peek() is not None:
        raise QueryError(f"trailing query input: {tokens.peek()!r}")
    return CubeQuery(
        fact=fact_name,
        aggregations=aggregations,
        group_by=tuple(group_by),
        where=tuple(where),
    )
