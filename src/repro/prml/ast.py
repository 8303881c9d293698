"""PRML abstract syntax tree — the metamodel excerpt of Fig. 5, in code.

The node hierarchy mirrors the paper's metamodel: a :class:`Rule` owns an
event part, an optional condition and a sequence of actions (wrapped in
structural statements).  Spatial operators (Section 4.2.3) and the four
personalization actions (Section 4.2.4) are first-class nodes, so the
FIG5 benchmark can instantiate and round-trip every construct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.geomd.gtypes_enum import GeometricType

__all__ = [
    "Node",
    "Expr",
    "PathExpr",
    "VarPath",
    "NumberLit",
    "StringLit",
    "QuantityLit",
    "GeomTypeLit",
    "ParameterRef",
    "BinaryOp",
    "BinaryOperator",
    "NotOp",
    "SpatialFunction",
    "SpatialCall",
    "Stmt",
    "IfStmt",
    "ForeachStmt",
    "SetContentAction",
    "SelectInstanceAction",
    "BecomeSpatialAction",
    "AddLayerAction",
    "Event",
    "SessionStartEvent",
    "SessionEndEvent",
    "SpatialSelectionEvent",
    "Rule",
    "MODEL_ROOTS",
]

#: Path-expression roots defined by the paper (Section 4.2.2).
MODEL_ROOTS = ("SUS", "MD", "GeoMD")


class Node:
    """Base class of all AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


@dataclass(frozen=True)
class PathExpr(Expr):
    """A model path: ``SUS.DecisionMaker.dm2role.name``, ``GeoMD.Store``..."""

    root: str  # one of MODEL_ROOTS
    steps: tuple[str, ...]

    def __str__(self) -> str:
        return ".".join((self.root,) + self.steps)


@dataclass(frozen=True)
class VarPath(Expr):
    """A loop-variable path: ``s`` or ``s.geometry``."""

    var: str
    steps: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ".".join((self.var,) + self.steps)


@dataclass(frozen=True)
class NumberLit(Expr):
    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class StringLit(Expr):
    value: str

    def __str__(self) -> str:
        escaped = self.value.replace("'", "''")
        return f"'{escaped}'"


@dataclass(frozen=True)
class QuantityLit(Expr):
    """A distance literal with unit: ``5km`` -> (5.0, "km")."""

    value: float
    unit: str

    @property
    def metres(self) -> float:
        from repro.geometry.metrics import convert_to_metres

        return convert_to_metres(self.value, self.unit)

    def __str__(self) -> str:
        if self.value == int(self.value):
            return f"{int(self.value)}{self.unit}"
        return f"{self.value!r}{self.unit}"


@dataclass(frozen=True)
class GeomTypeLit(Expr):
    """A geometric type literal: POINT, LINE, POLYGON, COLLECTION."""

    value: GeometricType

    def __str__(self) -> str:
        return self.value.name


@dataclass(frozen=True)
class ParameterRef(Expr):
    """A designer-defined parameter, e.g. ``threshold`` in Example 5.3."""

    name: str

    def __str__(self) -> str:
        return self.name


class BinaryOperator(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    AND = "and"
    OR = "or"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinaryOperator.EQ,
            BinaryOperator.NE,
            BinaryOperator.LT,
            BinaryOperator.LE,
            BinaryOperator.GT,
            BinaryOperator.GE,
        )

    @property
    def is_arithmetic(self) -> bool:
        return self in (
            BinaryOperator.ADD,
            BinaryOperator.SUB,
            BinaryOperator.MUL,
            BinaryOperator.DIV,
        )

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOperator.AND, BinaryOperator.OR)


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: BinaryOperator
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr


class SpatialFunction(enum.Enum):
    """The spatial operators the paper adds to PRML (Section 4.2.3)."""

    INTERSECT = "Intersect"
    DISJOINT = "Disjoint"
    CROSS = "Cross"
    INSIDE = "Inside"
    EQUALS = "Equals"
    DISTANCE = "Distance"
    INTERSECTION = "Intersection"


@dataclass(frozen=True)
class SpatialCall(Expr):
    """A spatial operator application, e.g. ``Distance(a, b) ``.

    ``Distance`` accepts one argument as well — the paper's Example 5.3
    applies it to a nested ``Intersection`` result; the unary semantics
    (arc length along the hosting line) are documented in
    :mod:`repro.prml.stdlib`.
    """

    function: SpatialFunction
    args: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Statements (rule bodies)
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


@dataclass(frozen=True)
class IfStmt(Stmt):
    condition: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class ForeachStmt(Stmt):
    """``Foreach v1, v2 in (Src1, Src2) ... endForeach``.

    Multiple variables iterate the *cartesian product* of their sources —
    Example 5.3 tests every (train, city, airport) combination.
    """

    variables: tuple[str, ...]
    sources: tuple[PathExpr, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class SetContentAction(Stmt):
    """``SetContent(p, v)`` — update user-model content at runtime."""

    target: PathExpr
    value: Expr


@dataclass(frozen=True)
class SelectInstanceAction(Stmt):
    """``SelectInstance(i)`` — keep an instance in the personalized view."""

    instance: Expr  # VarPath or PathExpr


@dataclass(frozen=True)
class BecomeSpatialAction(Stmt):
    """``BecomeSpatial(e, g)`` — add a geometric description to an element."""

    element: PathExpr
    geometric_type: GeomTypeLit


@dataclass(frozen=True)
class AddLayerAction(Stmt):
    """``AddLayer(s, g)`` — add a thematic layer to the MD structure."""

    layer_name: StringLit
    geometric_type: GeomTypeLit


# ---------------------------------------------------------------------------
# Events and rules
# ---------------------------------------------------------------------------


class Event(Node):
    __slots__ = ()


@dataclass(frozen=True)
class SessionStartEvent(Event):
    def __str__(self) -> str:
        return "SessionStart"


@dataclass(frozen=True)
class SessionEndEvent(Event):
    def __str__(self) -> str:
        return "SessionEnd"


@dataclass(frozen=True)
class SpatialSelectionEvent(Event):
    """``SpatialSelection(target, spatial-expression)`` (Section 4.2.1)."""

    target: PathExpr
    condition: Expr


@dataclass(frozen=True)
class Rule(Node):
    """A complete ECA personalization rule."""

    name: str
    event: Event
    body: tuple[Stmt, ...]

    def actions(self) -> list[Stmt]:
        """Flatten the body to its action statements (for phase detection)."""
        out: list[Stmt] = []

        def walk(stmts: Sequence[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, IfStmt):
                    walk(stmt.then_body)
                    walk(stmt.else_body)
                elif isinstance(stmt, ForeachStmt):
                    walk(stmt.body)
                else:
                    out.append(stmt)

        walk(self.body)
        return out
