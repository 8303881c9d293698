"""Static semantic analysis of PRML rules.

Parsed rules are checked against the three models they navigate before any
execution (failing fast at design time, like the paper's CASE tooling
would):

* ``SUS.`` paths against the spatial-aware user model schema;
* ``MD.`` paths against the multidimensional schema;
* ``GeoMD.`` paths against the geographic MD schema — including layers
  added *earlier in the same rule* by ``AddLayer`` (Example 5.3 adds the
  Train layer and immediately iterates it);
* expression typing: spatial predicates yield booleans, ``Distance``
  yields metres, quantity literals only meet numeric comparisons, logical
  connectives take booleans, and so on.

The analyzer reports every problem it finds (it does not stop at the
first), raising :class:`~repro.errors.PRMLSemanticError` with the full
list.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import (
    PRMLSemanticError,
    SchemaError,
    UserModelError,
)
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, GeoMDSchema
from repro.mdm.model import MDSchema, ResolvedAttribute, ResolvedLevel
from repro.prml.ast import (
    AddLayerAction,
    BecomeSpatialAction,
    BinaryOp,
    Expr,
    ForeachStmt,
    GeomTypeLit,
    IfStmt,
    NotOp,
    NumberLit,
    ParameterRef,
    PathExpr,
    QuantityLit,
    Rule,
    SelectInstanceAction,
    SessionEndEvent,
    SessionStartEvent,
    SetContentAction,
    SpatialCall,
    SpatialFunction,
    SpatialSelectionEvent,
    Stmt,
    StringLit,
    VarPath,
)
from repro.sus.model import UserModelSchema

__all__ = ["ValueType", "SourceInfo", "SemanticAnalyzer"]


class ValueType(enum.Enum):
    NUMBER = "number"
    STRING = "string"
    BOOLEAN = "boolean"
    GEOMETRY = "geometry"
    GEOMETRIC_TYPE = "geometric type"
    INSTANCE = "instance"
    INSTANCES = "instance collection"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SourceInfo:
    """What a Foreach variable ranges over."""

    kind: str  # "level" | "layer"
    dimension: str | None = None
    level: str | None = None
    layer: str | None = None


@dataclass
class _Scope:
    variables: dict[str, SourceInfo] = field(default_factory=dict)


class SemanticAnalyzer:
    """Checks one rule against the bound models."""

    def __init__(
        self,
        user_schema: UserModelSchema,
        md_schema: MDSchema,
        geomd_schema: GeoMDSchema | None = None,
        parameters: dict[str, object] | None = None,
        known_layers: set[str] | None = None,
    ) -> None:
        self.user_schema = user_schema
        self.md_schema = md_schema
        self.geomd_schema = geomd_schema
        self.parameters = dict(parameters or {})
        #: Layers promised by other (earlier-registered) rules' AddLayer
        #: actions — Example 5.3's IntAirportCity references the Airport
        #: layer that Example 5.1's addSpatiality creates at runtime.
        self.known_layers = set(known_layers or ())
        self._issues: list[str] = []
        self._scopes: list[_Scope] = []
        self._pending_layers: dict[str, None] = {}

    # -- public API --------------------------------------------------------------

    def analyze(self, rule: Rule) -> list[str]:
        """Return the list of semantic problems (empty when clean)."""
        self._issues = []
        self._scopes = [_Scope()]
        self._pending_layers = {}
        self._check_event(rule)
        for stmt in rule.body:
            self._check_stmt(stmt)
        return self._issues

    def check(self, rule: Rule) -> None:
        """Analyze and raise on any problem."""
        issues = self.analyze(rule)
        if issues:
            bullet_list = "\n  - ".join(issues)
            raise PRMLSemanticError(
                f"rule {rule.name!r} has {len(issues)} semantic problem(s):"
                f"\n  - {bullet_list}"
            )

    # -- helpers ----------------------------------------------------------------

    def _issue(self, message: str) -> None:
        self._issues.append(message)

    def _lookup_var(self, name: str) -> SourceInfo | None:
        for scope in reversed(self._scopes):
            if name in scope.variables:
                return scope.variables[name]
        return None

    def _known_layer(self, name: str) -> bool:
        if name in self._pending_layers or name in self.known_layers:
            return True
        return self.geomd_schema is not None and name in self.geomd_schema.layers

    # -- events ------------------------------------------------------------------

    def _check_event(self, rule: Rule) -> None:
        event = rule.event
        if isinstance(event, (SessionStartEvent, SessionEndEvent)):
            return
        assert isinstance(event, SpatialSelectionEvent)
        info = self._resolve_collection_path(event.target)
        if info is None:
            self._issue(
                f"SpatialSelection target {event.target} does not name a "
                f"level or layer"
            )
        self._infer(event.condition)

    # -- statements -----------------------------------------------------------------

    def _check_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, IfStmt):
            cond_type = self._infer(stmt.condition)
            if cond_type not in (ValueType.BOOLEAN, ValueType.UNKNOWN):
                self._issue(
                    f"If condition has type {cond_type.value}, expected boolean"
                )
            for inner in stmt.then_body:
                self._check_stmt(inner)
            for inner in stmt.else_body:
                self._check_stmt(inner)
            return
        if isinstance(stmt, ForeachStmt):
            scope = _Scope()
            for variable, source in zip(stmt.variables, stmt.sources):
                info = self._resolve_collection_path(source)
                if info is None:
                    self._issue(
                        f"Foreach source {source} does not name a level or "
                        f"layer"
                    )
                    info = SourceInfo(kind="unknown")
                scope.variables[variable] = info
            self._scopes.append(scope)
            for inner in stmt.body:
                self._check_stmt(inner)
            self._scopes.pop()
            return
        if isinstance(stmt, SetContentAction):
            self._check_sus_property_path(stmt.target, writing=True)
            self._infer(stmt.value)
            return
        if isinstance(stmt, SelectInstanceAction):
            expr = stmt.instance
            if isinstance(expr, VarPath) and not expr.steps:
                if self._lookup_var(expr.var) is None:
                    self._issue(
                        f"SelectInstance({expr.var}) references an unbound "
                        f"variable"
                    )
            else:
                self._issue(
                    "SelectInstance expects a Foreach-bound variable"
                )
            return
        if isinstance(stmt, BecomeSpatialAction):
            self._check_become_spatial_target(stmt.element)
            return
        if isinstance(stmt, AddLayerAction):
            name = stmt.layer_name.value
            if not name:
                self._issue("AddLayer requires a non-empty layer name")
            else:
                self._pending_layers[name] = None
            return
        self._issue(f"unknown statement {type(stmt).__name__}")

    # -- paths --------------------------------------------------------------------

    def _check_sus_property_path(self, path: PathExpr, writing: bool) -> ValueType:
        if path.root != "SUS":
            self._issue(f"{path} must be rooted at SUS")
            return ValueType.UNKNOWN
        steps = list(path.steps)
        if not steps:
            self._issue("a SUS path needs at least the user class step")
            return ValueType.UNKNOWN
        if steps[0] != self.user_schema.user_class.name:
            self._issue(
                f"SUS paths start at the user class "
                f"{self.user_schema.user_class.name!r}, got {steps[0]!r}"
            )
            return ValueType.UNKNOWN
        current = steps[0]
        for position, step in enumerate(steps[1:], start=1):
            try:
                kind, target = self.user_schema.navigate(current, step)
            except UserModelError as exc:
                self._issue(str(exc))
                return ValueType.UNKNOWN
            if kind == "property":
                if position != len(steps) - 1:
                    self._issue(
                        f"SUS path {path} continues past property {step!r}"
                    )
                    return ValueType.UNKNOWN
                return {
                    "Integer": ValueType.NUMBER,
                    "Real": ValueType.NUMBER,
                    "String": ValueType.STRING,
                    "Boolean": ValueType.BOOLEAN,
                    "Geometry": ValueType.GEOMETRY,
                }.get(target, ValueType.UNKNOWN)
            current = target
        if writing:
            self._issue(f"SetContent target {path} must end at a property")
        return ValueType.INSTANCE

    def _resolve_collection_path(self, path: PathExpr) -> SourceInfo | None:
        """Resolve a path naming a member/feature collection (or None)."""
        if path.root == "SUS":
            return None
        schema: MDSchema | None
        if path.root == "GeoMD":
            schema = self.geomd_schema
            if schema is None:
                self._issue(
                    f"{path} used but no GeoMD schema is bound (run schema "
                    f"rules first)"
                )
                return None
            if len(path.steps) == 1 and self._known_layer(path.steps[0]):
                return SourceInfo(kind="layer", layer=path.steps[0])
        else:
            schema = self.md_schema
        if not path.steps:
            return None
        try:
            resolved = schema.resolve(path.steps)
        except SchemaError:
            return None
        if isinstance(resolved, ResolvedLevel):
            return SourceInfo(
                kind="level",
                dimension=resolved.dimension.name,
                level=resolved.level.name,
            )
        return None

    def _check_become_spatial_target(self, path: PathExpr) -> None:
        if path.root not in ("MD", "GeoMD"):
            self._issue(f"BecomeSpatial target {path} must be an MD/GeoMD path")
            return
        steps = list(path.steps)
        if steps and steps[-1] == GEOMETRY_ATTRIBUTE:
            steps = steps[:-1]
        if not steps:
            self._issue(f"BecomeSpatial target {path} is empty")
            return
        schema: MDSchema = (
            self.geomd_schema
            if path.root == "GeoMD" and self.geomd_schema is not None
            else self.md_schema
        )
        try:
            resolved = schema.resolve(steps)
        except SchemaError as exc:
            self._issue(f"BecomeSpatial target {path}: {exc}")
            return
        if not isinstance(resolved, ResolvedLevel):
            self._issue(
                f"BecomeSpatial target {path} must name a level (optionally "
                f"via its .{GEOMETRY_ATTRIBUTE} attribute)"
            )

    # -- expression typing ------------------------------------------------------------

    def _infer(self, expr: Expr) -> ValueType:
        if isinstance(expr, NumberLit):
            return ValueType.NUMBER
        if isinstance(expr, QuantityLit):
            return ValueType.NUMBER
        if isinstance(expr, StringLit):
            return ValueType.STRING
        if isinstance(expr, GeomTypeLit):
            return ValueType.GEOMETRIC_TYPE
        if isinstance(expr, ParameterRef):
            value = self.parameters.get(expr.name)
            if value is None and expr.name not in self.parameters:
                self._issue(
                    f"parameter {expr.name!r} is not defined (pass it in "
                    f"the rule parameters)"
                )
                return ValueType.UNKNOWN
            if isinstance(value, bool):
                return ValueType.BOOLEAN
            if isinstance(value, (int, float)):
                return ValueType.NUMBER
            if isinstance(value, str):
                return ValueType.STRING
            return ValueType.UNKNOWN
        if isinstance(expr, PathExpr):
            return self._infer_model_path(expr)
        if isinstance(expr, VarPath):
            return self._infer_var_path(expr)
        if isinstance(expr, NotOp):
            operand = self._infer(expr.operand)
            if operand not in (ValueType.BOOLEAN, ValueType.UNKNOWN):
                self._issue(f"not applied to {operand.value}")
            return ValueType.BOOLEAN
        if isinstance(expr, SpatialCall):
            return self._infer_spatial_call(expr)
        if isinstance(expr, BinaryOp):
            return self._infer_binary(expr)
        self._issue(f"cannot type expression {type(expr).__name__}")
        return ValueType.UNKNOWN

    def _infer_model_path(self, path: PathExpr) -> ValueType:
        if path.root == "SUS":
            return self._check_sus_property_path(path, writing=False)
        schema: MDSchema | None = (
            self.geomd_schema if path.root == "GeoMD" else self.md_schema
        )
        if schema is None:
            self._issue(f"{path} used but no GeoMD schema is bound")
            return ValueType.UNKNOWN
        steps = list(path.steps)
        # Layer references: GeoMD.Airport / GeoMD.Airport.geometry.
        if (
            path.root == "GeoMD"
            and steps
            and self._known_layer(steps[0])
        ):
            if len(steps) == 1:
                return ValueType.INSTANCES
            if len(steps) == 2 and steps[1] == GEOMETRY_ATTRIBUTE:
                return ValueType.GEOMETRY
            self._issue(f"cannot navigate {path} inside layer {steps[0]!r}")
            return ValueType.UNKNOWN
        try:
            resolved = schema.resolve(steps)
        except SchemaError as exc:
            # A trailing .geometry on a level that is not yet spatial is
            # legal in event patterns (the schema rule spatializes later);
            # report everything else.
            if steps and steps[-1] == GEOMETRY_ATTRIBUTE:
                try:
                    inner = schema.resolve(steps[:-1])
                except SchemaError:
                    self._issue(str(exc))
                    return ValueType.UNKNOWN
                if isinstance(inner, ResolvedLevel):
                    return ValueType.GEOMETRY
            self._issue(str(exc))
            return ValueType.UNKNOWN
        if isinstance(resolved, ResolvedLevel):
            return ValueType.INSTANCES
        assert isinstance(resolved, ResolvedAttribute)
        type_name = resolved.attribute.type.name
        return {
            "Integer": ValueType.NUMBER,
            "Real": ValueType.NUMBER,
            "String": ValueType.STRING,
            "Boolean": ValueType.BOOLEAN,
            "Geometry": ValueType.GEOMETRY,
        }.get(type_name, ValueType.UNKNOWN)

    def _infer_var_path(self, expr: VarPath) -> ValueType:
        info = self._lookup_var(expr.var)
        if info is None:
            self._issue(f"unbound variable {expr.var!r}")
            return ValueType.UNKNOWN
        if not expr.steps:
            return ValueType.INSTANCE
        if len(expr.steps) > 1:
            self._issue(
                f"variable path {expr} navigates more than one step"
            )
            return ValueType.UNKNOWN
        step = expr.steps[0]
        if step == GEOMETRY_ATTRIBUTE:
            return ValueType.GEOMETRY
        if info.kind == "level":
            assert info.dimension is not None and info.level is not None
            try:
                level = self.md_schema.dimension(info.dimension).level(info.level)
            except SchemaError:
                if self.geomd_schema is None:
                    self._issue(f"cannot check {expr}: unknown level")
                    return ValueType.UNKNOWN
                level = self.geomd_schema.dimension(info.dimension).level(info.level)
            if step not in level.attributes:
                self._issue(
                    f"{expr}: level {info.dimension}.{info.level} has no "
                    f"attribute {step!r}"
                )
                return ValueType.UNKNOWN
            type_name = level.attributes[step].type.name
            return {
                "Integer": ValueType.NUMBER,
                "Real": ValueType.NUMBER,
                "String": ValueType.STRING,
                "Boolean": ValueType.BOOLEAN,
                "Geometry": ValueType.GEOMETRY,
            }.get(type_name, ValueType.UNKNOWN)
        if info.kind == "layer":
            if step in ("name",):
                return ValueType.STRING
            return ValueType.UNKNOWN
        return ValueType.UNKNOWN

    def _infer_spatial_call(self, call: SpatialCall) -> ValueType:
        arg_types = [self._infer(a) for a in call.args]
        geometry_like = (ValueType.GEOMETRY, ValueType.INSTANCE, ValueType.UNKNOWN)
        if call.function is SpatialFunction.DISTANCE:
            if len(call.args) == 2:
                for arg_type, arg in zip(arg_types, call.args):
                    if arg_type not in geometry_like:
                        self._issue(
                            f"Distance argument {arg} has type "
                            f"{arg_type.value}, expected geometry"
                        )
            # Unary Distance takes a (line-anchored) collection; its only
            # well-typed producer is a nested Intersection call.
            elif not isinstance(call.args[0], SpatialCall) or call.args[
                0
            ].function is not SpatialFunction.INTERSECTION:
                self._issue(
                    "unary Distance expects a nested Intersection(...) "
                    "argument: it measures along the line that a LINE ∩ "
                    "POINT Intersection yields"
                )
            return ValueType.NUMBER
        if call.function is SpatialFunction.INTERSECTION:
            for arg_type, arg in zip(arg_types, call.args):
                if arg_type not in geometry_like and not (
                    isinstance(arg, SpatialCall)
                    and arg.function is SpatialFunction.INTERSECTION
                ):
                    self._issue(
                        f"Intersection argument {arg} has type "
                        f"{arg_type.value}, expected geometry"
                    )
            return ValueType.GEOMETRY
        # Boolean predicates.
        for arg_type, arg in zip(arg_types, call.args):
            if arg_type not in geometry_like:
                self._issue(
                    f"{call.function.value} argument {arg} has type "
                    f"{arg_type.value}, expected geometry"
                )
        return ValueType.BOOLEAN

    def _infer_binary(self, expr: BinaryOp) -> ValueType:
        left = self._infer(expr.left)
        right = self._infer(expr.right)
        op = expr.op
        if op.is_logical:
            for side, side_type in (("left", left), ("right", right)):
                if side_type not in (ValueType.BOOLEAN, ValueType.UNKNOWN):
                    self._issue(
                        f"{op.value} {side} operand has type {side_type.value}"
                    )
            return ValueType.BOOLEAN
        if op.is_arithmetic:
            for side, side_type in (("left", left), ("right", right)):
                if side_type not in (ValueType.NUMBER, ValueType.UNKNOWN):
                    self._issue(
                        f"arithmetic {op.value} {side} operand has type "
                        f"{side_type.value}, expected number"
                    )
            return ValueType.NUMBER
        # Comparisons.
        if op.value in ("<", "<=", ">", ">="):
            for side, side_type in (("left", left), ("right", right)):
                if side_type not in (ValueType.NUMBER, ValueType.UNKNOWN):
                    self._issue(
                        f"ordering comparison {op.value} {side} operand has "
                        f"type {side_type.value}, expected number"
                    )
        else:  # = and <>
            comparable = {left, right} - {ValueType.UNKNOWN}
            if len(comparable) == 2:
                self._issue(
                    f"comparison {op.value} mixes {left.value} and "
                    f"{right.value}"
                )
        return ValueType.BOOLEAN
