"""PRML rule evaluation against a runtime context.

The evaluator executes a rule body (the engine in
:mod:`repro.personalization` decides *when*, per the ECA event part):

* expressions evaluate against the bound models — ``SUS.`` paths read the
  user profile, ``MD.``/``GeoMD.`` paths resolve to member/feature
  collections, loop variables hold bound members/features;
* ``SetContent`` writes through the user profile;
* ``BecomeSpatial``/``AddLayer`` write nothing: the tenant loaded the
  layer or level when the rule was registered, and the action switches
  the context's ``geomd_schema`` to the tenant's shared schema for the
  session's set of added layers and spatial levels
  (:class:`~repro.geomd.schema.SchemaSets`);
* ``SelectInstance`` accumulates into a :class:`SelectionSet`, which the
  personalization engine later turns into a fact-row selection.

Every read follows the session's schema: a layer it lacks does not
resolve, and a member of a level it has not made spatial shows no
geometry (checked once per level, when the level's members are bound),
whatever the star holds.

Statements are interpreted node by node, with one exception: a
``Foreach`` of Example 5.2's shape (select the members of one level
within a distance of a fixed geometry) is answered from the star's
envelope index when that gives the loop's exact result — see
:meth:`Evaluator._select_nearby_with_index`.  The shape is recognised
once per statement (:func:`nearby_shapes`, which the engine runs when
it registers a rule), and the level's members, geometries and envelope
columns come from the star's one cached record per level
(:meth:`~repro.storage.star.StarSchema.level_grid_index`), so a login
measures only the members near its location.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import sys
from dataclasses import dataclass, field
from typing import Mapping, Protocol

from repro.errors import (
    GeometryError,
    PRMLRuntimeError,
    SchemaError,
    StorageError,
    UserModelError,
)
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, GeoMDSchema, SchemaSets
from repro.geometry import Geometry, Metric, PlanarMetric
from repro.geometry.index import candidate_probe, distance_prefilter_sound
from repro.mdm.model import MDSchema, ResolvedLevel
from repro.prml.ast import (
    AddLayerAction,
    BecomeSpatialAction,
    BinaryOp,
    BinaryOperator,
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
    SetContentAction,
    SpatialCall,
    SpatialFunction,
    Stmt,
    StringLit,
    VarPath,
)
from repro.prml.stdlib import (
    LineAnchoredCollection,
    prml_distance,
    prml_intersection,
    prml_predicate,
)
from repro.storage.star import StarSchema
from repro.storage.tables import Feature, Member
from repro.sus.model import UserProfile

__all__ = [
    "BoundMember",
    "BoundFeature",
    "SelectionSet",
    "GeoDataSource",
    "RuntimeContext",
    "RuleOutcome",
    "Evaluator",
    "nearby_shapes",
]


@dataclass(frozen=True)
class BoundMember:
    """A dimension member bound to a loop variable (carries its origin).

    ``spatial`` says whether the session's schema makes the member's
    level spatial; when it does not, the member shows no geometry even
    though the tenant loaded one.
    """

    member: Member
    dimension: str
    spatial: bool

    @property
    def geometry(self) -> Geometry | None:
        return self.member.geometry if self.spatial else None


@dataclass(frozen=True)
class BoundFeature:
    """A layer feature bound to a loop variable."""

    feature: Feature
    layer: str

    @property
    def name(self) -> str:
        return self.feature.name


class SelectionSet:
    """Instances kept by ``SelectInstance`` actions.

    Selections are *filters-in*: if a dimension has any selected members
    (at any of its levels), only facts rolling up into them survive;
    dimensions with no selections are unrestricted.  All selections within
    one dimension are **additive** (union) — Example 5.3 explicitly *adds*
    train-connected cities on top of Example 5.2's nearby stores ("then we
    also add the cities not near enough but with a good train
    connection").  Distinct dimensions still compose as intersection, each
    restricting its own axis.

    Each set carries a monotonic :attr:`generation` bumped whenever the
    selection actually grows.  :meth:`fingerprint` is the *content*
    identity — two sessions whose selections hold the same member/feature
    triples produce the same fingerprint, which is what lets the shared
    view store serve one materialization to any number of sessions with
    identical selections.
    """

    def __init__(self) -> None:
        self.members: dict[tuple[str, str], set[str]] = {}
        self.features: dict[str, set[str]] = {}
        self.generation = 0
        # (generation, digest) — recomputed only after the selection grows.
        self._fingerprint: tuple[int, str] | None = None

    def add_member(self, dimension: str, level: str, key: str) -> None:
        keys = self.members.setdefault((dimension, level), set())
        if key not in keys:
            keys.add(key)
            self.generation += 1

    def add_feature(self, layer: str, name: str) -> None:
        names = self.features.setdefault(layer, set())
        if name not in names:
            names.add(name)
            self.generation += 1

    @property
    def is_empty(self) -> bool:
        return not self.members and not self.features

    def member_count(self) -> int:
        return sum(len(keys) for keys in self.members.values())

    def member_triples(self) -> list[tuple[str, str, str]]:
        """The selection flattened to ``(dimension, level, key)`` triples
        (the footprint shape the workload journal and recommender use)."""
        return [
            (dimension, level, key)
            for (dimension, level), keys in self.members.items()
            for key in keys
        ]

    def fingerprint(self) -> str:
        """Canonical, content-based identity of this selection.

        A digest over the sorted member triples and feature pairs, so two
        sessions that selected the same instances (however they got there)
        key the same shared materialized view.  Cached per
        :attr:`generation`; the steady-state request path pays one dict
        compare, not a re-hash.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == self.generation:
            return cached[1]
        payload = repr(
            (
                sorted(self.member_triples()),
                sorted(
                    (layer, name)
                    for layer, names in self.features.items()
                    for name in names
                ),
            )
        )
        digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()
        self._fingerprint = (self.generation, digest)
        return digest

    def snapshot(self) -> "SelectionSet":
        """A deep-copied, content-equal selection.

        Shared materialized views must not alias a live session's
        selection: the session may keep growing it (acquisition rules)
        while other sessions still hold the shared view.  The snapshot is
        a warehouse object, not session state.
        """
        clone = SelectionSet()
        clone.members = {key: set(keys) for key, keys in self.members.items()}
        clone.features = {
            layer: set(names) for layer, names in self.features.items()
        }
        clone.generation = self.generation
        clone._fingerprint = self._fingerprint
        return clone

    @staticmethod
    def _member_exists(table, level: str, key: str) -> bool:
        try:
            table.member(level, key)
        except StorageError:
            return False
        return True

    def allowed_leaf_keys(self, star: StarSchema) -> dict[str, set[str]]:
        """Per-dimension allowed leaf keys implied by member selections.

        Selections can name data the star does not hold (a session
        restored from its record, a selection built by hand): stale
        entries — a dimension, level or member key not in the star —
        are *dropped* instead of raising on the request path,
        mirroring the journal-profile degradation in
        :func:`repro.reco.similarity.build_spatial_profile`.  A selection
        whose every key for some dimension went stale leaves that
        dimension unrestricted again; keys that still exist keep
        restricting it.
        """
        out: dict[str, set[str]] = {}
        for (dimension, level), keys in self.members.items():
            try:
                table = star.dimension_table(dimension)
            except StorageError:  # lint-ok: swallowed-error - documented stale-key degradation
                continue  # dimension no longer in the star
            live = {
                key for key in keys if self._member_exists(table, level, key)
            }
            if not live:
                continue  # every selected key went stale
            if level == table.dimension.leaf:
                leaf_keys = live
            else:
                try:
                    leaf_keys = star.leaf_keys_rolled_to(
                        dimension, level, live
                    )
                except (SchemaError, StorageError):  # lint-ok: swallowed-error - documented stale-key degradation
                    continue  # level fell off every hierarchy path
            out.setdefault(dimension, set()).update(leaf_keys)
        return out

    def relevant_leaf_keys(self, star: StarSchema, fact_table) -> dict[str, set[str]]:
        """Allowed leaf keys projected onto one fact's dimensions.

        This is *the* row filter of a personalized view: a fact row
        survives iff every relevant dimension's key is in its set.  Full
        builds (:meth:`fact_row_ids`) and the view store's incremental
        patches share this projection so the two paths can never
        diverge.
        """
        return {
            dim: keys
            for dim, keys in self.allowed_leaf_keys(star).items()
            if dim in fact_table.fact.dimension_names
        }

    def fact_row_ids(self, star: StarSchema, fact: str | None = None) -> list[int]:
        """Fact rows surviving the member selections (ascending row ids).

        Each dimension's allowed keys are resolved through the fact
        table's posting lists and the per-dimension row sets intersected
        — no full-column scan.  With :attr:`StarSchema.oracle` set the
        rows come from the
        :meth:`~repro.storage.tables.FactTable.rows_matching` mask scan
        instead.
        """
        fact_table = star.fact_table(fact)
        relevant = self.relevant_leaf_keys(star, fact_table)
        if not relevant:
            return list(fact_table.row_ids())
        if not star.oracle:
            surviving: set[int] | None = None
            for dim, keys in relevant.items():
                postings = fact_table.key_postings(dim)
                rows: set[int] = set()
                for key in keys:
                    rows.update(postings.get(key, ()))
                surviving = rows if surviving is None else surviving & rows
                if not surviving:
                    return []
            assert surviving is not None
            return sorted(surviving)
        return fact_table.rows_matching(relevant)


class GeoDataSource(Protocol):
    """External geographic data provider (SDI / geo-portal stand-in).

    The engine loads the layers and level geometries a rule's
    ``AddLayer``/``BecomeSpatial`` actions name from here when the rule
    is registered — the paper's layers describe data "external to the
    domain" that the warehouse does not itself store.  Rule execution
    never reads it.
    """

    def layer_features(
        self, layer_name: str
    ) -> list[tuple[str, Geometry, dict]] | None:
        """Features for a layer, or None when the source has none."""
        ...  # pragma: no cover - protocol

    def level_geometries(
        self, dimension: str, level: str
    ) -> dict[str, Geometry] | None:
        """member key -> geometry for a level, or None."""
        ...  # pragma: no cover - protocol


@dataclass
class RuntimeContext:
    """Everything a rule execution can read or mutate.

    ``geomd_schema`` is the session's schema: ``schemas``' shared schema
    for the set ``schema_set`` names.  Schema actions need ``schemas``.
    """

    user_profile: UserProfile
    md_schema: MDSchema
    geomd_schema: GeoMDSchema
    star: StarSchema
    parameters: dict[str, object] = field(default_factory=dict)
    metric: Metric = field(default_factory=PlanarMetric)
    snap_tolerance: float = 1.0
    schemas: SchemaSets | None = None
    schema_set: tuple[str, ...] = ()
    selection: SelectionSet = field(default_factory=SelectionSet)


@dataclass
class RuleOutcome:
    """What one rule execution did (for logs, tests and benchmarks).

    ``error`` is set when the rule was skipped because its context data was
    unavailable (e.g. a location-dependent rule in a session without a
    location): the ECA condition could not be fulfilled, so no action fired.
    """

    rule_name: str
    fired_actions: int = 0
    selected_instances: int = 0
    layers_added: list[str] = field(default_factory=list)
    levels_spatialized: list[str] = field(default_factory=list)
    contents_set: int = 0
    iterations: int = 0
    error: str | None = None


@dataclass(frozen=True)
class _NearbySelection:
    """A ``Foreach`` of Example 5.2's shape, taken apart::

        Foreach v in (L)
          If (Distance(v.geometry, X) < d) then SelectInstance(v) endIf
        endForeach

    ``<=`` and ``Distance(X, v.geometry)`` match too; ``X`` and ``d``
    never mention ``v``, so one evaluation serves every member.
    """

    member_first: bool
    other: Expr
    threshold: Expr
    comparison: BinaryOperator


def _mentions(expr: Expr, var: str) -> bool:
    """Whether ``expr`` reads loop variable ``var``."""
    if isinstance(expr, VarPath):
        return expr.var == var
    if isinstance(expr, BinaryOp):
        return _mentions(expr.left, var) or _mentions(expr.right, var)
    if isinstance(expr, NotOp):
        return _mentions(expr.operand, var)
    if isinstance(expr, SpatialCall):
        return any(_mentions(arg, var) for arg in expr.args)
    return False  # literals, parameters and model paths bind no variable


def _nearby_selection(stmt: ForeachStmt) -> _NearbySelection | None:
    """``stmt`` taken apart if it has Example 5.2's shape, else None."""
    if len(stmt.variables) != 1 or len(stmt.body) != 1:
        return None
    var = stmt.variables[0]
    branch = stmt.body[0]
    if (
        not isinstance(branch, IfStmt)
        or branch.else_body
        or branch.then_body != (SelectInstanceAction(VarPath(var)),)
    ):
        return None
    condition = branch.condition
    if (
        not isinstance(condition, BinaryOp)
        or condition.op not in (BinaryOperator.LT, BinaryOperator.LE)
        or _mentions(condition.right, var)
    ):
        return None
    call = condition.left
    if (
        not isinstance(call, SpatialCall)
        or call.function is not SpatialFunction.DISTANCE
        or len(call.args) != 2
    ):
        return None
    member_geometry = VarPath(var, (GEOMETRY_ATTRIBUTE,))
    first, second = call.args
    if first == member_geometry and not _mentions(second, var):
        return _NearbySelection(True, second, condition.right, condition.op)
    if second == member_geometry and not _mentions(first, var):
        return _NearbySelection(False, first, condition.right, condition.op)
    return None


def nearby_shapes(rule: Rule) -> dict[int, _NearbySelection]:
    """Each ``Foreach`` of ``rule`` that has Example 5.2's shape, taken
    apart, keyed by the statement's ``id`` (valid while ``rule`` lives)."""
    shapes: dict[int, _NearbySelection] = {}
    pending = list(rule.body)
    while pending:
        stmt = pending.pop()
        if isinstance(stmt, IfStmt):
            pending.extend(stmt.then_body)
            pending.extend(stmt.else_body)
        elif isinstance(stmt, ForeachStmt):
            shape = _nearby_selection(stmt)
            if shape is not None:
                shapes[id(stmt)] = shape
            pending.extend(stmt.body)
    return shapes


class Evaluator:
    """Executes rule bodies against a :class:`RuntimeContext`."""

    def __init__(self, context: RuntimeContext) -> None:
        self.context = context
        self._shapes: Mapping[int, _NearbySelection] = {}

    # -- rule execution --------------------------------------------------------

    def execute(
        self, rule: Rule, shapes: Mapping[int, _NearbySelection] | None = None
    ) -> RuleOutcome:
        """Run ``rule``'s body.  ``shapes`` is :func:`nearby_shapes` of
        ``rule``, taken apart once when the rule is registered; without it
        the rule is taken apart here."""
        self._shapes = nearby_shapes(rule) if shapes is None else shapes
        outcome = RuleOutcome(rule_name=rule.name)
        env: dict[str, object] = {}
        for stmt in rule.body:
            self._exec_stmt(stmt, env, outcome)
        return outcome

    # -- statements --------------------------------------------------------------

    def _exec_stmt(
        self, stmt: Stmt, env: dict[str, object], outcome: RuleOutcome
    ) -> None:
        if isinstance(stmt, IfStmt):
            condition = self._eval(stmt.condition, env)
            if not isinstance(condition, bool):
                raise PRMLRuntimeError(
                    f"If condition evaluated to {type(condition).__name__}, "
                    f"expected a boolean"
                )
            branch = stmt.then_body if condition else stmt.else_body
            for inner in branch:
                self._exec_stmt(inner, env, outcome)
            return
        if isinstance(stmt, ForeachStmt):
            if self._select_nearby_with_index(stmt, env, outcome):
                return
            collections = [
                self._eval_collection(source) for source in stmt.sources
            ]
            for combo in itertools.product(*collections):
                outcome.iterations += 1
                inner_env = dict(env)
                for variable, value in zip(stmt.variables, combo):
                    inner_env[variable] = value
                for inner in stmt.body:
                    self._exec_stmt(inner, inner_env, outcome)
            return
        if isinstance(stmt, SetContentAction):
            value = self._eval(stmt.value, env)
            if stmt.target.root != "SUS":
                raise PRMLRuntimeError(
                    f"SetContent target {stmt.target} must be a SUS path"
                )
            path = ".".join(stmt.target.steps)
            try:
                self.context.user_profile.set(path, value)
            except UserModelError as exc:
                raise PRMLRuntimeError(str(exc)) from exc
            outcome.contents_set += 1
            outcome.fired_actions += 1
            return
        if isinstance(stmt, SelectInstanceAction):
            target = self._eval(stmt.instance, env)
            if isinstance(target, BoundMember):
                self.context.selection.add_member(
                    target.dimension, target.member.level, target.member.key
                )
            elif isinstance(target, BoundFeature):
                self.context.selection.add_feature(target.layer, target.name)
            else:
                raise PRMLRuntimeError(
                    f"SelectInstance expects a member or feature, got "
                    f"{type(target).__name__}"
                )
            outcome.selected_instances += 1
            outcome.fired_actions += 1
            return
        if isinstance(stmt, BecomeSpatialAction):
            self._exec_become_spatial(stmt, outcome)
            return
        if isinstance(stmt, AddLayerAction):
            self._exec_add_layer(stmt, outcome)
            return
        raise PRMLRuntimeError(f"cannot execute {type(stmt).__name__}")

    def _select_nearby_with_index(
        self, stmt: ForeachStmt, env: dict[str, object], outcome: RuleOutcome
    ) -> bool:
        """Run a Foreach of Example 5.2's shape from the envelope index.

        The loop evaluates ``X`` and ``d`` again and measures every member
        of the level.  Here both are evaluated once, in the loop's order,
        and the envelope columns of the level's cached record
        (:meth:`~repro.storage.star.StarSchema.level_grid_index`) yield
        the positions of the members whose envelope meets ``X``'s,
        loosened by ``d`` (:func:`~repro.geometry.index.candidate_probe`).
        Only those take the loop's ``prml_distance`` test, with the
        arguments in the rule's order, and the ones that pass are
        selected in member order.  The selection and every outcome
        counter equal the loop's.

        Returns False, and the caller runs the loop, for any other shape;
        with :attr:`StarSchema.oracle` set; for a non-planar metric;
        for a layer, a level the session's schema has not made spatial,
        an empty level or a member whose geometry is missing or not a
        point, line or polygon; and when ``X`` or ``d`` does not
        evaluate to a geometry the first member can be measured against
        and a finite, non-negative number.  The loop then raises the
        interpreter's own errors, in its own order.
        """
        shape = self._shapes.get(id(stmt))
        context = self.context
        if (
            shape is None
            or context.star.oracle
            or not distance_prefilter_sound(context.metric, shape.comparison.value)
        ):
            return False
        try:
            resolved = self._resolve_level(stmt.sources[0])
            if resolved is None:
                return False  # a layer's features
            dimension, level = resolved.dimension.name, resolved.level.name
            if not self._is_spatial(dimension, level):
                return False
            record = context.star.level_grid_index(dimension, level)
        except (PRMLRuntimeError, StorageError):
            return False
        if record is None or not record.primitive:
            return False
        geometries = record.geometries

        def measure(geometry: Geometry, other: Geometry) -> float:
            args = (geometry, other) if shape.member_first else (other, geometry)
            return prml_distance(args, context.metric)

        # The loop's first iteration: X, its distance to the first member,
        # then d.  Each is evaluated once here; later iterations of the
        # loop would only repeat them.
        try:
            other = self._coerce_geometry(self._eval(shape.other, env), shape.other)
            if not isinstance(other, Geometry):
                return False
            measure(geometries[0], other)
            threshold = self._eval(shape.threshold, env)
        except (PRMLRuntimeError, GeometryError):
            return False
        if not isinstance(threshold, (int, float)) or not (
            0 <= threshold <= sys.float_info.max
        ):
            return False
        passes = operator.le if shape.comparison is BinaryOperator.LE else operator.lt
        members = record.members
        outcome.iterations += len(members)
        for position in record.index.query_envelope(
            candidate_probe(other.envelope, threshold)
        ):
            if passes(measure(geometries[position], other), threshold):
                context.selection.add_member(dimension, level, members[position].key)
                outcome.selected_instances += 1
                outcome.fired_actions += 1
        return True

    def _exec_become_spatial(
        self, stmt: BecomeSpatialAction, outcome: RuleOutcome
    ) -> None:
        steps = list(stmt.element.steps)
        if steps and steps[-1] == GEOMETRY_ATTRIBUTE:
            steps = steps[:-1]
        try:
            resolved = self.context.geomd_schema.resolve(steps)
        except SchemaError as exc:
            raise PRMLRuntimeError(
                f"BecomeSpatial target {stmt.element}: {exc}"
            ) from exc
        if not isinstance(resolved, ResolvedLevel):
            raise PRMLRuntimeError(
                f"BecomeSpatial target {stmt.element} must name a level"
            )
        level_ref = f"{resolved.dimension.name}.{resolved.level.name}"
        self._add_to_schema(f"level:{level_ref}")
        outcome.levels_spatialized.append(level_ref)
        outcome.fired_actions += 1

    def _exec_add_layer(self, stmt: AddLayerAction, outcome: RuleOutcome) -> None:
        name = stmt.layer_name.value
        self._add_to_schema(f"layer:{name}")
        outcome.layers_added.append(name)
        outcome.fired_actions += 1

    def _add_to_schema(self, item: str) -> None:
        """Switch the session to the shared schema of its set plus one
        layer or level (loaded into the star at registration)."""
        context = self.context
        if context.schemas is None:
            raise PRMLRuntimeError(f"cannot add {item}: the context has no schema sets")
        try:
            context.schema_set, context.geomd_schema = context.schemas.with_item(
                context.schema_set, item
            )
        except SchemaError as exc:
            raise PRMLRuntimeError(str(exc)) from exc

    def _is_spatial(self, dimension: str, level: str) -> bool:
        """Whether the session's schema makes ``dimension.level`` spatial."""
        return f"{dimension}.{level}" in self.context.geomd_schema.spatial_levels

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, expr: Expr, env: dict[str, object]) -> object:
        if isinstance(expr, NumberLit):
            return expr.value
        if isinstance(expr, QuantityLit):
            return expr.metres
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, GeomTypeLit):
            return expr.value
        if isinstance(expr, ParameterRef):
            if expr.name not in self.context.parameters:
                raise PRMLRuntimeError(
                    f"undefined parameter {expr.name!r}; defined: "
                    f"{sorted(self.context.parameters)}"
                )
            return self.context.parameters[expr.name]
        if isinstance(expr, VarPath):
            return self._eval_var_path(expr, env)
        if isinstance(expr, PathExpr):
            return self._eval_model_path(expr)
        if isinstance(expr, NotOp):
            operand = self._eval(expr.operand, env)
            if not isinstance(operand, bool):
                raise PRMLRuntimeError("not applied to a non-boolean")
            return not operand
        if isinstance(expr, SpatialCall):
            return self._eval_spatial_call(expr, env)
        if isinstance(expr, BinaryOp):
            return self._eval_binary(expr, env)
        raise PRMLRuntimeError(f"cannot evaluate {type(expr).__name__}")

    def _eval_var_path(self, expr: VarPath, env: dict[str, object]) -> object:
        if expr.var not in env:
            raise PRMLRuntimeError(f"unbound variable {expr.var!r}")
        value = env[expr.var]
        if not expr.steps:
            return value
        if len(expr.steps) > 1:
            raise PRMLRuntimeError(
                f"variable path {expr} navigates more than one step"
            )
        step = expr.steps[0]
        if isinstance(value, BoundMember):
            if step == GEOMETRY_ATTRIBUTE:
                geometry = value.geometry
                if geometry is None:
                    raise PRMLRuntimeError(
                        f"member {value.member.key!r} has no geometry; did "
                        f"a BecomeSpatial rule run and backfill it?"
                    )
                return geometry
            return value.member.get(step)
        if isinstance(value, BoundFeature):
            if step == GEOMETRY_ATTRIBUTE:
                return value.feature.geometry
            if step == "name":
                return value.feature.name
            if step in value.feature.attributes:
                return value.feature.attributes[step]
            raise PRMLRuntimeError(
                f"feature {value.feature.name!r} has no attribute {step!r}"
            )
        raise PRMLRuntimeError(
            f"cannot navigate {step!r} from {type(value).__name__}"
        )

    def _eval_model_path(self, path: PathExpr) -> object:
        if path.root == "SUS":
            try:
                return self.context.user_profile.get(".".join(path.steps))
            except UserModelError as exc:
                raise PRMLRuntimeError(str(exc)) from exc
        return self._eval_collection(path)

    def _eval_collection(self, path: PathExpr) -> list[object]:
        """Resolve an MD/GeoMD path to its member/feature collection."""
        resolved = self._resolve_level(path)
        if resolved is None:
            layer = path.steps[0]
            table = self.context.star.layer_table(layer)
            return [BoundFeature(f, layer) for f in table.features()]
        dimension, level = resolved.dimension.name, resolved.level.name
        spatial = self._is_spatial(dimension, level)
        return [
            BoundMember(m, dimension, spatial)
            for m in self.context.star.dimension_table(dimension).members(level)
        ]

    def _resolve_level(self, path: PathExpr) -> ResolvedLevel | None:
        """The level an MD/GeoMD path iterates, or None for a layer."""
        if path.root == "SUS":
            raise PRMLRuntimeError(f"{path} is not an iterable collection")
        schema: MDSchema = (
            self.context.geomd_schema if path.root == "GeoMD" else self.context.md_schema
        )
        steps = list(path.steps)
        if (
            path.root == "GeoMD"
            and len(steps) == 1
            and isinstance(schema, GeoMDSchema)
            and steps[0] in schema.layers
        ):
            return None
        try:
            resolved = schema.resolve(steps)
        except SchemaError as exc:
            raise PRMLRuntimeError(str(exc)) from exc
        if not isinstance(resolved, ResolvedLevel):
            raise PRMLRuntimeError(
                f"{path} resolves to an attribute, not an iterable level"
            )
        return resolved

    def _coerce_geometry(self, value: object, origin: Expr) -> object:
        if isinstance(value, (Geometry, LineAnchoredCollection)):
            return value
        if isinstance(value, BoundMember):
            geometry = value.geometry
            if geometry is None:
                raise PRMLRuntimeError(
                    f"member {value.member.key!r} (from {origin}) has no "
                    f"geometry"
                )
            return geometry
        if isinstance(value, BoundFeature):
            return value.feature.geometry
        raise PRMLRuntimeError(
            f"{origin} evaluated to {type(value).__name__}, expected a "
            f"geometry"
        )

    def _eval_spatial_call(self, call: SpatialCall, env: dict[str, object]) -> object:
        values = [
            self._coerce_geometry(self._eval(arg, env), arg) for arg in call.args
        ]
        if call.function is SpatialFunction.DISTANCE:
            return prml_distance(values, self.context.metric)
        if call.function is SpatialFunction.INTERSECTION:
            return prml_intersection(
                values[0], values[1], self.context.snap_tolerance
            )
        return prml_predicate(call.function, values[0], values[1])

    def _eval_binary(self, expr: BinaryOp, env: dict[str, object]) -> object:
        op = expr.op
        if op is BinaryOperator.AND:
            left = self._eval(expr.left, env)
            self._require_bool(left, expr.left)
            if not left:
                return False
            right = self._eval(expr.right, env)
            self._require_bool(right, expr.right)
            return bool(right)
        if op is BinaryOperator.OR:
            left = self._eval(expr.left, env)
            self._require_bool(left, expr.left)
            if left:
                return True
            right = self._eval(expr.right, env)
            self._require_bool(right, expr.right)
            return bool(right)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op.is_arithmetic:
            if not isinstance(left, (int, float)) or not isinstance(
                right, (int, float)
            ):
                raise PRMLRuntimeError(
                    f"arithmetic {op.value} on {type(left).__name__} and "
                    f"{type(right).__name__}"
                )
            if op is BinaryOperator.ADD:
                return left + right
            if op is BinaryOperator.SUB:
                return left - right
            if op is BinaryOperator.MUL:
                return left * right
            if right == 0:
                raise PRMLRuntimeError("division by zero")
            return left / right
        # Comparisons.
        if op in (BinaryOperator.EQ, BinaryOperator.NE):
            result = left == right
            return result if op is BinaryOperator.EQ else not result
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise PRMLRuntimeError(
                f"ordering comparison {op.value} on {type(left).__name__} "
                f"and {type(right).__name__}"
            )
        if op is BinaryOperator.LT:
            return left < right
        if op is BinaryOperator.LE:
            return left <= right
        if op is BinaryOperator.GT:
            return left > right
        return left >= right

    @staticmethod
    def _require_bool(value: object, origin: Expr) -> None:
        if not isinstance(value, bool):
            raise PRMLRuntimeError(
                f"{origin} evaluated to {type(value).__name__}, expected a "
                f"boolean"
            )
