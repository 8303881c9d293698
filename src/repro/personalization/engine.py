"""The spatial personalization engine — the process of Fig. 1.

The engine owns the rule repository and drives the two-stage process the
paper describes: "the designer starts building a MD model and defines some
Spatial Schema Rules in order to add the required spatiality in the MD
structures.  Finally the Geographic Multidimensional Model (GeoMD)
obtained is personalized using Spatial Instance Rules."

Rule classification (automatic, overridable at registration):

* **schema rules** — personalize the schema only (``AddLayer`` /
  ``BecomeSpatial``, no ``SelectInstance``): run first on SessionStart;
* **instance rules** — contain ``SelectInstance``: run after every schema
  rule, against the already-spatialized GeoMD;
* **acquisition rules** — triggered by ``SpatialSelection`` events (the
  user-interest tracking of Example 5.3): run when the front-end reports
  a matching selection.

Schema personalization belongs to the session.  Registering a rule
loads what its ``AddLayer``/``BecomeSpatial`` actions name into the
tenant's star and schema (layer features and level geometries from the
:class:`~repro.prml.evaluator.GeoDataSource`), the only place they are
written.  At login a schema action only switches the session to the
engine's shared schema for its set of added layers and spatial levels
(:class:`~repro.geomd.schema.SchemaSets`): no login writes the star,
and what one user's rules add no other user sees.

A :class:`PersonalizedSession` wraps one analysis session of one decision
maker; ending the session fires SessionEnd rules and releases the user's
location context.
"""

from __future__ import annotations

import enum
import threading
from functools import partial
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.concurrency import make_lock
from repro.errors import (
    PersonalizationError,
    PRMLRuntimeError,
    SchemaError,
    StorageError,
)
from repro.geometry import Metric, PlanarMetric, Point
from repro.geomd.gtypes_enum import GeometricType
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, GeoMDSchema, SchemaSets
from repro.mdm.model import ResolvedLevel
from repro.olap.cube import Cube
from repro.prml.ast import (
    AddLayerAction,
    BecomeSpatialAction,
    Rule,
    SelectInstanceAction,
    SessionEndEvent,
    SessionStartEvent,
    SpatialSelectionEvent,
)
from repro.prml.evaluator import (
    Evaluator,
    GeoDataSource,
    RuleOutcome,
    RuntimeContext,
    SelectionSet,
    nearby_shapes,
)
from repro.prml.parser import parse_expression, parse_path, parse_rule
from repro.prml.printer import print_expr
from repro.prml.semantics import SemanticAnalyzer
from repro.personalization.view_store import ViewStore
from repro.storage.snapshot import StarHistory
from repro.storage.star import StarMutation, StarSchema
from repro.storage.tables import LayerTable
from repro.sus.model import UserModelSchema, UserProfile

__all__ = [
    "RulePhase",
    "RegisteredRule",
    "PersonalizedView",
    "PersonalizedSession",
    "PersonalizationEngine",
    "ViewStore",
]


class RulePhase(enum.Enum):
    SCHEMA = "schema"
    INSTANCE = "instance"
    ACQUISITION = "acquisition"


@dataclass
class RegisteredRule:
    """One rule in the repository.

    For acquisition rules the canonical prints of the declared
    ``SpatialSelection(target, condition)`` pattern are computed once at
    registration (``event_target`` / ``event_condition``), so matching a
    reported selection is two string compares per rule instead of a
    re-print of every rule's AST on every report.  Likewise the rule's
    Foreach statements of Example 5.2's shape are taken apart once
    (``nearby``, see :func:`~repro.prml.evaluator.nearby_shapes`), not at
    every login.
    """

    rule: Rule
    source: str
    phase: RulePhase
    enabled: bool = True
    event_target: str | None = None
    event_condition: str | None = None
    nearby: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nearby = nearby_shapes(self.rule)
        event = self.rule.event
        if isinstance(event, SpatialSelectionEvent):
            if self.event_target is None:
                self.event_target = str(event.target)
            if self.event_condition is None:
                self.event_condition = print_expr(event.condition)


def classify_rule(rule: Rule) -> RulePhase:
    """Default phase assignment (see module docstring)."""
    if isinstance(rule.event, SpatialSelectionEvent):
        return RulePhase.ACQUISITION
    if any(isinstance(a, SelectInstanceAction) for a in rule.actions()):
        return RulePhase.INSTANCE
    return RulePhase.SCHEMA


@dataclass
class PersonalizedView:
    """What a BI tool sees after personalization (Section 4.2.4).

    ``fact_rows`` is the pre-computed spatial selection: "when the OLAP
    session begins the spatial analysis have been done even if the
    analysis tool does not support spatial data processing."

    ``fact`` names the fact table the rows belong to; sessions over
    multi-fact stars materialize one view per fact
    (``session.view(fact=...)``).  A view carries no schema: sessions
    whose selections hold the same content share it, whatever their
    schemas (read a session's from ``session.context.geomd_schema``).
    """

    star: StarSchema
    selection: SelectionSet
    fact_rows: list[int]
    fact: str | None = None

    @classmethod
    def build(
        cls, star: StarSchema, fact: str | None, selection: SelectionSet
    ) -> "PersonalizedView":
        """Materialize the view: the fact rows ``selection`` keeps, or
        every row when it selects nothing."""
        fact_rows = (
            list(star.fact_table(fact).row_ids())
            if selection.is_empty
            else selection.fact_row_ids(star, fact)
        )
        return cls(star=star, selection=selection, fact_rows=fact_rows, fact=fact)

    def cube(self, fact: str | None = None) -> Cube:
        """A cube restricted to the personalized fact rows.

        ``fact_rows`` are row ids of *this view's* fact table; asking for
        a different fact recomputes the selection for that table instead
        of misapplying foreign row ids.
        """
        fact_name = fact or self.fact
        if self.selection.is_empty:
            restriction = None
        elif fact_name == self.fact:
            restriction = self.fact_rows
        else:
            restriction = self.selection.fact_row_ids(self.star, fact_name)
        return Cube(self.star, fact_name).with_selection(restriction)

    @property
    def is_restricted(self) -> bool:
        return not self.selection.is_empty

    def stats(self) -> dict[str, int]:
        total = len(self.star.fact_table(self.fact))
        kept = len(self.fact_rows) if self.is_restricted else total
        return {
            "fact_rows_total": total,
            "fact_rows_kept": kept,
            "members_selected": self.selection.member_count(),
        }


@dataclass
class PersonalizedSession:
    """One decision maker's analysis session.

    ``view()`` is memoized per fact on the pair ``(selection generation,
    star generation)``: the steady-state request path ("when the OLAP
    session begins the spatial analysis have been done") serves the
    materialized view without re-scanning the fact table, and any
    selection change (acquisition rules, instance re-runs) or star
    mutation (data loads) makes the stamp differ, forcing a refresh.  On
    a memo miss the session asks the engine's shared
    :class:`~repro.personalization.view_store.ViewStore` — sessions whose
    selections hold the same content share one materialization there.
    The memo itself stays per-session (one dict compare in steady state,
    no store lock) and is guarded by ``_memo_lock``: the threaded HTTP
    adapter can hit one session concurrently, and the unlocked
    check-then-act used to let two threads race the dict.  With the
    star's :attr:`~repro.storage.star.StarSchema.oracle` switch set,
    every call rebuilds, bypassing both the memo and the store.
    """

    engine: "PersonalizationEngine"
    profile: UserProfile
    context: RuntimeContext
    outcomes: list[RuleOutcome] = field(default_factory=list)
    closed: bool = False
    #: fact name -> ((selection generation, star generation), view)
    _view_memo: dict[str | None, tuple[tuple[int, int], PersonalizedView]] = field(
        default_factory=dict, repr=False
    )
    _memo_lock: threading.Lock = field(
        default_factory=partial(make_lock, "PersonalizedSession._memo_lock"),
        repr=False,
    )

    @property
    def selection(self) -> SelectionSet:
        return self.context.selection

    def _resolve_fact(self, fact: str | None) -> str | None:
        """Normalize the fact argument (explicit name, or the only fact)."""
        star = self.context.star
        if fact is not None:
            star.fact_table(fact)  # existence check
            return fact
        facts = star.schema.facts
        if len(facts) == 1:
            return next(iter(facts))
        raise PersonalizationError(
            f"star schema has {len(facts)} fact tables; call "
            f"view(fact=...) with one of {sorted(facts)}"
        )

    def view(self, fact: str | None = None) -> PersonalizedView:
        """Materialize the personalized view for downstream BI tools."""
        fact_name = self._resolve_fact(fact)
        if self.context.star.oracle:
            return self._build_view(fact_name)
        stamp = (self.context.selection.generation, self.context.star.generation)
        with self._memo_lock:
            memoized = self._view_memo.get(fact_name)
            if memoized is not None and memoized[0] == stamp:
                return memoized[1]
        view = self.engine.view_store.get_or_build(
            self.context.star, fact_name, self.context.selection
        )
        with self._memo_lock:
            self._view_memo[fact_name] = (stamp, view)
        return view

    def _build_view(self, fact_name: str | None) -> PersonalizedView:
        """A fresh build over the live selection: the oracle path, and
        the reference the view store's entries are checked against."""
        return PersonalizedView.build(
            self.context.star, fact_name, self.context.selection
        )

    def view_stats(self, fact: str | None = None) -> dict[str, int]:
        """The view's stats plus the layers and spatial levels of the
        session's schema."""
        schema = self.context.geomd_schema
        return {
            **self.view(fact).stats(),
            "layers": len(schema.layers),
            "spatial_levels": len(schema.spatial_levels),
        }

    def record_spatial_selection(self, target: str, condition: str) -> list[RuleOutcome]:
        """Report a user spatial selection to the engine (Section 4.2.1).

        The BI front-end calls this when the user selects instances through
        a spatial expression; acquisition rules whose declared
        ``SpatialSelection(target, expression)`` pattern matches are fired.
        """
        if self.closed:
            raise PersonalizationError("session is closed")
        outcomes = self.engine._fire_spatial_selection(self.context, target, condition)
        self.outcomes.extend(outcomes)
        return outcomes

    def rerun_instance_rules(self) -> list[RuleOutcome]:
        """Re-evaluate instance rules mid-session (after interest changes)."""
        if self.closed:
            raise PersonalizationError("session is closed")
        outcomes = self.engine._run_event(
            self.context, SessionStartEvent(), phases=(RulePhase.INSTANCE,)
        )
        self.outcomes.extend(outcomes)
        return outcomes

    def end(self) -> list[RuleOutcome]:
        """Fire SessionEnd rules and close the profile session."""
        if self.closed:
            raise PersonalizationError("session is already closed")
        outcomes = self.engine._run_event(
            self.context, SessionEndEvent(), phases=None
        )
        self.outcomes.extend(outcomes)
        self.profile.close_session()
        self.closed = True
        return outcomes


class PersonalizationEngine:
    """Rule repository + execution over one star schema.

    ``geomd_schema`` is the tenant's schema, the star's: it holds the
    base schema plus everything registered rules can name.  Sessions
    read their own set's schema from :attr:`schemas`.  ``start_session``
    is serialized on the engine's lock: concurrent logins share user
    profiles (one user may hold several sessions).
    """

    def __init__(
        self,
        star: StarSchema,
        user_schema: UserModelSchema,
        geo_source: GeoDataSource | None = None,
        parameters: dict[str, object] | None = None,
        metric: Metric | None = None,
        snap_tolerance: float = 1.0,
        view_store: ViewStore | None = None,
    ) -> None:
        schema = star.schema
        if not isinstance(schema, GeoMDSchema):
            raise PersonalizationError(
                "the engine requires a star over a GeoMDSchema (lift the MD "
                "schema with GeoMDSchema.from_md before loading)"
            )
        self.star = star
        self.geomd_schema: GeoMDSchema = schema
        #: The shared schema of each session set; its base is the schema
        #: as it stands before any rule is registered.
        self.schemas = SchemaSets(schema)
        self.user_schema = user_schema
        self.geo_source = geo_source
        self.parameters = dict(parameters or {})
        self.metric = metric or PlanarMetric()
        self.snap_tolerance = snap_tolerance
        #: Shared materialized-view store: sessions with content-equal
        #: selections share one build, fact appends patch instead of
        #: rebuilding.  It lives in this process's heap.
        self.view_store = ViewStore(128) if view_store is None else view_store
        star.add_mutation_listener(self._on_star_mutation)
        self.rules: list[RegisteredRule] = []
        self._lock = make_lock("PersonalizationEngine._lock")
        #: Logins on this engine: a restored session fires no rule and
        #: is not counted (its store counts the restore).
        # guarded-by: _lock
        self.sessions_started = 0

    @property
    def history(self) -> StarHistory:
        """The star's as-of history (one per star, shared by engines),
        attached on first use — this read or the first session opened —
        so its baseline copy holds what registration loaded."""
        with self._lock:
            return StarHistory.attach(self.star)

    def _on_star_mutation(self, mutation: StarMutation) -> None:
        """Maintain the shared view store on every star mutation: a fact
        append patches the views over its fact, and every other write
        carries them (see :meth:`ViewStore.on_mutation`)."""
        self.view_store.on_mutation(self.star, mutation)

    def detach(self) -> None:
        """Stop maintaining the view store against the star.

        An engine registers a mutation listener for its store at
        construction and the star holds it strongly; code that replaces
        an engine over a live star calls this so the superseded store
        stops being patched and can be collected.
        """
        self.star.remove_mutation_listener(self._on_star_mutation)
        self.view_store.invalidate()

    # -- rule repository -----------------------------------------------------

    def add_rule(
        self,
        source: str | Rule,
        phase: RulePhase | None = None,
    ) -> RegisteredRule:
        """Parse, analyze, load and register one rule.

        Loading writes what the rule's schema actions name into the star
        and the tenant schema, each as one logged star write that as-of
        reads replay.  Every load is checked before the first is
        written, so a refused rule leaves the star, its log and the
        tenant schema as they were.
        """
        if isinstance(source, Rule):
            rule = source
            text = ""
        else:
            rule = parse_rule(source)
            text = source
        if any(existing.rule.name == rule.name for existing in self.rules):
            raise PersonalizationError(f"duplicate rule name {rule.name!r}")
        SemanticAnalyzer(
            self.user_schema,
            self.geomd_schema,
            self.geomd_schema,
            self.parameters,
        ).check(rule)
        for write in self._loads(rule):
            write()
        registered = RegisteredRule(
            rule=rule,
            source=text,
            phase=phase or classify_rule(rule),
        )
        self.rules.append(registered)
        return registered

    def add_rules(self, sources: Iterable[str | Rule]) -> list[RegisteredRule]:
        return [self.add_rule(source) for source in sources]

    def _loads(self, rule: Rule) -> list[Callable[[], None]]:
        """The writes that load what the rule's schema actions name.

        Each load is checked as its write checks it, in action order,
        against a scratch copy of the tenant schema that holds the
        declarations of the actions before it: a conflicting
        re-declaration raises :class:`~repro.errors.SchemaError`, a
        feature its layer refuses :class:`~repro.errors.StorageError` and
        a geometry its level refuses :class:`PersonalizationError`, all
        before any write.
        """
        scratch = GeoMDSchema.from_dict(self.geomd_schema.to_dict())
        filled = {
            name for name, table in self.star.layer_tables.items() if len(table)
        }
        writes = []
        for action in rule.actions():
            if isinstance(action, AddLayerAction):
                writes.append(self._load_layer(action, scratch, filled))
            elif isinstance(action, BecomeSpatialAction):
                writes.append(self._load_level(action, scratch))
        return [write for write in writes if write is not None]

    def _load_layer(
        self, action: AddLayerAction, scratch: GeoMDSchema, filled: set[str]
    ) -> Callable[[], None]:
        """The layer's load: declare it in the tenant schema and fill its
        table from the geo source, once (a table that holds features, or
        that an earlier action fills, is kept).  The features are checked
        on a scratch table of the layer."""
        name = action.layer_name.value
        geometric_type = action.geometric_type.value
        layer = scratch.add_layer(name, geometric_type)
        features = []
        if self.geo_source is not None and name not in filled:
            features = list(self.geo_source.layer_features(name) or ())
            LayerTable(layer).add_features(features)
            if features:
                filled.add(name)
        return partial(self._write_layer, name, geometric_type, features)

    def _write_layer(
        self, name: str, geometric_type: GeometricType, features: list
    ) -> None:
        self.geomd_schema.add_layer(name, geometric_type)
        self.star.ensure_layer_table(name)
        if features:
            self.star.add_features(name, features)

    def _load_level(
        self, action: BecomeSpatialAction, scratch: GeoMDSchema
    ) -> Callable[[], None] | None:
        """The level's load: make it spatial and give its members the geo
        source's geometries (:meth:`StarSchema.become_spatial`, checked
        first by :meth:`StarSchema.check_spatial`).  A target that names
        no level loads nothing; the action reports it when it runs."""
        steps = list(action.element.steps)
        if steps and steps[-1] == GEOMETRY_ATTRIBUTE:
            steps = steps[:-1]
        try:
            resolved = scratch.resolve(steps)
        except SchemaError:  # lint-ok: swallowed-error - the action raises it at login
            return None
        if not isinstance(resolved, ResolvedLevel):
            return None
        dimension, level = resolved.dimension.name, resolved.level.name
        source = self.geo_source
        geometries = (
            source.level_geometries(dimension, level) if source is not None else None
        ) or {}
        loaded = {
            member.key: geometries[member.key]
            for member in self.star.dimension_table(dimension).members(level)
            if member.key in geometries
        }
        level_ref = f"{dimension}.{level}"
        geometric_type = action.geometric_type.value
        try:
            self.star.check_spatial(level_ref, geometric_type, loaded)
        except StorageError as exc:
            raise PersonalizationError(str(exc)) from exc
        scratch.become_spatial(level_ref, geometric_type)
        return partial(self.star.become_spatial, level_ref, geometric_type, loaded)

    def rule(self, name: str) -> RegisteredRule:
        for registered in self.rules:
            if registered.rule.name == name:
                return registered
        raise PersonalizationError(f"no rule named {name!r}")

    # -- session lifecycle --------------------------------------------------------

    def start_session(
        self,
        profile: UserProfile,
        location: Point | None = None,
    ) -> PersonalizedSession:
        """Open an analysis session and fire SessionStart rules.

        Schema rules run before instance rules, implementing the two-step
        process of Fig. 1 within a single trigger.  The session starts on
        the base schema; its schema actions move it to its set's.  The
        first login attaches the star's history.
        """
        with self._lock:
            profile.open_session(location)
            session = self._open(profile, (), self.schemas.base, SelectionSet())
            session.outcomes.extend(
                self._run_event(
                    session.context,
                    SessionStartEvent(),
                    phases=(RulePhase.SCHEMA, RulePhase.INSTANCE),
                )
            )
            self.sessions_started += 1
        return session

    def restore_session(
        self,
        profile: UserProfile,
        location: Point | None,
        schema_set: tuple[str, ...],
        selection: SelectionSet,
    ) -> PersonalizedSession:
        """Rebuild a session from what its rules left: the schema set's
        shared schema and the selection.

        No rule fires, so the profile's interest degrees stay as they
        are, and no login is counted.  The profile's session link is
        opened at ``location`` only when none is open (the user's other
        sessions share that one link).  Raises
        :class:`~repro.errors.SchemaError` for a set the tenant did not
        load.
        """
        schema = self.schemas.schema(schema_set)
        with self._lock:
            if not profile.in_session:
                profile.open_session(location)
            return self._open(profile, schema_set, schema, selection)

    def _open(  # guarded-by-caller: _lock
        self,
        profile: UserProfile,
        schema_set: tuple[str, ...],
        schema: GeoMDSchema,
        selection: SelectionSet,
    ) -> PersonalizedSession:
        """A session on ``schema_set``'s schema with ``selection``,
        attaching the star's history first."""
        StarHistory.attach(self.star)
        context = RuntimeContext(
            user_profile=profile,
            md_schema=self.schemas.base,
            geomd_schema=schema,
            star=self.star,
            parameters=dict(self.parameters),
            metric=self.metric,
            snap_tolerance=self.snap_tolerance,
            schemas=self.schemas,
            schema_set=schema_set,
            selection=selection,
        )
        return PersonalizedSession(engine=self, profile=profile, context=context)

    # -- internal firing ---------------------------------------------------------

    @staticmethod
    def _safe_execute(evaluator: Evaluator, registered: RegisteredRule) -> RuleOutcome:
        """Execute one rule; missing context data skips it (ECA semantics:
        an unfulfillable condition fires no action) instead of aborting the
        whole session.  A rule that raises leaves the session on the
        schema it started on: its schema actions before the error do not
        stand.  What it selected before the error stays selected."""
        context = evaluator.context
        schema_set, schema = context.schema_set, context.geomd_schema
        try:
            return evaluator.execute(registered.rule, registered.nearby)
        except BaseException as exc:
            context.schema_set, context.geomd_schema = schema_set, schema
            if isinstance(exc, PRMLRuntimeError):
                return RuleOutcome(rule_name=registered.rule.name, error=str(exc))
            raise

    def _run_event(
        self,
        context: RuntimeContext,
        event: SessionStartEvent | SessionEndEvent,
        phases: tuple[RulePhase, ...] | None,
    ) -> list[RuleOutcome]:
        evaluator = Evaluator(context)
        outcomes: list[RuleOutcome] = []
        ordered: list[RegisteredRule] = []
        if phases is None:
            ordered = [r for r in self.rules if r.enabled]
        else:
            for phase in phases:
                ordered.extend(
                    r for r in self.rules if r.enabled and r.phase is phase
                )
        for registered in ordered:
            if type(registered.rule.event) is not type(event):
                continue
            outcomes.append(self._safe_execute(evaluator, registered))
        return outcomes

    def _fire_spatial_selection(
        self,
        context: RuntimeContext,
        target: str,
        condition: str,
    ) -> list[RuleOutcome]:
        """Fire acquisition rules whose event pattern matches the report.

        Matching is structural: the canonical prints of the declared and
        reported target path and condition expression must agree.
        """
        reported_target = str(parse_path(target))
        reported_condition = print_expr(parse_expression(condition))
        evaluator = Evaluator(context)
        outcomes: list[RuleOutcome] = []
        for registered in self.rules:
            if not registered.enabled:
                continue
            if not isinstance(registered.rule.event, SpatialSelectionEvent):
                continue
            # Compare against the patterns canonicalized at registration;
            # only the *reported* target/condition is parsed per call.
            if registered.event_target != reported_target:
                continue
            if registered.event_condition != reported_condition:
                continue
            # Same ECA-safe path as the other phases: a raising
            # acquisition rule records an errored outcome instead of
            # aborting the whole selection report.
            outcomes.append(self._safe_execute(evaluator, registered))
        return outcomes
