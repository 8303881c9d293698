"""The :class:`PersonalizationService` façade — the portal's application
logic as a transport-independent, versioned service layer.

Any front end (the stdlib HTTP adapter, the in-process test driver, a
future async adapter) talks to this one class with typed DTOs and gets
either a typed result or a :class:`~repro.errors.ServiceError` carrying
the uniform error envelope.  The service owns:

* tenant resolution through a :class:`~repro.service.registry.DatamartRegistry`
  (login's ``datamart`` field picks the star/engine);
* authentication through an
  :class:`~repro.service.sessions.InMemorySessionStore` or its
  backend-backed subclass (TTL, eviction, thread-safety);
* the analysis operations themselves (profile, schema, view, GeoMDQL
  query, spatial-selection events, instance-rule rerun, layer export)
  with ``limit``/``offset`` pagination on list-shaped results.  Each
  reads the session's personalized schema
  (``session.context.geomd_schema``): schema rules personalize the
  session, never the tenant, and no request writes the star;
* a small in-heap LRU cache over query *results* keyed on ``(datamart,
  stripped query text, selection fingerprint, schema set, as_of, star
  generation)`` — the view store's protocol: any mutation of the star
  moves its generation, so every live entry of the tenant becomes
  unreachable and a hit is served as it is.  As-of answers are
  immutable history and key on ``as_of`` alone.  The selection
  fingerprint is the *content* identity of the session's selection and
  the schema set names the session's added layers and spatial levels:
  two sessions of one tenant whose personalization landed on the same
  instances and schema share a cache entry, while the datamart name
  keeps tenants strictly apart.  Cached payload rows are frozen as
  tuples so a consumer mutating a returned row can never poison later
  hits.  A tenant whose star has its
  :attr:`~repro.storage.star.StarSchema.oracle` switch set bypasses it.
  Each worker of a pool keeps its own cache: an answer is a function of
  the star, the selection and the query, which any worker recomputes.

Logins are serialized by each engine's own lock, and each engine counts
its logins (a restored session is not one).  A login's,
logout's or rerun's ``rules_fired`` names the rules that fired at least
one action; a rule whose condition failed or that errored is left out.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.analysis import sanitizer as _sanitizer
from repro.cluster.codecs import (
    CodecError,
    decode_session_state,
    encode_session_state,
)
from repro.errors import (
    BadRequestError,
    PRMLError,
    QueryError,
    SchemaError,
    UnauthorizedError,
)
from repro.geometry import Point
from repro.lru import ThreadSafeLRU
from repro.olap.gmdql import parse_query
from repro.olap.query import execute
from repro.personalization.engine import PersonalizationEngine, PersonalizedSession
from repro.prml.evaluator import RuleOutcome
from repro.reco import Recommender, WorkloadJournal
from repro.reco.recommender import KINDS
from repro.service.dtos import (
    DatamartInfo,
    LayerResult,
    LoginRequest,
    LoginResult,
    LogoutResult,
    PageRequest,
    QueryRequest,
    QueryResult,
    RecommendationRequest,
    RecommendationResult,
    RerunResult,
    SelectionRequest,
    SelectionResult,
)
from repro.service.registry import DatamartRegistry
from repro.service.sessions import InMemorySessionStore, SessionRecord

__all__ = ["PersonalizationService", "CellSetPayload"]


def _fired(outcomes: Iterable[RuleOutcome]) -> list[str]:
    """The names of the rules that fired at least one action."""
    return [o.rule_name for o in outcomes if o.fired_actions > 0]


def _parses(text: str, schema) -> bool:
    """Whether a query text parses against a session's schema, which is
    what :meth:`PersonalizationService.query` checks before it runs."""
    try:
        parse_query(text, schema)
    except QueryError:
        return False
    return True


def _hit_rate(hits: int, misses: int) -> float | None:
    """Derived cache efficiency, ``None`` before any lookup happened
    (0/0 is "no data", not "0% effective")."""
    total = hits + misses
    if total <= 0:
        return None
    return round(hits / total, 4)


class CellSetPayload(NamedTuple):
    """Pre-pagination query result, the unit the LRU query cache stores.

    Pagination is applied per request on top of a cached payload, so two
    requests differing only in ``limit``/``offset`` share one entry.

    ``rows`` is a tuple of tuples — *frozen*.  The payload is shared by
    every later cache hit (and, with fingerprint keys, by other
    sessions), so handing out references to mutable inner row lists would
    let one consumer's in-place edit silently corrupt every subsequent
    response; :meth:`PersonalizationService._paged_result` materializes
    fresh lists per request instead.  The payload carries no freshness
    of its own: the star generation in its cache key does.
    """

    axes: tuple[str, ...]
    labels: tuple
    rows: tuple[tuple, ...]
    fact_rows_scanned: int
    fact_rows_matched: int


class PersonalizationService:
    """Versioned application façade over registry + session store."""

    def __init__(
        self,
        registry: DatamartRegistry,
        session_store: InMemorySessionStore | None = None,
        journal: WorkloadJournal | None = None,
        query_cache=None,
    ) -> None:
        # The default session store and journal are env-selected
        # (REPRO_BACKEND): in-heap classes in the default mode,
        # backend-backed two-tier stores over the shared persistent
        # backend with REPRO_BACKEND=sqlite (see repro.cluster.config).
        # Explicit arguments always win, and a service given both stores
        # never creates the shared backend.
        from repro.cluster.config import (
            env_backend,
            make_journal,
            make_session_store,
        )

        # `is not None` matters: an empty store has __len__ == 0 and is falsy.
        backend = (
            env_backend() if session_store is None or journal is None else None
        )
        self.registry = registry
        self.sessions = (
            session_store
            if session_store is not None
            else make_session_store(backend=backend)
        )
        #: Tokens whose live session the store lacks resolve by
        #: restoring it from the record (persisted stores only).
        self.sessions.resolver = self._rehydrate_session
        #: A ThreadSafeLRU in this process's heap (never shared).
        self._query_cache = (
            query_cache if query_cache is not None else ThreadSafeLRU(256)
        )
        #: Workload journal + recommender: every query, selection report
        #: and layer fetch is journaled per (datamart, user) — unless the
        #: login opted out — and the recommender ranks suggestions from
        #: similar users' journals (see :mod:`repro.reco`).
        self.journal = (
            journal if journal is not None else make_journal(backend=backend)
        )
        self.recommender = Recommender(self.journal)

    # -- session lifecycle --------------------------------------------------------

    def login(self, request: LoginRequest) -> LoginResult:
        """Open a personalized session on the requested datamart."""
        datamart = self.registry.get(request.datamart)
        profile = datamart.profile(request.user)
        session = datamart.engine.start_session(profile, location=request.location)
        # The journaling opt-out travels with the session record, not the
        # user: a later login may opt back in and resume the history.  The
        # login location and what the rules left ride along so a
        # persistent store can restore the session in another process
        # (see _rehydrate_session) — meta values must stay JSON-safe for
        # exactly that reason.
        record = self.sessions.put(
            session,
            datamart=datamart.name,
            user_id=request.user,
            meta={
                "journal": request.journal,
                "location": (
                    [request.location.x, request.location.y]
                    if request.location is not None
                    else None
                ),
                **encode_session_state(session),
            },
        )
        return LoginResult(
            token=record.token,
            user=request.user,
            datamart=datamart.name,
            rules_fired=_fired(session.outcomes),
            view=self._view_stats(session),
            journal=request.journal,
        )

    def logout(self, token: str | None) -> LogoutResult:
        record = self._record(token)
        with record.lock:
            outcomes = record.session.end()
            self.sessions.remove(record.token)
        return LogoutResult(ended=True, rules_fired=_fired(outcomes))

    # -- analysis operations ------------------------------------------------------

    def profile(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            return record.session.profile.to_dict()

    def schema(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            # The session's shared schema for its set of added layers
            # and spatial levels — no need to materialize fact rows.
            return record.session.context.geomd_schema.to_dict()

    def view_stats(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            return self._view_stats(record.session)

    @staticmethod
    def _view_stats(session) -> dict:
        """Stats of the materialized view(s), with the layers and spatial
        levels of the session's schema.

        Single-fact stars (the common case) keep the flat shape; a
        multi-fact star answers with one stats block per fact under
        ``"facts"`` since there is no single unambiguous view.
        """
        facts = session.context.star.schema.facts
        if len(facts) == 1:
            return session.view_stats()
        return {
            "facts": {name: session.view_stats(name) for name in sorted(facts)}
        }

    def query(self, token: str | None, request: QueryRequest) -> QueryResult:
        from repro.storage.snapshot import HistoryError

        record = self._record(token)
        with record.lock:
            session = record.session
            star = session.context.star
            cache_key = None
            if not star.oracle:
                cache_key = (
                    record.datamart,
                    # Stripped query text only: internal whitespace can be
                    # significant (string literals), so it is preserved.
                    # The text fully determines the fact, so a hit skips
                    # the parse entirely; malformed queries never populate
                    # the cache and keep raising on every request.
                    request.q.strip(),
                    # Content fingerprint, not a session identity: sessions
                    # of one tenant whose selections hold the same
                    # instances share the entry (and a selection change
                    # changes the fingerprint).  The datamart component
                    # keeps tenants isolated.
                    session.selection.fingerprint(),
                    # The parse checks spatial filters against the
                    # session's schema, so sessions with different sets
                    # of layers and spatial levels answer apart.
                    session.context.schema_set,
                    request.as_of,
                    # Read before the parse, the view and the scan: a row
                    # appended meanwhile files this answer under a
                    # generation the star has already left, so the next
                    # lookup recomputes.  A past generation never changes,
                    # so an as-of answer keys on ``as_of`` alone.
                    star.generation if request.as_of is None else None,
                )
                payload = self._query_cache.get(cache_key)
                if payload is not None:
                    # A cache hit is still workload: the journal observes
                    # the same traffic the caches do.
                    self._journal_query(record, request)
                    return self._paged_result(payload, request)
            try:
                query = parse_query(request.q, session.context.geomd_schema)
                # The parsed query names the fact, so multi-fact stars
                # materialize the right per-fact view.
                view = session.view(query.fact)
                row_selection = view.fact_rows if view.is_restricted else None
                cell_set = execute(
                    view.star,
                    query,
                    row_selection,
                    session.engine.metric,
                    as_of=request.as_of,
                )
            except QueryError as exc:
                raise BadRequestError(
                    str(exc), code="query_error", detail={"q": request.q}
                ) from exc
            except HistoryError as exc:
                raise BadRequestError(
                    str(exc),
                    code="as_of_unavailable",
                    detail={"as_of": request.as_of},
                ) from exc
            payload = CellSetPayload(
                axes=tuple(str(a) for a in cell_set.axes),
                labels=tuple(cell_set.labels),
                # to_rows() already yields tuples; freezing the outer
                # sequence too makes the whole cached payload immutable.
                rows=tuple(cell_set.to_rows()),
                fact_rows_scanned=cell_set.fact_rows_scanned,
                fact_rows_matched=cell_set.fact_rows_matched,
            )
            if cache_key is not None:
                self._query_cache.put(cache_key, payload)
            self._journal_query(record, request)
        return self._paged_result(payload, request)

    def _paged_result(
        self, payload: CellSetPayload, request: QueryRequest
    ) -> QueryResult:
        rows, page = request.page.apply(payload.rows)
        return QueryResult(
            axes=list(payload.axes),
            labels=list(payload.labels),
            # Fresh lists per request: the cached payload rows are frozen
            # tuples, and no two responses may share mutable state.
            rows=[list(row) for row in rows],
            fact_rows_scanned=payload.fact_rows_scanned,
            fact_rows_matched=payload.fact_rows_matched,
            page=page,
        )

    @property
    def query_cache_hits(self) -> int:
        return self._query_cache.hits

    @property
    def query_cache_misses(self) -> int:
        return self._query_cache.misses

    def record_selection(
        self, token: str | None, request: SelectionRequest
    ) -> SelectionResult:
        record = self._record(token)
        with record.lock:
            try:
                outcomes = record.session.record_spatial_selection(
                    request.target, request.condition
                )
            except PRMLError as exc:
                raise BadRequestError(
                    str(exc),
                    code="bad_selection",
                    detail={
                        "target": request.target,
                        "condition": request.condition,
                    },
                ) from exc
            self._save_state(record)
            if self._journal_enabled(record):
                # Snapshot the member selection *after* acquisition rules
                # fired: this is the spatial footprint similarity is
                # computed from.
                self.journal.record_selection(
                    record.datamart,
                    record.user_id,
                    request.target,
                    request.condition,
                    members=record.session.selection.member_triples(),
                )
            return SelectionResult(
                matched_rules=[o.rule_name for o in outcomes],
                profile=record.session.profile.to_dict(),
            )

    def rerun_instance_rules(self, token: str | None) -> RerunResult:
        record = self._record(token)
        with record.lock:
            outcomes = record.session.rerun_instance_rules()
            self._save_state(record)
            return RerunResult(
                rules_fired=_fired(outcomes),
                view=self._view_stats(record.session),
            )

    def layer(
        self, token: str | None, name: str, page: PageRequest | None = None
    ) -> LayerResult:
        record = self._record(token)
        with record.lock:
            session = record.session
            schema = session.context.geomd_schema
            if name not in schema.layers:
                from repro.errors import NotFoundError

                raise NotFoundError(
                    f"no layer {name!r} in the personalized schema",
                    code="unknown_layer",
                    detail={"available": sorted(schema.layers)},
                )
            table = session.engine.star.layer_table(name)
            features, page_info = (page or PageRequest()).apply(
                list(table.features())
            )
            self._journal_layer(record, name)
        return LayerResult(
            layer=name,
            geometric_type=schema.layers[name].geometric_type.name,
            features=[
                {
                    "name": f.name,
                    "wkt": f.geometry.wkt,
                    "attributes": f.attributes,
                }
                for f in features
            ],
            page=page_info,
        )

    # -- recommendations ----------------------------------------------------------

    def recommendations(
        self,
        token: str | None,
        kind: str,
        request: RecommendationRequest | None = None,
    ) -> RecommendationResult:
        """Ranked suggestions (queries/layers/members) for this session's
        user, mined from the journals of the most similar users.

        Layer suggestions are confined to the session's *personalized*
        schema, query suggestions to the texts that parse against it, and
        member suggestions exclude the session's live selection, so a
        recommendation can never surface data the target user's own
        personalization would not grant; recommended queries execute
        through :meth:`query` against the user's own view.  The filters
        run before pagination, so the page total counts what is offered.
        """
        request = request or RecommendationRequest()
        # Auth first, like every other session endpoint: an anonymous
        # client must get the same 401 for valid and invalid kinds.
        record = self._record(token)
        if kind not in KINDS:
            from repro.errors import NotFoundError

            raise NotFoundError(
                f"no recommendation kind {kind!r}",
                code="unknown_recommendation_kind",
                detail={"available": list(KINDS)},
            )
        with record.lock:
            session = record.session
            schema = session.context.geomd_schema
            items, neighbours = self.recommender.recommend(
                record.datamart,
                record.user_id,
                session.context.star,
                kind,
                k=request.k,
                allowed_layers=set(schema.layers) if kind == "layers" else None,
                exclude_members=session.selection.member_triples()
                if kind == "members"
                else (),
            )
            if kind == "queries":
                items = [r for r in items if _parses(r.item["q"], schema)]
        paged, page_info = request.page.apply(
            [recommendation.to_dict() for recommendation in items]
        )
        return RecommendationResult(
            kind=kind,
            user=record.user_id,
            datamart=record.datamart,
            items=paged,
            similar_users=[
                {"user": user, "score": round(score, 6)}
                for user, score in neighbours
            ],
            page=page_info,
        )

    # -- introspection -----------------------------------------------------------

    def health(self) -> dict:
        """Unauthenticated liveness/introspection snapshot (LB probes)."""
        query_cache = {
            "size": len(self._query_cache),
            "max_size": self._query_cache.max_size,
            "hits": self.query_cache_hits,
            "misses": self.query_cache_misses,
            "hit_rate": _hit_rate(
                self.query_cache_hits, self.query_cache_misses
            ),
        }
        sanitizer = _sanitizer.current()
        return {
            "status": "ok",
            "datamarts": [
                {
                    "name": dm.name,
                    "sessions_started": dm.engine.sessions_started,
                    "star_generation": dm.engine.star.generation,
                    # Shared materialized-view store counters.
                    "view_store": self._view_store_stats(dm.engine.view_store),
                    # The mutation pathway: per-kind log counters,
                    # retained-generation window, as-of history stats,
                    # and the patched-vs-rebuilt split of the view tier.
                    "mutations": self._mutation_stats(dm.engine),
                }
                for dm in sorted(self.registry, key=lambda d: d.name)
            ],
            "active_sessions": len(self.sessions),
            "query_cache": query_cache,
            # Which state tier this process runs on: backend kind, rows
            # per store, and the pool worker id when forked (None
            # single-process) — the per-backend stats the cluster mode's
            # load balancer and its tests read.
            "state_backend": self._state_backend_stats(),
            "journal": self.journal.stats(),
            "recommender": self._recommender_stats(),
            # Lock acquisition/contention counters and the lock-order
            # graph summary, when the sanitizer is running
            # (REPRO_SANITIZE=1); null in normal operation.
            "locks": sanitizer.stats() if sanitizer is not None else None,
        }

    def datamarts(self) -> list[DatamartInfo]:
        """Describe every tenant this service hosts."""
        return [
            DatamartInfo(
                name=dm.name,
                description=dm.description,
                default=dm.name == self.registry.default_name,
                users=len(dm.profiles),
                rules=len(dm.engine.rules),
                sessions_started=dm.engine.sessions_started,
            )
            for dm in sorted(self.registry, key=lambda d: d.name)
        ]

    def sessions_started(self, datamart: str) -> int:
        """Logins on the tenant's engine (restored sessions excluded)."""
        return self.registry.get(datamart).engine.sessions_started

    @staticmethod
    def _view_store_stats(view_store) -> dict:
        """View-store counters plus the derived ``hit_rate`` — health
        consumers (the workload metrics collector, dashboards) read the
        rate instead of re-deriving it from the raw counters."""
        stats = view_store.stats()
        stats["hit_rate"] = _hit_rate(stats["hits"], stats["misses"])
        return stats

    def _recommender_stats(self) -> dict:
        stats = self.recommender.stats()
        stats["memo_hit_rate"] = _hit_rate(
            stats["memo_hits"], stats["memo_misses"]
        )
        return stats

    @staticmethod
    def _mutation_stats(engine: PersonalizationEngine) -> dict:
        """The per-tenant ``mutations`` health block: the star's mutation
        log (per-kind counts, length, retained-generation window), the
        as-of history tier, and how often the view store patched or
        carried entries through mutations instead of rebuilding."""
        stats = engine.star.mutation_log.stats()
        stats["history"] = engine.history.stats()
        view_stats = engine.view_store.stats()
        stats["view_patches"] = view_stats["patches"] + view_stats["carries"]
        stats["view_rebuilds"] = view_stats["builds"]
        stats["view_invalidations"] = view_stats["invalidations"]
        return stats

    def _state_backend_stats(self) -> dict:
        """The health block for the state tier (see health()): the
        backend this service's session store runs on, or ``memory`` for
        an in-heap store, whatever ``REPRO_BACKEND`` selects."""
        from repro.cluster.config import worker_id

        backend = getattr(self.sessions, "backend", None)
        if backend is None:
            return {"kind": "memory", "worker_id": worker_id(), "stores": {}}
        stats = backend.stats()
        stats["worker_id"] = worker_id()
        stats["sessions"] = self.sessions.stats()
        return stats

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _journal_enabled(record: SessionRecord) -> bool:
        return bool(record.meta.get("journal", True))

    def _journal_query(self, record: SessionRecord, request: QueryRequest) -> None:
        if self._journal_enabled(record):
            self.journal.record_query(
                record.datamart, record.user_id, request.q
            )

    def _journal_layer(self, record: SessionRecord, name: str) -> None:
        if self._journal_enabled(record):
            self.journal.record_layer(record.datamart, record.user_id, name)

    def _save_state(self, record: SessionRecord) -> None:
        """Write what the rules left on the session into its record, so
        a persistent store restores the session as it is now.  Call with
        ``record.lock`` held."""
        record.meta.update(encode_session_state(record.session))
        self.sessions.persist(record)

    def _rehydrate_session(self, datamart_name: str, user_id: str, meta: dict):
        """Restore a live session from its persisted record (another
        worker issued the token, or this worker spilled the live
        session): the record's selection and schema set, on the user's
        profile, with no rule fired (see
        :meth:`PersonalizationEngine.restore_session`).  A selection or
        schema set that is missing, does not decode, or names what the
        tenant did not load raises :class:`CodecError`, which the store
        answers like any corrupt record (only the tenant knows what it
        loaded, so its :class:`SchemaError` is turned into one here)."""
        schema_set, selection = decode_session_state(meta)
        datamart = self.registry.get(datamart_name)
        profile = datamart.profile(user_id)
        coordinates = meta.get("location")
        location = (
            Point(coordinates[0], coordinates[1])
            if isinstance(coordinates, (list, tuple)) and len(coordinates) == 2
            else None
        )
        try:
            return datamart.engine.restore_session(
                profile, location, schema_set, selection
            )
        except SchemaError as exc:
            raise CodecError(f"corrupt session record: {exc}") from exc

    def _record(self, token: str | None) -> SessionRecord:
        if token is None:
            raise UnauthorizedError(
                "missing session token; POST /api/v1/login first",
                code="missing_token",
            )
        record = self.sessions.get(token)
        session = record.session
        if isinstance(session, PersonalizedSession) and session.closed:
            self.sessions.remove(record.token)
            raise UnauthorizedError(
                "session already ended", code="invalid_session"
            )
        return record
