"""The :class:`PersonalizationService` façade — the portal's application
logic as a transport-independent, versioned service layer.

Any front end (the stdlib HTTP adapter, the in-process test driver, a
future async adapter) talks to this one class with typed DTOs and gets
either a typed result or a :class:`~repro.errors.ServiceError` carrying
the uniform error envelope.  The service owns:

* tenant resolution through a :class:`~repro.service.registry.DatamartRegistry`
  (login's ``datamart`` field picks the star/engine);
* authentication through a pluggable
  :class:`~repro.service.sessions.SessionStore` (TTL, eviction,
  thread-safety);
* the analysis operations themselves (profile, schema, view, GeoMDQL
  query, spatial-selection events, instance-rule rerun, layer export)
  with ``limit``/``offset`` pagination on list-shaped results;
* a small LRU cache over query *results* keyed on ``(datamart,
  stripped query text, selection fingerprint, as_of)``.  The key carries
  no star generation: each cached payload instead stores the
  *per-dimension generation stamps* its answer depended on (fact,
  schema, the fact's dimensions, the layers its spatial filters read)
  and a hit revalidates those stamps against the live star — so a
  mutation of an unrelated dimension keeps every unaffected entry warm
  instead of evicting the whole tenant.  The selection fingerprint is
  the *content* identity of the session's selection: two sessions of one
  tenant whose personalization landed on the same instances share a
  cache entry, while the datamart name keeps tenants strictly apart.
  ``as_of`` answers are immutable history, cached with empty stamps.
  Cached payload rows are frozen as tuples so a consumer mutating a
  returned row can never poison later hits.  ``query_cache_size=0``
  disables it.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.analysis import sanitizer as _sanitizer
from repro.concurrency import make_lock
from repro.errors import BadRequestError, PRMLError, QueryError, UnauthorizedError
from repro.geometry import Point
from repro.olap.gmdql import parse_query
from repro.olap.query import execute
from repro.personalization.engine import PersonalizationEngine, PersonalizedSession
from repro.reco import Recommender, WorkloadJournal
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
from repro.service.registry import Datamart, DatamartRegistry
from repro.service.sessions import InMemorySessionStore, SessionRecord, SessionStore

__all__ = ["PersonalizationService", "CellSetPayload"]


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
    fresh lists per request instead.

    ``stamps`` records the per-dimension generations this answer was
    computed against, as ``(kind, name, generation)`` triples (kinds:
    ``fact``/``schema``/``member``/``layer``); a cache hit is served only
    while every stamp still matches the live star, so a mutation
    invalidates exactly the entries whose inputs it touched.  As-of
    payloads are immutable history and carry no stamps.
    """

    axes: tuple[str, ...]
    labels: tuple
    rows: tuple[tuple, ...]
    fact_rows_scanned: int
    fact_rows_matched: int
    stamps: tuple = ()


class PersonalizationService:
    """Versioned application façade over registry + session store."""

    def __init__(
        self,
        registry: DatamartRegistry,
        session_store: SessionStore | None = None,
        query_cache_size: int = 256,
        journal: WorkloadJournal | None = None,
        recommender: Recommender | None = None,
        query_cache=None,
    ) -> None:
        # The default stores are env-selected (REPRO_BACKEND): in-heap
        # classes in the default mode, backend-backed two-tier stores
        # over the shared persistent backend with REPRO_BACKEND=sqlite
        # (see repro.cluster.config).  Explicit arguments always win.
        from repro.cluster.config import (
            make_journal,
            make_query_cache,
            make_session_store,
        )

        self.registry = registry
        # `is not None` matters: an empty store has __len__ == 0 and is falsy.
        self.sessions = (
            session_store
            if session_store is not None
            else make_session_store(resolver=self._rehydrate_session)
        )
        # guarded-by: _lock
        self._sessions_started: dict[str, int] = {}
        # guarded-by: _lock
        self._hooked_engines: set[int] = set()
        #: Guards hook registration and the per-tenant counters; engines
        #: themselves are not thread-safe, so logins are serialized per
        #: engine and same-token requests per session record.
        self._lock = make_lock("PersonalizationService._lock")
        # guarded-by: _lock
        self._engine_locks: dict[int, threading.Lock] = {}
        #: Lookups that found an entry whose generation stamps no longer
        #: match the live star; the hit/miss properties reclassify them.
        # guarded-by: _lock
        self._stale_query_hits = 0
        if query_cache_size < 0:
            raise ValueError("query_cache_size must be >= 0")
        self.query_cache_size = query_cache_size
        #: ThreadSafeLRU or its backend-backed equivalent (same get/put/
        #: clear/hits/misses surface, entries shared across workers).
        self._query_cache = (
            query_cache
            if query_cache is not None
            else make_query_cache(query_cache_size)
        )
        #: Workload journal + recommender: every query, selection report
        #: and layer fetch is journaled per (datamart, user) — unless the
        #: login opted out — and the recommender ranks suggestions from
        #: similar users' journals (see :mod:`repro.reco`).
        self.journal = journal if journal is not None else make_journal()
        self.recommender = (
            recommender if recommender is not None else Recommender(self.journal)
        )

    # -- session lifecycle --------------------------------------------------------

    def login(self, request: LoginRequest) -> LoginResult:
        """Open a personalized session on the requested datamart."""
        datamart = self.registry.get(request.datamart)
        profile = datamart.profile(request.user)
        self._ensure_hooked(datamart)
        with self._engine_lock(datamart.engine):
            session = datamart.engine.start_session(
                profile, location=request.location
            )
        # The journaling opt-out travels with the session record, not the
        # user: a later login may opt back in and resume the history.  The
        # login location rides along so a persistent store can rebuild
        # the session in another process (see _rehydrate_session) —
        # meta values must stay JSON-safe for exactly that reason.
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
            },
        )
        return LoginResult(
            token=record.token,
            user=request.user,
            datamart=datamart.name,
            rules_fired=[o.rule_name for o in session.outcomes],
            view=self._view_stats(session),
            journal=request.journal,
        )

    def logout(self, token: str | None) -> LogoutResult:
        record = self._record(token)
        with record.lock:
            outcomes = record.session.end()
            self.sessions.remove(record.token)
        return LogoutResult(
            ended=True, rules_fired=[o.rule_name for o in outcomes]
        )

    # -- analysis operations ------------------------------------------------------

    def profile(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            return record.session.profile.to_dict()

    def schema(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            # The personalized schema is the session context's GeoMD
            # schema (the view only carries a reference to it) — no need
            # to materialize fact rows, and multi-fact stars stay valid.
            return record.session.context.geomd_schema.to_dict()

    def view_stats(self, token: str | None) -> dict:
        record = self._record(token)
        with record.lock:
            return self._view_stats(record.session)

    @staticmethod
    def _view_stats(session) -> dict:
        """Stats of the materialized view(s).

        Single-fact stars (the common case) keep the flat shape; a
        multi-fact star answers with one stats block per fact under
        ``"facts"`` since there is no single unambiguous view.
        """
        facts = session.context.star.schema.facts
        if len(facts) == 1:
            return session.view().stats()
        return {
            "facts": {name: session.view(name).stats() for name in sorted(facts)}
        }

    def query(self, token: str | None, request: QueryRequest) -> QueryResult:
        from repro.storage.snapshot import HistoryError

        record = self._record(token)
        with record.lock:
            session = record.session
            star = session.context.star
            cache_key = None
            if self.query_cache_size > 0:
                selection = session.selection
                cache_key = (
                    record.datamart,
                    # Stripped query text only: internal whitespace can be
                    # significant (string literals), so it is preserved.
                    # The text fully determines the fact, so a hit skips
                    # the parse entirely; malformed queries never populate
                    # the cache and keep raising on every request.
                    request.q.strip(),
                    # Content fingerprint, not the session uid: sessions
                    # of one tenant whose selections hold the same
                    # instances share the entry (and a selection change
                    # changes the fingerprint).  The datamart component
                    # keeps tenants isolated.
                    selection.fingerprint(),
                    # Live and as-of reads share the namespace; the star
                    # generation is deliberately absent — freshness is
                    # the stored payload's stamps, revalidated below.
                    request.as_of,
                )
                payload = self._query_cache.get(cache_key)
                if payload is not None:
                    if request.as_of is not None or self._stamps_current(
                        star, payload.stamps
                    ):
                        # A cache hit is still workload: the journal
                        # observes the same traffic the caches do.  As-of
                        # answers are immutable history — no stamps to
                        # revalidate.
                        self._journal_query(record, request)
                        return self._paged_result(payload, request)
                    # Stale stamps: the raw LRU counted a lookup hit but
                    # nothing was served — reclassified as a miss by the
                    # query_cache_hits/misses properties.
                    with self._lock:
                        self._stale_query_hits += 1
            try:
                query = parse_query(request.q, session.context.geomd_schema)
            except QueryError as exc:
                raise BadRequestError(
                    str(exc), code="query_error", detail={"q": request.q}
                ) from exc
            # Stamped before the view and the scan read the star: a row
            # appended meanwhile then leaves a stamp older than the star,
            # and the next lookup recomputes instead of serving an answer
            # that lacks the row.
            stamps = (
                ()
                if request.as_of is not None
                else self._generation_stamps(star, query)
            )
            # The parsed query names the fact, so multi-fact stars
            # materialize the right per-fact view.
            view = session.view(query.fact)
            row_selection = view.fact_rows if view.is_restricted else None
            try:
                cell_set = execute(
                    view.star,
                    query,
                    row_selection,
                    session.engine.metric,
                    as_of=request.as_of,
                )
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
                stamps=stamps,
            )
            if cache_key is not None:
                # query_cache_size is runtime-mutable; trim to its live value.
                self._query_cache.put(
                    cache_key, payload, max_size=self.query_cache_size
                )
            self._journal_query(record, request)
        return self._paged_result(payload, request)

    @staticmethod
    def _generation_stamps(star, query) -> tuple:
        """The ``(kind, name, generation)`` triples a live answer to
        ``query`` depends on: the fact table's rows, the schema layout,
        the member state of each of the fact's dimensions, and the
        feature state of every layer the query's spatial filters read.
        Mutations elsewhere (other facts, other dimensions, other
        layers) leave every stamp intact and the entry stays warm.
        """
        from repro.olap.query import LayerRef, SpatialFilter

        stamps = [
            ("fact", query.fact, star.fact_generation(query.fact)),
            ("schema", "", star.schema_generation),
        ]
        fact = star.fact_table(query.fact).fact
        for dimension in fact.dimension_names:
            stamps.append(
                ("member", dimension, star.member_generation(dimension))
            )
        layers = set()
        for flt in query.where:
            if isinstance(flt, SpatialFilter) and isinstance(
                flt.target, LayerRef
            ):
                layers.add(flt.target.name)
        for name in sorted(layers):
            stamps.append(("layer", name, star.feature_generation(name)))
        return tuple(stamps)

    @staticmethod
    def _stamps_current(star, stamps) -> bool:
        """Whether every recorded generation stamp still matches the live
        star — the read half of the stamped-value cache protocol."""
        if not stamps:
            # A stampless live payload (e.g. decoded from an older
            # process that recorded none) carries no proof of freshness.
            return False
        for kind, name, generation in stamps:
            if kind == "fact":
                live = star.fact_generation(name)
            elif kind == "schema":
                live = star.schema_generation
            elif kind == "member":
                live = star.member_generation(name)
            elif kind == "layer":
                live = star.feature_generation(name)
            else:
                return False
            if live != generation:
                return False
        return True

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
        """Lookups served from cache: raw store hits minus the lookups
        whose stamps had gone stale (those served nothing)."""
        with self._lock:
            stale = self._stale_query_hits
        return self._query_cache.hits - stale

    @property
    def query_cache_misses(self) -> int:
        with self._lock:
            stale = self._stale_query_hits
        return self._query_cache.misses + stale

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
            # Log the accepted report on the record so a persistent
            # store can replay it: a rehydrated session re-fires the
            # same acquisition rules and lands on the same selection
            # content (selections are additive, so replay is idempotent
            # in content).  Bounded by the session TTL, not by count.
            record.meta.setdefault("selections", []).append(
                [request.target, request.condition]
            )
            self.sessions.persist(record)
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
            return RerunResult(
                rules_fired=[o.rule_name for o in outcomes],
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
        schema and member suggestions exclude the session's live
        selection, so a recommendation can never surface data the target
        user's own personalization would not grant; recommended queries
        execute through :meth:`query` against the user's own view.
        """
        request = request or RecommendationRequest()
        # Auth first, like every other session endpoint: an anonymous
        # client must get the same 401 for valid and invalid kinds.
        record = self._record(token)
        if kind not in ("queries", "layers", "members"):
            from repro.errors import NotFoundError

            raise NotFoundError(
                f"no recommendation kind {kind!r}",
                code="unknown_recommendation_kind",
                detail={"available": ["queries", "layers", "members"]},
            )
        with record.lock:
            session = record.session
            star = session.context.star
            selection = session.selection
            items, neighbours = self.recommender.recommend(
                record.datamart,
                record.user_id,
                star,
                kind,
                k=request.k,
                allowed_layers=set(session.context.geomd_schema.layers)
                if kind == "layers"
                else None,
                exclude_members=selection.member_triples()
                if kind == "members"
                else (),
                # The memo key must cover the session state consulted
                # above — the selection's (uid, generation) is exactly the
                # cache-identity protocol the view memo and query cache use.
                context_key=(selection.uid, selection.generation),
            )
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
            "max_size": self.query_cache_size,
            "hits": self.query_cache_hits,
            "misses": self.query_cache_misses,
            "hit_rate": _hit_rate(
                self.query_cache_hits, self.query_cache_misses
            ),
        }
        with self._lock:
            sessions_started = dict(self._sessions_started)
        sanitizer = _sanitizer.current()
        return {
            "status": "ok",
            "datamarts": [
                {
                    "name": dm.name,
                    "sessions_started": sessions_started.get(dm.name, 0),
                    "star_generation": dm.engine.star.generation,
                    # Shared materialized-view store counters (None when
                    # the tenant's engine runs with view_store_size=0).
                    "view_store": (
                        self._view_store_stats(dm.engine.view_store)
                        if dm.engine.view_store is not None
                        else None
                    ),
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
        with self._lock:
            sessions_started = dict(self._sessions_started)
        return [
            DatamartInfo(
                name=dm.name,
                description=dm.description,
                default=dm.name == self.registry.default_name,
                users=len(dm.profiles),
                rules=len(dm.engine.rules),
                sessions_started=sessions_started.get(dm.name, 0),
            )
            for dm in sorted(self.registry, key=lambda d: d.name)
        ]

    def sessions_started(self, datamart: str) -> int:
        with self._lock:
            return self._sessions_started.get(datamart, 0)

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
        star = engine.star
        stats = star.mutation_log.stats()
        history = star.history
        stats["history"] = history.stats() if history is not None else None
        view_store = engine.view_store
        if view_store is not None:
            view_stats = view_store.stats()
            stats["view_patches"] = (
                view_stats["patches"] + view_stats["carries"]
            )
            stats["view_rebuilds"] = view_stats["builds"]
            stats["view_invalidations"] = view_stats["invalidations"]
        return stats

    def _state_backend_stats(self) -> dict:
        """The health block for the state tier (see health())."""
        from repro.cluster.config import state_health, worker_id

        backend = getattr(self.sessions, "backend", None)
        if backend is not None:
            # The session store names the backend this service actually
            # runs on (a pool worker's explicitly wired backend may not
            # be the env-selected shared one).
            stats = backend.stats()
            stats["worker_id"] = worker_id()
            if hasattr(self.sessions, "stats"):
                stats["sessions"] = self.sessions.stats()
            return stats
        return state_health()

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

    def _rehydrate_session(self, datamart_name: str, user_id: str, meta: dict):
        """Rebuild a live session for a persisted record (another worker
        issued the token, or this worker spilled the live session).

        A login-equivalent engine call — SessionStart rules fire against
        the user's profile and login location — followed by a replay of
        the selection reports the record logged, so the rehydrated
        session's selection *content* (and therefore its fingerprint,
        its shared view and its query-cache keys) matches the original.
        """
        datamart = self.registry.get(datamart_name)
        profile = datamart.profile(user_id)
        self._ensure_hooked(datamart)
        coordinates = meta.get("location")
        location = (
            Point(coordinates[0], coordinates[1])
            if isinstance(coordinates, (list, tuple)) and len(coordinates) == 2
            else None
        )
        with self._engine_lock(datamart.engine):
            session = datamart.engine.start_session(profile, location=location)
        for report in meta.get("selections", ()):
            if isinstance(report, (list, tuple)) and len(report) == 2:
                session.record_spatial_selection(report[0], report[1])
        return session

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

    def _engine_lock(self, engine: PersonalizationEngine) -> threading.Lock:
        """One lock per engine: start_session mutates shared engine state."""
        with self._lock:
            return self._engine_locks.setdefault(id(engine), threading.Lock())

    def _ensure_hooked(self, datamart: Datamart) -> None:
        """Attach a session-start hook to count sessions per tenant."""
        engine: PersonalizationEngine = datamart.engine
        name = datamart.name

        def _count(_session: PersonalizedSession) -> None:
            with self._lock:
                self._sessions_started[name] = (
                    self._sessions_started.get(name, 0) + 1
                )

        with self._lock:
            if id(engine) in self._hooked_engines:
                return
            engine.add_session_hook(_count)
            self._hooked_engines.add(id(engine))
