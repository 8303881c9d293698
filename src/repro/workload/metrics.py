"""Health-route scraping around replay runs.

The portal's unauthenticated ``/api/v1/health`` route already exposes
every counter the benchmark JSON wants — the shared view store's
patches-vs-rebuilds split, the state backend's spill/rehydration
counts, the recommender's profile cache, the journal's event counts,
and (when the process started under ``REPRO_SANITIZE=1``) per-lock
contention and hold totals.  This module turns a *pair* of snapshots
bracketing a replay into the numbers a trajectory wants:

* :func:`merge_health` — sum one snapshot per worker into a single
  cluster-wide snapshot (each worker has its own L1 caches; backend
  counters are per-process too);
* :func:`health_window` — before/after deltas with *window* hit rates
  (hits and misses that happened during the run, not since boot), and
  a query-cache block that reads zero: the service caches no answer,
  and the benchmark still reads the block;
* :func:`contention_summary` — the sanitizer's per-lock counters
  reduced to the few that matter for a load report.

Everything here is pure dict plumbing — no sockets.  Targets (see
:mod:`repro.workload.driver`) own *how* health is fetched; this module
owns what is extracted from it.
"""

from __future__ import annotations

__all__ = [
    "merge_health",
    "health_window",
    "contention_summary",
]


def _rate(hits: int, misses: int) -> float | None:
    total = hits + misses
    if total <= 0:
        return None
    return round(hits / total, 4)


def merge_health(snapshots: list[dict]) -> dict:
    """Sum per-worker health snapshots into one cluster-wide view.

    Counters add; sizes add (each worker has its own L1); per-datamart
    blocks merge by tenant name; ``star_generation`` must agree across
    workers (same deterministic factory) and is carried through.  A
    single-snapshot list passes through semantically unchanged, so
    callers never branch on the target topology.
    """
    if not snapshots:
        return {}
    sessions_backend = {"spills": 0, "rehydrations": 0}
    recommender = {"memo_hits": 0, "memo_misses": 0}
    journal_events = 0
    active_sessions = 0
    datamarts: dict[str, dict] = {}
    locks: list[dict] = []
    for snapshot in snapshots:
        active_sessions += snapshot.get("active_sessions", 0)
        reco = snapshot.get("recommender") or {}
        recommender["memo_hits"] += reco.get("memo_hits", 0)
        recommender["memo_misses"] += reco.get("memo_misses", 0)
        # journal.stats() is keyed per datamart: sum the event counts.
        for tenant_stats in (snapshot.get("journal") or {}).values():
            journal_events += tenant_stats.get("events", 0)
        backend = snapshot.get("state_backend") or {}
        store = backend.get("sessions") or {}
        sessions_backend["spills"] += store.get("spills", 0)
        sessions_backend["rehydrations"] += store.get("rehydrations", 0)
        for tenant in snapshot.get("datamarts", ()):
            merged = datamarts.setdefault(
                tenant["name"],
                {
                    "name": tenant["name"],
                    "sessions_started": 0,
                    "star_generation": tenant.get("star_generation"),
                    "view_store": None,
                },
            )
            merged["sessions_started"] += tenant.get("sessions_started", 0)
            view = tenant.get("view_store")
            if view is not None:
                if merged["view_store"] is None:
                    merged["view_store"] = {
                        "hits": 0,
                        "misses": 0,
                        "builds": 0,
                        "patches": 0,
                        "carries": 0,
                        "invalidations": 0,
                    }
                for key in merged["view_store"]:
                    merged["view_store"][key] += view.get(key, 0)
        lock_stats = snapshot.get("locks")
        if lock_stats is not None:
            locks.append(lock_stats)
    recommender["memo_hit_rate"] = _rate(
        recommender["memo_hits"], recommender["memo_misses"]
    )
    for merged in datamarts.values():
        view = merged["view_store"]
        if view is not None:
            view["hit_rate"] = _rate(view["hits"], view["misses"])
    return {
        "workers": len(snapshots),
        "recommender": recommender,
        "journal_events": journal_events,
        "active_sessions": active_sessions,
        "sessions_backend": sessions_backend,
        "datamarts": [datamarts[name] for name in sorted(datamarts)],
        "locks": _merge_locks(locks) if locks else None,
    }


def _merge_locks(lock_stats: list[dict]) -> dict:
    """Sum sanitizer per-lock counters across workers."""
    merged: dict[str, dict] = {}
    cycles = 0
    for stats in lock_stats:
        cycles = max(cycles, len(stats.get("cycles") or ()))
        for name, counters in (stats.get("locks") or {}).items():
            into = merged.setdefault(
                name,
                {
                    "acquisitions": 0,
                    "contentions": 0,
                    "wait_total_s": 0.0,
                    "hold_total_s": 0.0,
                    "max_wait_s": 0.0,
                    "max_hold_s": 0.0,
                },
            )
            into["acquisitions"] += counters.get("acquisitions", 0)
            into["contentions"] += counters.get("contentions", 0)
            into["wait_total_s"] += counters.get("wait_total_s", 0.0)
            into["hold_total_s"] += counters.get("hold_total_s", 0.0)
            into["max_wait_s"] = max(
                into["max_wait_s"], counters.get("max_wait_s", 0.0)
            )
            into["max_hold_s"] = max(
                into["max_hold_s"], counters.get("max_hold_s", 0.0)
            )
    return {"locks": merged, "cycles": cycles}


_WINDOW_COUNTERS = (
    # Always zero; perfbench/workloads.py _add_window reads it until
    # perfbench drops query_cache_hit_rate.
    ("query_cache", ("hits", "misses")),
    ("recommender", ("memo_hits", "memo_misses")),
    ("sessions_backend", ("spills", "rehydrations")),
)


def health_window(before: dict, after: dict) -> dict:
    """What happened *between* two merged snapshots.

    Deltas for every additive counter, plus window hit rates derived
    from the deltas — a run against a warm process reports the run's
    own cache behaviour, not the process's lifetime average.
    """
    window: dict = {}
    for block_name, keys in _WINDOW_COUNTERS:
        before_block = before.get(block_name) or {}
        after_block = after.get(block_name) or {}
        block = {
            key: after_block.get(key, 0) - before_block.get(key, 0)
            for key in keys
        }
        window[block_name] = block
    window["query_cache"]["hit_rate"] = _rate(
        window["query_cache"]["hits"], window["query_cache"]["misses"]
    )
    window["recommender"]["memo_hit_rate"] = _rate(
        window["recommender"]["memo_hits"],
        window["recommender"]["memo_misses"],
    )
    window["journal_events"] = after.get("journal_events", 0) - before.get(
        "journal_events", 0
    )
    view_window: dict[str, dict] = {}
    before_tenants = {
        tenant["name"]: tenant for tenant in before.get("datamarts", ())
    }
    for tenant in after.get("datamarts", ()):
        view_after = tenant.get("view_store")
        if view_after is None:
            continue
        view_before = (
            before_tenants.get(tenant["name"], {}).get("view_store") or {}
        )
        delta = {
            key: view_after.get(key, 0) - view_before.get(key, 0)
            for key in (
                "hits",
                "misses",
                "builds",
                "patches",
                "carries",
                "invalidations",
            )
        }
        delta["hit_rate"] = _rate(delta["hits"], delta["misses"])
        view_window[tenant["name"]] = delta
    window["view_store"] = view_window
    window["locks"] = (
        contention_summary(after["locks"]) if after.get("locks") else None
    )
    return window


def contention_summary(merged_locks: dict, top: int = 5) -> dict:
    """The load-report view of the sanitizer's lock table.

    Totals across every lock plus the ``top`` most contended ones
    (by contention count, then wait time) — enough to see *where*
    threads queue without shipping the whole table into the JSON.
    """
    locks = merged_locks.get("locks") or {}
    total_acquisitions = sum(c["acquisitions"] for c in locks.values())
    total_contentions = sum(c["contentions"] for c in locks.values())
    total_wait = sum(c["wait_total_s"] for c in locks.values())
    ranked = sorted(
        locks.items(),
        key=lambda item: (item[1]["contentions"], item[1]["wait_total_s"]),
        reverse=True,
    )
    return {
        "acquisitions": total_acquisitions,
        "contentions": total_contentions,
        "contention_rate": _rate(
            total_contentions, total_acquisitions - total_contentions
        ),
        "wait_total_s": round(total_wait, 6),
        "cycles": merged_locks.get("cycles", 0),
        "top_contended": [
            {
                "name": name,
                "contentions": counters["contentions"],
                "wait_total_s": round(counters["wait_total_s"], 6),
                "max_wait_s": round(counters["max_wait_s"], 6),
            }
            for name, counters in ranked[:top]
            if counters["contentions"] > 0
        ],
    }

