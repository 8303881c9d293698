"""Command-line interface: ``python -m repro <command>``.

Small operational commands over the reproduction:

``demo``
    Run the full paper scenario and print the personalized-view report.
``rules``
    Parse + semantically check a PRML rule file (or the built-in paper
    rules with ``--paper``), printing the canonical form.
``ddl``
    Emit the star-schema DDL for the (personalized) GeoMD schema.
``map``
    Write the personalized session SVG map.
``query``
    Run one GeoMDQL query over the personalized view.
``serve``
    Start the web portal on a local port (interactive use only).
``lint``
    Run the concurrency / cache-correctness lint suite against the
    committed baseline (see ``repro.analysis``).
``workload``
    Synthetic traffic: ``generate`` a deterministic event stream for a
    scale tier, ``describe`` a stream file, or ``replay`` one against a
    freshly built portal (optionally a multi-process worker pool),
    printing the latency/throughput/cache report as JSON (see
    ``repro.workload``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.data import (
    ALL_PAPER_RULES,
    WorldConfig,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
)
from repro.errors import ReproError, PRMLError
from repro.mda import DIALECTS, generate_ddl
from repro.olap import execute, parse_query
from repro.personalization import PersonalizationEngine
from repro.prml import SemanticAnalyzer, parse_rules, print_rule
from repro.viz import render_session_map

__all__ = ["main", "build_parser"]


def _build_engine(seed: int, threshold: int):
    world = generate_world(WorldConfig(seed=seed))
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": threshold},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    return world, star, engine


def _open_session(world, engine):
    profile = build_regional_manager_profile()
    return engine.start_session(profile, location=world.stores[0].location)


def cmd_demo(args: argparse.Namespace) -> int:
    world, star, engine = _build_engine(args.seed, args.threshold)
    session = _open_session(world, engine)
    print("personalized view:", session.view_stats())
    for outcome in session.outcomes:
        status = f"error: {outcome.error}" if outcome.error else (
            f"actions={outcome.fired_actions} selected={outcome.selected_instances}"
        )
        print(f"  rule {outcome.rule_name}: {status}")
    print()
    print(session.view().cube().by("Store.City").result().format_table())
    session.end()
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    try:
        if args.paper:
            sources = "\n".join(ALL_PAPER_RULES.values())
        elif args.file:
            sources = Path(args.file).read_text(encoding="utf-8")
        else:
            sources = sys.stdin.read()
        rules = parse_rules(sources)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        source = args.file or "<stdin>"
        print(f"error: cannot read {source}: {reason}", file=sys.stderr)
        return 1
    except PRMLError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    world, _star, engine = _build_engine(args.seed, args.threshold)
    del world
    # The tenant schema holds every layer and level the paper rules add.
    analyzer = SemanticAnalyzer(
        engine.user_schema,
        engine.geomd_schema,
        engine.geomd_schema,
        engine.parameters,
    )
    status = 0
    for rule in rules:
        issues = analyzer.analyze(rule)
        marker = "OK " if not issues else "ERR"
        print(f"[{marker}] Rule {rule.name}")
        for issue in issues:
            print(f"      - {issue}")
            status = 1
        if args.print:
            print(print_rule(rule))
            print()
    return status


def cmd_ddl(args: argparse.Namespace) -> int:
    world, _star, engine = _build_engine(args.seed, args.threshold)
    session = _open_session(world, engine)
    print(generate_ddl(session.context.geomd_schema, dialect=args.dialect), end="")
    session.end()
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    world, _star, engine = _build_engine(args.seed, args.threshold)
    session = _open_session(world, engine)
    svg = render_session_map(session, world)
    Path(args.output).write_text(svg)
    print(f"wrote {args.output}")
    session.end()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    world, star, engine = _build_engine(args.seed, args.threshold)
    session = _open_session(world, engine)
    view = session.view()
    try:
        query = parse_query(args.q, session.context.geomd_schema)
    except ReproError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        session.end()
        return 1
    result = execute(star, query, view.fact_rows if view.is_restricted else None)
    print(result.format_table())
    print(f"({result.fact_rows_matched} of {result.fact_rows_scanned} rows matched)")
    session.end()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def cmd_workload(args: argparse.Namespace) -> int:
    import dataclasses as _dataclasses
    import json

    from repro.workload import (
        EventStream,
        default_profile,
        demo_journal_profile,
        generator_for_tier,
        tier,
    )
    from repro.workload.harness import build_tier_world

    if args.action == "generate":
        selected = tier(args.tier)
        if args.stream_seed is not None:
            selected = _dataclasses.replace(
                selected,
                config=_dataclasses.replace(
                    selected.config, seed=args.stream_seed
                ),
            )
        profile = (
            demo_journal_profile()
            if args.profile == "journal"
            else default_profile()
        )
        world = build_tier_world(selected)
        stream = generator_for_tier(selected, world, profile=profile).stream()
        Path(args.output).write_text(stream.to_jsonl())
        fact_rows = world.config.sales
        print(
            json.dumps(
                {"wrote": args.output, **stream.describe(fact_rows=fact_rows)},
                indent=2,
            )
        )
        return 0

    stream = EventStream.from_jsonl(Path(args.stream).read_text())
    if args.action == "describe":
        print(json.dumps(stream.describe(), indent=2))
        return 0
    return _workload_replay(args, stream)


def _workload_replay(args: argparse.Namespace, stream) -> int:
    """Replay a stream file against a freshly built matching portal."""
    import dataclasses as _dataclasses
    import json
    import os
    import shutil
    import tempfile

    from repro.workload import (
        ClusterTarget,
        InProcessTarget,
        ReplayDriver,
        health_window,
        merge_health,
    )
    from repro.workload.harness import WORLD_SCALES, build_workload_portal

    config = stream.header.get("config", {})
    base = WORLD_SCALES[args.world_scale]
    world_config = _dataclasses.replace(
        base, sales=base.sales * int(config.get("fact_multiplier", 1))
    )
    from repro.data import generate_world

    world = generate_world(world_config)
    datamarts = tuple(config.get("datamarts") or ("default",))
    active = stream.active_users()

    pool = backend = state_dir = None
    if args.workers > 1:
        from repro.cluster.backend import SqliteBackend
        from repro.cluster.pool import WorkerPool

        state_dir = tempfile.mkdtemp(prefix="repro-workload-")
        backend = SqliteBackend(os.path.join(state_dir, "state.sqlite"))
        pool = WorkerPool(
            lambda worker_id: build_workload_portal(
                world, active, datamarts=datamarts, backend=backend
            ),
            workers=args.workers,
        )
        pool.wait_ready(timeout=180.0)
        target = ClusterTarget(pool)
    else:
        target = InProcessTarget(
            build_workload_portal(world, active, datamarts=datamarts)
        )
    try:
        driver = ReplayDriver(target)
        driver.resolve_as_of()
        before = merge_health(target.health())
        if args.mode == "serial":
            report, _bodies = driver.replay_serial(stream)
        elif args.mode == "closed":
            report = driver.replay_closed(stream, actors=args.actors)
        else:
            report = driver.replay_open(
                stream, rate_per_s=args.rate, senders=args.actors
            )
        after = merge_health(target.health())
        print(
            json.dumps(
                {
                    "report": report.to_dict(),
                    "health_window": health_window(before, after),
                },
                indent=2,
            )
        )
        return 1 if report.errors else 0
    finally:
        target.close()
        if pool is not None:
            pool.stop()
        if backend is not None:
            backend.close()
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)


def _build_portal_app(args, backend=None):  # pragma: no cover - network
    """Build the two-tenant demo portal, wired to the selected backend.

    With an explicit ``backend`` (the worker pool passes the parent's
    shared one) the session store and the journal get the *fixed*
    ``pool`` namespace so all workers see the same sessions and
    histories; otherwise the env-selected backend applies (a fresh
    namespace, or plain in-heap stores in the default mode).  Each
    worker keeps its view stores in its own heap.
    """
    from repro.cluster.config import env_backend, make_service_stores
    from repro.service import DatamartRegistry, PersonalizationService
    from repro.web import PortalApp

    namespace = "pool" if backend is not None else None
    backend = backend or env_backend()
    registry = DatamartRegistry()
    # A second tenant on a differently seeded world demonstrates the
    # multi-datamart routing of POST /api/v1/login {"datamart": ...}.
    tenants = [
        (args.datamart, args.seed, True),
        (f"{args.datamart}-alt", args.seed + 1, False),
    ]
    for name, seed, default in tenants:
        _world, _star, engine = _build_engine(seed, args.threshold)
        tenant = registry.register(
            name, engine, description=f"sales star (seed {seed})", default=default
        )
        tenant.register_user(build_regional_manager_profile())
    service = PersonalizationService(
        registry,
        **make_service_stores(backend, namespace, ttl=args.session_ttl),
    )
    return PortalApp(service=service)


def cmd_serve(args: argparse.Namespace) -> int:  # pragma: no cover - network
    import os
    import time

    from repro.web.server import serve

    if args.backend:
        os.environ["REPRO_BACKEND"] = args.backend
    if args.state:
        os.environ["REPRO_STATE"] = args.state
    from repro.cluster.config import backend_kind, shared_backend

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 1
    if args.workers == 1:
        app = _build_portal_app(args)
        print(
            f"serving /api/v1 on http://{args.host}:{args.port} "
            f"(backend {backend_kind()}; session TTL {args.session_ttl:g}s; "
            "Ctrl-C stops)"
        )
        serve(app, args.host, args.port)
        return 0

    # Multi-process serving: workers must share state through a
    # persistent backend (forked heaps are invisible to each other).
    if backend_kind() != "sqlite":
        print(
            "--workers > 1 requires the persistent backend "
            "(pass --backend sqlite, or set REPRO_BACKEND=sqlite)",
            file=sys.stderr,
        )
        return 1
    from repro.cluster.pool import WorkerPool

    # Resolve the shared backend in the parent, pre-fork: the workers
    # inherit the object (and its resolved file path) across the fork.
    backend = shared_backend()
    pool = WorkerPool(
        lambda worker_id: _build_portal_app(args, backend=backend),
        workers=args.workers,
        host=args.host,
        port=args.port,
    )
    try:
        pool.wait_ready()
        shards = ", ".join(str(port) for _host, port in pool.shard_addresses)
        print(
            f"serving /api/v1 on http://{pool.address[0]}:{pool.address[1]} "
            f"({args.workers} workers, shard ports {shards}; state "
            f"{backend.stats().get('path', '?')}; Ctrl-C stops)"
        )
        while pool.alive == args.workers:
            time.sleep(1.0)
        print("a worker exited; shutting the pool down", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    finally:
        pool.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial data warehouse personalization (EDBT 2010 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--threshold", type=int, default=3, help="Example 5.3 interest threshold"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the paper scenario").set_defaults(func=cmd_demo)

    rules_cmd = sub.add_parser("rules", help="check PRML rules")
    rules_cmd.add_argument("file", nargs="?", help="rule file (default: stdin)")
    rules_cmd.add_argument("--paper", action="store_true", help="use the paper rules")
    rules_cmd.add_argument(
        "--print", action="store_true", help="print the canonical form"
    )
    rules_cmd.set_defaults(func=cmd_rules)

    ddl_cmd = sub.add_parser("ddl", help="emit star-schema DDL")
    ddl_cmd.add_argument("--dialect", choices=DIALECTS, default="generic")
    ddl_cmd.set_defaults(func=cmd_ddl)

    map_cmd = sub.add_parser("map", help="write the session SVG map")
    map_cmd.add_argument("-o", "--output", default="session.svg")
    map_cmd.set_defaults(func=cmd_map)

    query_cmd = sub.add_parser("query", help="run a GeoMDQL query")
    query_cmd.add_argument("q", help="the query text")
    query_cmd.set_defaults(func=cmd_query)

    serve_cmd = sub.add_parser("serve", help="start the web portal")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080)
    serve_cmd.add_argument(
        "--datamart",
        default="sales",
        help="name of the default datamart tenant (an '-alt' twin on the "
        "next seed is registered alongside it)",
    )
    serve_cmd.add_argument(
        "--session-ttl",
        type=float,
        default=1800.0,
        help="idle session time-to-live in seconds",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-fork worker processes (>1 requires --backend sqlite)",
    )
    serve_cmd.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default=None,
        help="state backend (default: REPRO_BACKEND, or in-memory)",
    )
    serve_cmd.add_argument(
        "--state",
        default=None,
        help="sqlite state file path (default: REPRO_STATE, or a temp file)",
    )
    serve_cmd.set_defaults(func=cmd_serve)

    from repro.analysis.cli import add_lint_arguments

    lint_cmd = sub.add_parser(
        "lint", help="run the concurrency/cache-correctness lint suite"
    )
    add_lint_arguments(lint_cmd)
    lint_cmd.set_defaults(func=cmd_lint)

    workload_cmd = sub.add_parser(
        "workload", help="generate / describe / replay synthetic traffic"
    )
    workload_sub = workload_cmd.add_subparsers(dest="action", required=True)

    generate_cmd = workload_sub.add_parser(
        "generate", help="write a deterministic event stream for a tier"
    )
    generate_cmd.add_argument(
        "--tier",
        default="smoke",
        help="scale tier (smoke/small/medium/large)",
    )
    generate_cmd.add_argument(
        "--profile",
        choices=("builtin", "journal"),
        default="builtin",
        help="cohort blueprint: hand-written, or mined from the demo "
        "workload's journal (reverse ETL)",
    )
    generate_cmd.add_argument(
        "--stream-seed",
        type=int,
        default=None,
        help="override the tier's generator seed",
    )
    generate_cmd.add_argument("-o", "--output", default="workload.jsonl")
    generate_cmd.set_defaults(func=cmd_workload)

    describe_cmd = workload_sub.add_parser(
        "describe", help="summarize a stream file"
    )
    describe_cmd.add_argument("stream", help="stream JSONL file")
    describe_cmd.set_defaults(func=cmd_workload)

    replay_cmd = workload_sub.add_parser(
        "replay", help="replay a stream against a fresh matching portal"
    )
    replay_cmd.add_argument("stream", help="stream JSONL file")
    replay_cmd.add_argument(
        "--world-scale",
        choices=("small", "medium", "large"),
        default="small",
        help="world size to build (the stream header's fact multiplier "
        "is applied on top)",
    )
    replay_cmd.add_argument(
        "--mode",
        choices=("serial", "closed", "open"),
        default="closed",
    )
    replay_cmd.add_argument(
        "--actors",
        type=int,
        default=4,
        help="concurrent actors (closed) / sender threads (open)",
    )
    replay_cmd.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="open-loop arrival rate, requests per second",
    )
    replay_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help=">1 replays through a pre-fork worker pool over sqlite",
    )
    replay_cmd.set_defaults(func=cmd_workload)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
