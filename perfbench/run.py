"""The repository benchmark: the personalization portal measured end to
end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 40 --trace 0

Every workload replays the repository's medium-tier synthetic traffic
(see :mod:`inputs`), generated with ``--seed``; :mod:`workloads` says
how it is replayed and checked:

* ``ingest`` — against a fresh in-process portal per replay, so its
  caches fill during the replay, as after a deployment, while a loader
  appends a sale before every 8th request, so cached answers go stale,
  views are patched and as-of reads rebuild the past generation.
* ``pool``   — over HTTP against a two-worker pool sharing one sqlite
  file, without a loader; every second session of a user who logs in
  once is rehydrated by the worker it did not log in on.

With ``--trace 0`` the run reports the end-to-end metrics (median and
95th percentile of the per-request latencies, each request's the least
over the run's episodes, and the median set-up time); with
``--trace 1``
it installs the span recorder of :mod:`spans` and reports per-layer
metrics instead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 2
without a result when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result) -> dict:
    """Every episode replays the same requests in the same order from
    the same state, so the i-th latency of every episode is the same
    request's, and its episodes differ only in how fast the shared host
    ran them.  A request's latency is its least over the episodes, the
    program's own speed with the host's stalls left out; the latency
    figures are over those per-request latencies."""
    best = [min(latencies) for latencies in zip(*result.episodes)]
    cuts = statistics.quantiles(best, n=100, method="inclusive")
    return {
        "p50_ms": _metric(cuts[49] * 1000.0, "ms"),
        "p95_ms": _metric(cuts[94] * 1000.0, "ms"),
        "setup_s": _metric(statistics.median(result.setups_s), "s"),
    }


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(result) -> dict:
    requests = len(result.latencies_s)
    spans = result.spans
    window = result.window

    def per_request(name: str, index: int = 2) -> float:
        entry = spans.get(name)
        return entry[index] / 1e6 / requests if entry else 0.0

    def count(key: str) -> dict:
        return _metric(window.get(key, 0), "count")

    request_total_ms = per_request("request", 1)
    round_trip_ms = sum(result.latencies_s) * 1000.0 / requests
    return {
        "requests": _metric(requests, "count"),
        "request_ms": _metric(request_total_ms, "ms"),
        "http_ms": _metric(
            max(0.0, round_trip_ms - request_total_ms) if request_total_ms else 0.0,
            "ms",
        ),
        "handler_ms": _metric(per_request("request"), "ms"),
        "session_ms": _metric(per_request("session"), "ms"),
        "rules_ms": _metric(per_request("rules"), "ms"),
        "parse_ms": _metric(per_request("parse"), "ms"),
        "view_ms": _metric(per_request("view"), "ms"),
        "scan_ms": _metric(per_request("scan"), "ms"),
        "history_ms": _metric(per_request("history"), "ms"),
        "reco_ms": _metric(per_request("reco"), "ms"),
        "backend_ms": _metric(per_request("backend"), "ms"),
        "backend_ops": _metric(spans.get("backend", [0])[0] / requests, "count"),
        "query_cache_hit_rate": _metric(
            _rate(window.get("qc_hits", 0), window.get("qc_misses", 0)), "ratio"
        ),
        "view_store_hit_rate": _metric(
            _rate(window.get("vs_hits", 0), window.get("vs_misses", 0)), "ratio"
        ),
        "reco_memo_hit_rate": _metric(
            _rate(window.get("memo_hits", 0), window.get("memo_misses", 0)), "ratio"
        ),
        "view_builds": count("builds"),
        "view_patches": count("patches"),
        "rehydrations": count("rehydrations"),
        "rows_scanned_per_query": _metric(
            statistics.fmean(result.rows_scanned) if result.rows_scanned else 0.0,
            "count",
        ),
        "rows_ingested": _metric(result.rows_ingested, "count"),
        "ingest_batch_ms": _metric(
            statistics.fmean(result.ingest_batches_s) * 1000.0
            if result.ingest_batches_s
            else 0.0,
            "ms",
        ),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    # The program's environment switches (state backend, lock sanitizer)
    # stay at their defaults whatever the caller's environment selects.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # The run keeps to one CPU, and the pool's workers inherit it.  The
    # one closed-loop client and the worker it waits on take turns, so a
    # second CPU would add only cross-CPU wake-ups to every round trip,
    # and the shared host's scheduling noise with them.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import spans
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = run(args, tracer)
    if not result.latencies_s:
        print("the run measured no requests", file=sys.stderr)
        return 1
    for problem in result.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result)
    print(
        json.dumps(
            {
                "correct": not result.incorrect,
                "attempted": len(result.latencies_s),
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
