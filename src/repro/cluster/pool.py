"""Pre-fork multi-process serving: ``repro serve --workers N``.

One process was the portal's hard ceiling; the worker pool removes it:

* The **parent** binds the listening socket(s), builds nothing else,
  and forks N workers.  Each worker inherits the *shared* socket — the
  kernel balances accepts across them — plus one private **shard**
  socket whose port the parent records, so affinity-aware clients can
  address a specific worker.
* Each **worker** constructs its own portal through the caller's
  ``app_factory(worker_id)`` (engines and stars are per-process heap
  objects) and serves it with the existing threaded adapter.  The
  state a worker change must carry — session records and journal
  events — lives in the :class:`~repro.cluster.backend.StateBackend` the
  factory wires in with fixed namespaces, which is what makes a token
  issued by one worker resolve in another.  Derived results (query
  answers, materialized views) stay in each worker's heap: no worker
  reads another's.
* The :class:`ClusterClient` routes each tenant to one worker through
  the :class:`~repro.cluster.sharding.ConsistentHashRing` (tenant →
  shard port), so a tenant's live sessions and views stay warm in a
  single worker; requests for unknown tenants fall back
  to the shared socket.

Fork start method only (the factory closure crosses the fork, never a
pickle); the pool is a POSIX-only serving mode, like ``SO_REUSEPORT``
deployments generally.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import socket
import threading
import time

from repro.cluster.sharding import ConsistentHashRing

__all__ = ["WorkerPool", "ClusterClient"]


def _worker_main(worker_id, app_factory, shared_sock, shard_socks):
    """Entry point of one forked worker (runs until terminated)."""
    from repro.web.server import make_server

    os.environ["REPRO_WORKER_ID"] = str(worker_id)
    # Drop the siblings' shard sockets this fork inherited: holding them
    # open would keep a dead sibling's port alive without anyone
    # accepting on it.
    for other_id, sock in enumerate(shard_socks):
        if other_id != worker_id:
            sock.close()
    app = app_factory(worker_id)
    shard_server = make_server(app, sock=shard_socks[worker_id])
    threading.Thread(
        target=shard_server.serve_forever, name="shard-server", daemon=True
    ).start()
    shared_server = make_server(app, sock=shared_sock)
    try:
        shared_server.serve_forever()
    finally:  # pragma: no cover - terminated by the parent
        shared_server.server_close()
        shard_server.server_close()


class WorkerPool:
    """N forked portal workers behind one shared listening socket."""

    def __init__(
        self,
        app_factory,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._context = multiprocessing.get_context("fork")
        # Bind everything in the parent, pre-fork: the children inherit
        # bound+listening sockets, so there are no port races and port 0
        # (pick a free port) works for every socket.
        self._shared_sock = socket.create_server(
            (host, port), backlog=256, reuse_port=False
        )
        self._shard_socks = [
            socket.create_server((host, 0), backlog=256) for _ in range(workers)
        ]
        self.address = self._shared_sock.getsockname()[:2]
        self.shard_addresses = [
            sock.getsockname()[:2] for sock in self._shard_socks
        ]
        self._processes = [
            self._context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    app_factory,
                    self._shared_sock,
                    self._shard_socks,
                ),
                daemon=True,
                name=f"portal-worker-{worker_id}",
            )
            for worker_id in range(workers)
        ]
        for process in self._processes:
            process.start()
        # The children own the sockets now; the parent's copies would
        # keep the ports half-open after a stop().
        self._shared_sock.close()
        for sock in self._shard_socks:
            sock.close()

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker answers its health route."""
        deadline = time.monotonic() + timeout
        for host, port in self.shard_addresses:
            while True:
                try:
                    conn = http.client.HTTPConnection(host, port, timeout=2.0)
                    conn.request("GET", "/api/v1/health")
                    response = conn.getresponse()
                    # Read the body before closing: a worker still
                    # writing it to a closed socket fails with
                    # BrokenPipeError.
                    response.read()
                    status = response.status
                    conn.close()
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"worker on port {port} not ready after {timeout}s"
                    )
                time.sleep(0.05)

    def stop(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10.0)

    @property
    def alive(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())


class ClusterClient:
    """Affinity-aware HTTP client for a :class:`WorkerPool`.

    Routes by tenant: ``datamart -> worker`` through the consistent
    ring, ``worker -> shard port`` from the pool's records.  Tokens
    learned from login responses are remembered so every later request
    carrying the token goes to the same worker (HTTP/1.1 keep-alive
    connections are per ``(thread, worker)``, so the steady state is a
    warm connection to a warm worker).  Any worker would answer any
    request correctly — the shared backend guarantees it — affinity
    only decides *which* L1 gets warm.
    """

    def __init__(self, pool: WorkerPool, timeout: float = 30.0) -> None:
        self.pool = pool
        self.timeout = timeout
        self.ring = ConsistentHashRing(range(pool.workers))
        self._local = threading.local()
        self._lock = threading.Lock()
        #: token -> worker id (the worker that served the login).
        # guarded-by: _lock
        self._token_workers: dict[str, int] = {}
        #: Every connection :meth:`_connection` opened, on any thread.
        # guarded-by: _lock
        self._connections: list[http.client.HTTPConnection] = []

    def worker_for_tenant(self, datamart: str) -> int:
        return self.ring.lookup(datamart)

    def _connection(self, address) -> http.client.HTTPConnection:
        cache = getattr(self._local, "connections", None)
        if cache is None:
            cache = self._local.connections = {}
        conn = cache.get(address)
        if conn is None:
            conn = http.client.HTTPConnection(
                address[0], address[1], timeout=self.timeout
            )
            cache[address] = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _address_for(self, datamart: str | None, token: str | None):
        if datamart is not None:
            return self.pool.shard_addresses[self.worker_for_tenant(datamart)]
        if token is not None:
            with self._lock:
                worker = self._token_workers.get(token)
            if worker is not None:
                return self.pool.shard_addresses[worker]
        return self.pool.address  # kernel-balanced fallback

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        token: str | None = None,
        datamart: str | None = None,
    ) -> tuple[int, dict]:
        """One JSON request, routed by tenant/token affinity."""
        address = self._address_for(datamart, token)
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if token is not None:
            headers["X-Session"] = token
        conn = self._connection(address)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # A dropped keep-alive connection gets one fresh retry.
            conn.close()
            conn = self._connection(address)
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        data = json.loads(raw) if raw else {}
        if isinstance(data, dict) and "token" in data and datamart is not None:
            with self._lock:
                self._token_workers[data["token"]] = self.worker_for_tenant(
                    datamart
                )
        return response.status, data

    def shard_health(self) -> list[dict]:
        """One ``/api/v1/health`` snapshot per worker, in worker order.

        The round-robin socket would answer from *some* worker; per-shard
        snapshots are what pool-wide accounting (spills, rehydrations,
        cache counters — see :mod:`repro.workload.metrics`) needs.
        """
        snapshots = []
        for address in self.pool.shard_addresses:
            conn = self._connection(address)
            try:
                conn.request("GET", "/api/v1/health")
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError):
                conn.close()
                conn = self._connection(address)
                conn.request("GET", "/api/v1/health")
                response = conn.getresponse()
                raw = response.read()
            snapshots.append(json.loads(raw) if raw else {})
        return snapshots

    def close(self) -> None:
        """Close every keep-alive connection, whichever thread opened it.

        Valid once the threads that used the client are done: a thread
        still inside :meth:`request` would find its connection closed.
        """
        with self._lock:
            connections, self._connections = self._connections, []
        # A subclass's _connection may cache connections it never
        # recorded; this thread's cache is closed too, as it always was.
        cache = getattr(self._local, "connections", None)
        if cache:
            connections.extend(cache.values())
            cache.clear()
        for conn in connections:
            conn.close()
