"""Scale-out serving: a front router over N worker-daemon shards.

The single ``repro serve`` daemon is one asyncio process — one GIL
between the service and "millions of users".  This module is the
scale-out tier: ``repro serve --shards N`` boots

* **N worker shards** — each a *complete, unmodified* daemon
  (:class:`~repro.serve.http.ServeApp` in its own spawned process,
  with its own breaker, drain, runner, caches, and tracing), bound to
  a loopback port; and
* **one router** (this process) — the only address clients see.  It
  speaks the same wire protocol (``ServeClient`` needs no changes),
  consistent-hash-routes every request on its *job key*, applies
  :mod:`~repro.serve.admission` in front of the shards, health-checks
  them, and respawns the dead.

Job keys preserve the single-daemon's coalescing across the scale-out:
``/v1/simulate`` routes on the canonical spec digest, so identical
concurrent simulations still land on one shard and collapse into one
runner job via its single-flight dedup; ``/v1/profile`` routes on the
workload name so the per-shard profile LRU keeps its hit rate;
``/v1/placement`` routes on the request's workload (if the client
names one) or topology, keeping the firmware-table cache warm.

Failure semantics: a shard that misses ``health_failures`` consecutive
health checks (or whose process exits) is removed from the ring — its
queued admissions fail with retryable 503s, its in-flight proxied
requests surface as retryable 503s when their sockets die, and every
*other* key keeps its shard (consistent hashing moves only the dead
shard's keys).  The router then respawns the shard on a fresh port and
splices it back into the ring under its stable name, so its keys
return home.  ``X-Trace-Id`` propagates router → shard, so one traced
request still yields one trace tree.

The router itself does no simulation work — its event loop only
parses, hashes, queues, and proxies — which is what keeps the
admission decisions cheap enough to make on every request (the paper's
bar for placement itself).
"""

from __future__ import annotations

import asyncio
import atexit
import multiprocessing
import socket
import sys
import time
from collections import OrderedDict
from typing import Optional

from repro.core.errors import ServeError
from repro.obs import trace as obs_trace
from repro.obs.log import log_event
from repro.serve.admission import (
    LANE_WARM,
    LANES,
    AdmissionController,
    ShardUnavailableError,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.config import ROLE_ROUTER, ServeConfig
from repro.serve.http import (
    METRICS_CONTENT_TYPE,
    BackgroundApp,
    Endpoint,
    FrontEnd,
    _HttpRequest,
    _HttpResponse,
    run as run_single,
)
from repro.serve.ring import HashRing

#: headers the router forwards verbatim to the shard.  The deadline
#: header is NOT forwarded raw — the router always sends the budget
#: *remaining* after queueing, so time spent in an admission lane
#: counts against the request like time anywhere else.
_FORWARD_HEADERS = ("content-type",)

#: headers the router copies back from the shard's response.
_RETURN_HEADERS = ("retry-after",)

#: the liveness probe the router sends a shard.
_HEALTH_PROBE = (b"GET /healthz HTTP/1.1\r\nHost: shard\r\n"
                 b"Connection: close\r\n\r\n")

#: process handles spawned by any router in this process; killed at
#: interpreter exit so a crashed router can never leak shard daemons.
_LIVE_PROCS: "set[multiprocessing.process.BaseProcess]" = set()


def _reap_stray_shards() -> None:  # pragma: no cover - exit path
    for proc in list(_LIVE_PROCS):
        if proc.is_alive():
            proc.terminate()


atexit.register(_reap_stray_shards)


def _shard_main(config: ServeConfig) -> None:  # pragma: no cover
    """Spawned-process entry: run one complete daemon as a shard."""
    run_single(config, ready_message=False)


def _free_port() -> int:
    """Ask the OS for a currently-free loopback port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ShardHandle:
    """One worker shard: stable name, current process, liveness."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"shard-{index}"
        self.port: int = 0
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.generation = 0
        self.up = False
        self.failures = 0
        self.respawning = False

    def describe(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "port": self.port,
            "pid": self.proc.pid if self.proc is not None else None,
            "up": self.up,
            "generation": self.generation,
        }


async def _raw_http(host: str, port: int, data: bytes,
                    timeout: Optional[float]
                    ) -> tuple[int, dict, bytes]:
    """One request/response exchange against a Connection: close peer.

    Returns ``(status, lowercase headers, body)``.
    """

    async def exchange() -> tuple[int, dict, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(data)
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
        head, sep, body = raw.partition(b"\r\n\r\n")
        if not sep:
            raise ConnectionError("truncated response from peer")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line {lines[0]!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None and length.isdigit():
            want = int(length)
            if len(body) < want:
                raise ConnectionError("truncated response body")
            body = body[:want]
        return status, headers, body

    return await asyncio.wait_for(exchange(), timeout=timeout)


class RouterApp(FrontEnd):
    """The front router: admission + consistent-hash proxy tier."""

    span_name = "router.request"
    span_cat = "router"
    startup_timeout_s = 120.0
    kind = "cluster"

    def __init__(self, config: ServeConfig) -> None:
        if config.shards < 1:
            raise ServeError("RouterApp needs shards >= 1")
        super().__init__(config)
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.metrics = MetricsRegistry()
        self.shards = [ShardHandle(i) for i in range(config.shards)]
        self.ring = HashRing()
        self.admission = AdmissionController(
            [],
            slots_per_shard=config.proxy_inflight_per_shard,
            capacity=config.admission_capacity,
            high_watermark=config.resolved_high_watermark(),
            low_watermark=config.resolved_low_watermark(),
            placement_reserved=config.placement_reserved_slots,
        )
        self.admission.on_shed = self._on_shed
        #: job keys whose simulate completed (→ warm lane next time).
        self._warm: OrderedDict[str, None] = OrderedDict()
        self._health_task: Optional[asyncio.Task] = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._ctx = multiprocessing.get_context("spawn")

        m = self.metrics
        self.m_requests = m.counter(
            "repro_router_requests_total",
            "Router HTTP requests by endpoint and status code.")
        self.m_latency = m.histogram(
            "repro_router_request_seconds",
            "Router end-to-end latency by admission lane.")
        self.m_routed = m.counter(
            "repro_router_routed_total",
            "Requests dispatched to a shard, by shard and lane.")
        self.m_shed = m.counter(
            "repro_router_shed_total",
            "Requests refused at the door by admission control, "
            "by lane.")
        self.m_evicted = m.counter(
            "repro_router_evicted_total",
            "Queued requests evicted by higher-priority work, by lane.")
        self.m_lane_depth = m.gauge(
            "repro_router_lane_depth",
            "Queued requests awaiting a shard slot, by lane.")
        self.m_inflight = m.gauge(
            "repro_router_inflight",
            "Requests currently proxied to shards.")
        self.m_shard_up = m.gauge(
            "repro_router_shard_up",
            "1 while the shard answers health checks, else 0.")
        self.m_respawns = m.counter(
            "repro_router_shard_respawns_total",
            "Dead shards respawned by the router, by shard.")
        self.m_proxy_failures = m.counter(
            "repro_router_proxy_failures_total",
            "Proxied requests that failed mid-flight, by shard "
            "(each one answered with a retryable 503).")
        self.m_no_shards = m.counter(
            "repro_router_no_live_shards_total",
            "Requests refused because the ring was empty.")
        self.m_warm_keys = m.gauge(
            "repro_router_warm_keys",
            "Completed job keys remembered for lane classification.")

    # ------------------------------------------------------------------
    # metric hooks
    # ------------------------------------------------------------------

    def _on_shed(self, lane_name: str, evicted: bool) -> None:
        if evicted:
            self.m_evicted.inc(lane=lane_name)
        else:
            self.m_shed.inc(lane=lane_name)

    def _refresh_gauges(self) -> None:
        for lane_name, depth in self.admission.lane_depths().items():
            self.m_lane_depth.set(depth, lane=lane_name)
        self.m_inflight.set(self.admission.inflight_total())
        self.m_warm_keys.set(len(self._warm))
        for shard in self.shards:
            self.m_shard_up.set(1 if shard.up else 0, shard=shard.name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, shard: ShardHandle) -> None:
        """Start (or restart) the worker process for ``shard``."""
        shard.port = _free_port()
        shard.generation += 1
        config = self.config.shard_config(shard.index, shard.port)
        proc = self._ctx.Process(
            target=_shard_main, args=(config,),
            name=f"repro-{shard.name}-gen{shard.generation}",
        )
        proc.start()
        shard.proc = proc
        _LIVE_PROCS.add(proc)

    async def _probe(self, shard: ShardHandle) -> bool:
        """True when ``shard`` answers ``/healthz`` with a 200."""
        try:
            status, _, _ = await _raw_http(
                "127.0.0.1", shard.port, _HEALTH_PROBE,
                timeout=self.config.health_timeout_s)
        except (OSError, asyncio.TimeoutError, ConnectionError):
            return False
        return status == 200

    async def _wait_shard_ready(self, shard: ShardHandle,
                                timeout_s: float = 60.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and not self._stopping:
            if shard.proc is None or not shard.proc.is_alive():
                return False
            if await self._probe(shard):
                return True
            await asyncio.sleep(0.05)
        return False

    async def start(self) -> None:
        for shard in self.shards:
            self._spawn(shard)
        ready = await asyncio.gather(
            *(self._wait_shard_ready(shard) for shard in self.shards))
        if not all(ready):
            await self._teardown_shards()
            bad = [s.name for s, ok in zip(self.shards, ready) if not ok]
            raise ServeError(f"shards failed to start: {bad}")
        for shard in self.shards:
            shard.up = True
            self.ring.add(shard.name)
            self.admission.add_shard(shard.name)
        await self._listen()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="repro-router-health")

    async def stop(self) -> None:
        self._stopping = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for task in list(self._respawn_tasks):
            task.cancel()
        await self._close_listener()
        for shard in self.shards:
            self.admission.fail_shard(shard.name, "router stopping")
        await self._teardown_shards()

    async def _teardown_shards(self) -> None:
        """SIGTERM every shard (graceful drain), then join, then kill."""
        procs = [s.proc for s in self.shards if s.proc is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + self.config.drain_timeout_s + 5.0
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            await asyncio.get_running_loop().run_in_executor(
                None, proc.join, remaining)
            if proc.is_alive():  # pragma: no cover - stuck shard
                proc.kill()
                await asyncio.get_running_loop().run_in_executor(
                    None, proc.join, 5.0)
            _LIVE_PROCS.discard(proc)

    # ------------------------------------------------------------------
    # health checking / respawn
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.health_interval_s)
            await asyncio.gather(
                *(self._check_shard(s) for s in self.shards
                  if not s.respawning))

    async def _check_shard(self, shard: ShardHandle) -> None:
        alive = shard.proc is not None and shard.proc.is_alive()
        healthy = alive and await self._probe(shard)
        if healthy:
            shard.failures = 0
            if not shard.up:  # pragma: no cover - transient flap
                shard.up = True
                self.ring.add(shard.name)
                self.admission.add_shard(shard.name)
            return
        shard.failures += 1
        if not alive or shard.failures >= self.config.health_failures:
            self._mark_down(
                shard,
                "process exited" if not alive
                else f"{shard.failures} failed health checks")

    def _mark_down(self, shard: ShardHandle, reason: str) -> None:
        if shard.respawning:
            return
        shard.up = False
        shard.respawning = True
        self.ring.remove(shard.name)
        failed = self.admission.fail_shard(shard.name, reason)
        self.m_shard_up.set(0, shard=shard.name)
        log_event("router.shard_down", shard=shard.name,
                  reason=reason, failed_waiters=failed,
                  message=f"{shard.name} down ({reason}); "
                          f"failed {failed} queued request(s), "
                          "respawning", stream=sys.stderr)
        task = asyncio.get_running_loop().create_task(
            self._respawn(shard), name=f"respawn-{shard.name}")
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    async def _respawn(self, shard: ShardHandle) -> None:
        try:
            while not self._stopping:
                old = shard.proc
                if old is not None:
                    if old.is_alive():
                        old.kill()
                    await asyncio.get_running_loop().run_in_executor(
                        None, old.join, 10.0)
                    _LIVE_PROCS.discard(old)
                self._spawn(shard)
                if await self._wait_shard_ready(shard):
                    shard.up = True
                    shard.failures = 0
                    self.ring.add(shard.name)
                    self.admission.add_shard(shard.name)
                    self.m_respawns.inc(shard=shard.name)
                    self.m_shard_up.set(1, shard=shard.name)
                    log_event("router.shard_up", shard=shard.name,
                              port=shard.port,
                              generation=shard.generation,
                              message=f"{shard.name} respawned on port "
                                      f"{shard.port} (generation "
                                      f"{shard.generation})",
                              stream=sys.stderr)
                    return
                await asyncio.sleep(0.5)  # spawn failed; try again
        finally:
            shard.respawning = False

    # ------------------------------------------------------------------
    # front-end hooks
    # ------------------------------------------------------------------

    def _announce_listening(self) -> None:
        ports = [s.port for s in self.shards]
        log_event(
            "router.listening",
            message=(f"repro.serve router on {self.base_url} "
                     f"({len(self.shards)} shards on ports {ports})"),
            url=self.base_url, shards=len(self.shards), stream=sys.stdout)

    def _announce_draining(self) -> None:
        log_event("router.draining", message="router draining...",
                  stream=sys.stdout)

    def _announce_stopped(self) -> None:
        log_event("router.stopped",
                  message="router and shards stopped cleanly",
                  stream=sys.stdout)

    def _observe(self, endpoint: str, request: _HttpRequest,
                 response: _HttpResponse, elapsed_s: float) -> None:
        self.m_requests.inc(endpoint=endpoint, status=str(response.status))
        self.m_latency.observe(elapsed_s, lane=request.lane)

    async def _get_healthz(self, request: _HttpRequest) -> _HttpResponse:
        return _HttpResponse.json(self.health())

    async def _get_metrics(self, request: _HttpRequest) -> _HttpResponse:
        self._refresh_gauges()
        return _HttpResponse(200, self.metrics.render().encode("utf-8"),
                             content_type=METRICS_CONTENT_TYPE)

    # ------------------------------------------------------------------
    # routing + admission + proxy
    # ------------------------------------------------------------------

    async def _call(self, route: Endpoint,
                    request: _HttpRequest) -> _HttpResponse:
        """Answer local rows here; admit and proxy the rest."""
        if route.lane is None:
            return await super()._call(route, request)
        # A payload the shared request validator rejects raises its
        # 400 here, so invalid work never reaches a shard.
        key = route.job_key(request)
        lane = route.lane
        if route.endpoint == "simulate" and key in self._warm:
            lane = LANE_WARM  # completed before: a shard cache hit
        request.lane = LANES[lane]
        return await self._proxy_endpoint(route.endpoint, lane, key,
                                          request)

    def _mark_warm(self, key: str) -> None:
        self._warm[key] = None
        self._warm.move_to_end(key)
        while len(self._warm) > self.config.warm_keys_size:
            self._warm.popitem(last=False)

    async def _proxy_endpoint(self, endpoint: str, lane: int, key: str,
                              request: _HttpRequest) -> _HttpResponse:
        shard_name = self.ring.node_for(key)
        if shard_name is None:
            self.m_no_shards.inc()
            raise ShardUnavailableError(
                "no live shards", retry_after=self.config.retry_after_s)
        await self.admission.admit(lane, shard_name)
        # From here the slot is held: release exactly once, even if
        # the proxy leg fails or the caller's deadline cancels us.
        try:
            self.m_routed.inc(shard=shard_name, lane=LANES[lane])
            response = await self._proxy(shard_name, request)
        finally:
            self.admission.release(shard_name, lane)
        if endpoint == "simulate" and response.status == 200:
            self._mark_warm(key)
        return response

    def _shard_by_name(self, name: str) -> Optional[ShardHandle]:
        for shard in self.shards:
            if shard.name == name:
                return shard
        return None

    async def _proxy(self, shard_name: str,
                     request: _HttpRequest) -> _HttpResponse:
        shard = self._shard_by_name(shard_name)
        if shard is None or not shard.up:
            raise ShardUnavailableError(
                f"shard {shard_name} is not available; retry",
                retry_after=self.config.retry_after_s)
        remaining = None
        if request.deadline is not None:
            remaining = request.deadline - time.monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError()
        body = request.body_bytes()
        lines = [f"{request.method} {request.target} HTTP/1.1",
                 f"Host: 127.0.0.1:{shard.port}",
                 "Connection: close",
                 f"Content-Length: {len(body)}"]
        for header in _FORWARD_HEADERS:
            value = request.headers.get(header)
            if value is not None:
                lines.append(f"{header}: {value}")
        if remaining is not None:
            # Shards enforce the remaining budget themselves, so an
            # abandoned proxied request stops consuming shard workers.
            lines.append(f"x-request-timeout: {remaining:.3f}")
        trace_id = (request.headers.get(
            obs_trace.TRACE_ID_HEADER.lower())
            or obs_trace.current_trace_id())
        if trace_id is not None:
            lines.append(f"{obs_trace.TRACE_ID_HEADER}: {trace_id}")
        data = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        data += body
        try:
            status, headers, body = await _raw_http(
                "127.0.0.1", shard.port, data, timeout=remaining)
        except asyncio.TimeoutError:
            raise
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            # The shard died (or was killed) with our request in
            # flight.  The work is retryable by contract — shards are
            # deterministic and results are cached — so answer a
            # retryable 503 and let the health loop confirm the death.
            self.m_proxy_failures.inc(shard=shard_name)
            shard.failures += 1
            raise ShardUnavailableError(
                f"shard {shard_name} failed mid-request; retry",
                retry_after=self.config.retry_after_s)
        out = _HttpResponse(
            status, body,
            content_type=headers.get("content-type",
                                     "application/json"))
        for header in _RETURN_HEADERS:
            if header in headers:
                out.headers["Retry-After"] = headers[header]
        if obs_trace.TRACE_ID_HEADER.lower() in headers:
            out.headers[obs_trace.TRACE_ID_HEADER] = headers[
                obs_trace.TRACE_ID_HEADER.lower()]
        return out

    # ------------------------------------------------------------------
    # /healthz
    # ------------------------------------------------------------------

    def health(self) -> dict:
        live = sum(1 for s in self.shards if s.up)
        return {
            "status": "ok" if live == len(self.shards) else (
                "degraded" if live else "down"),
            "role": ROLE_ROUTER,
            "uptime_s": round(
                time.monotonic() - self._started_monotonic, 3),
            "shard_count": len(self.shards),
            "live_shards": live,
            "shards": [s.describe() for s in self.shards],
            "ring_nodes": sorted(self.ring.nodes),
            "queued": self.admission.queued_total,
            "shedding": self.admission.shedding,
            "admission": {
                "capacity": self.admission.capacity,
                "high_watermark": self.admission.high_watermark,
                "low_watermark": self.admission.low_watermark,
                "slots_per_shard": self.admission.slots_per_shard,
            },
        }


def run_cluster(config: ServeConfig,
                ready_message: bool = True) -> None:
    """Blocking entry point for ``repro serve --shards N``.

    SIGTERM/SIGINT drain the router (in-flight proxied requests get
    ``drain_timeout_s`` to finish), then SIGTERM the shards, which run
    their own graceful drains before exiting.
    """
    RouterApp(config).run_until_signalled(ready_message)


class BackgroundCluster(BackgroundApp):
    """A router + shards on a dedicated event-loop thread (tests).

    Mirrors :class:`~repro.serve.http.BackgroundServer`::

        with BackgroundCluster(ServeConfig(port=0, shards=2)) as c:
            client = ServeClient(c.base_url)
    """

    app_class = RouterApp
    thread_name = "repro-router"

    def shard_url(self, index: int) -> str:
        return f"http://127.0.0.1:{self.app.shards[index].port}"
