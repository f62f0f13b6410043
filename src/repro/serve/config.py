"""Configuration for the placement-as-a-service daemon.

One frozen dataclass carries every knob the daemon honors, so tests can
build throwaway configurations without touching the environment and the
CLI maps flags onto fields one-to-one.  Defaults are production-shaped
(caching on at the shared root, modest queue bounds) but every bound is
small enough to exercise from a laptop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from repro.core.cachedir import cache_root
from repro.core.errors import ConfigError

#: environment variable naming the daemon clients talk to by default.
SERVE_URL_ENV = "REPRO_SERVE_URL"

#: cluster scale-out knobs, overridable from the environment so a
#: deployment can resize without changing its command line.
SHARDS_ENV = "REPRO_SERVE_SHARDS"
QUEUE_LIMIT_ENV = "REPRO_SERVE_QUEUE_LIMIT"
HIGH_WATERMARK_ENV = "REPRO_SERVE_HIGH_WATERMARK"
LOW_WATERMARK_ENV = "REPRO_SERVE_LOW_WATERMARK"
SHARD_INFLIGHT_ENV = "REPRO_SERVE_SHARD_INFLIGHT"

#: default bind address / port for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8077

#: daemon roles (reported on /healthz so load balancers can tell a
#: router from the shards behind it).
ROLE_SINGLE = "single"
ROLE_ROUTER = "router"
ROLE_SHARD = "shard"


def default_serve_url() -> str:
    """Base URL clients use when none is given explicitly."""
    env = os.environ.get(SERVE_URL_ENV, "").strip()
    if env:
        return env.rstrip("/")
    return f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"


def _env_int(name: str, default: Optional[int]):
    """default_factory reading an integer knob from the environment."""
    def factory() -> Optional[int]:
        raw = os.environ.get(name, "").strip()
        if not raw:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"${name} must be an integer, got {raw!r}")
    return factory


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to run.

    Queue semantics: ``max_pending_jobs`` bounds *distinct* in-flight
    simulate jobs (deduplicated joiners ride along for free); beyond it
    the daemon answers 429 with ``Retry-After``.  ``simulate_workers``
    threads drain that queue, each running one
    :class:`~repro.runner.sweep.SweepRunner` batch (which consults the
    shared on-disk cache first).  ``/v1/placement`` never enters this
    queue — it is answered from the closed-form ``GetAllocation`` path,
    batched only from requests already queued (at most
    ``max_batch_size`` per batch; no collection window).
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT

    #: result-cache root; ``None`` resolves via $REPRO_CACHE_DIR with
    #: the shared ``./.repro-cache`` default (repro.core.cachedir).
    cache_dir: Optional[Union[str, Path]] = None
    #: disable the on-disk cache entirely (tests, ephemeral runs).
    use_cache: bool = True
    #: worker processes per simulate job (SweepRunner ``jobs``).
    jobs: int = 1

    #: distinct simulate jobs allowed in flight before 429.
    max_pending_jobs: int = 8
    #: threads draining the simulate queue.
    simulate_workers: int = 2
    #: wall-clock budget per request before the daemon answers 504.
    request_timeout_s: float = 120.0
    #: Retry-After hint attached to 429 responses.
    retry_after_s: float = 1.0

    #: consecutive simulate failures before the circuit breaker opens
    #: (open → fast 503 + Retry-After instead of queueing doomed work).
    breaker_threshold: int = 5
    #: seconds the breaker stays open before admitting half-open probes.
    breaker_reset_s: float = 30.0
    #: concurrent probe jobs admitted while half-open.
    breaker_probes: int = 1
    #: how long graceful shutdown waits for in-flight jobs to drain.
    drain_timeout_s: float = 10.0
    #: per-chunk wall-clock budget for the runner (None → no timeout,
    #: or $REPRO_CHUNK_TIMEOUT).
    chunk_timeout_s: Optional[float] = None
    #: per-spec retry budget for the runner (None → 2, or
    #: $REPRO_MAX_RETRIES).
    max_retries: Optional[int] = None
    #: shared-memory trace shipping for the runner (None → $REPRO_SHM,
    #: else automatic when ``jobs`` > 1).  The daemon's runner owns one
    #: arena for its whole lifetime, so warm workers reuse published
    #: traces across requests.
    use_shm: Optional[bool] = None
    #: pin runner workers to their own core groups (None →
    #: $REPRO_PIN_CORES, default off).
    pin_cores: Optional[bool] = None

    #: placement batch size cap.
    max_batch_size: int = 64
    #: pending placement requests beyond which the daemon degrades to
    #: inline (unbatched) computation instead of queueing further.
    max_placement_queue: int = 256

    #: cached workload profiles kept in memory (LRU).
    profile_cache_size: int = 32

    #: ceiling on request body size (bytes); 413 beyond it.
    max_body_bytes: int = 4 * 1024 * 1024

    #: slowloris guard: every read while receiving a request (request
    #: line, header line, body chunk) must deliver bytes within this
    #: window or the daemon answers 408 and closes the connection.
    header_read_timeout_s: float = 15.0

    # -- cluster scale-out (repro.serve.cluster) -----------------------

    #: worker-daemon shards behind a front router; 0 = classic single
    #: daemon.  ``repro serve --shards N`` / $REPRO_SERVE_SHARDS.
    shards: int = field(default_factory=_env_int(SHARDS_ENV, 0))
    #: this process's role — "single", "router", or "shard" (the
    #: router sets "shard" on the configs it spawns); surfaced on
    #: /healthz for load balancers and the CI smoke jobs.
    role: str = ROLE_SINGLE
    #: which shard this process is (role == "shard" only).
    shard_index: Optional[int] = None
    #: total requests the router may hold queued for shards before
    #: admission control starts evicting/refusing ($REPRO_SERVE_QUEUE_LIMIT).
    admission_capacity: int = field(
        default_factory=_env_int(QUEUE_LIMIT_ENV, 64))
    #: queued depth at which the router starts shedding new cold work
    #: (None → 3/4 of capacity; $REPRO_SERVE_HIGH_WATERMARK).
    admission_high_watermark: Optional[int] = field(
        default_factory=_env_int(HIGH_WATERMARK_ENV, None))
    #: queued depth below which shedding stops again (hysteresis;
    #: None → 1/2 of capacity; $REPRO_SERVE_LOW_WATERMARK).
    admission_low_watermark: Optional[int] = field(
        default_factory=_env_int(LOW_WATERMARK_ENV, None))
    #: concurrent proxied requests per shard ($REPRO_SERVE_SHARD_INFLIGHT).
    proxy_inflight_per_shard: int = field(
        default_factory=_env_int(SHARD_INFLIGHT_ENV, 8))
    #: shard slots reserved for the placement lane, so simulate floods
    #: can never occupy every slot (placement p99 stays bounded).
    placement_reserved_slots: int = 1
    #: router → shard health-check cadence, probe timeout, and the
    #: consecutive-failure count that declares a shard dead.
    health_interval_s: float = 0.25
    health_timeout_s: float = 2.0
    health_failures: int = 3
    #: completed job keys the router remembers for warm/cold lane
    #: classification (LRU).
    warm_keys_size: int = 4096

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"port out of range: {self.port}")
        if self.max_pending_jobs < 1:
            raise ConfigError("max_pending_jobs must be >= 1")
        if self.simulate_workers < 1:
            raise ConfigError("simulate_workers must be >= 1")
        if self.request_timeout_s <= 0:
            raise ConfigError("request_timeout_s must be positive")
        if self.max_batch_size < 1:
            raise ConfigError("max_batch_size must be >= 1")
        if self.profile_cache_size < 1:
            raise ConfigError("profile_cache_size must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_reset_s <= 0:
            raise ConfigError("breaker_reset_s must be positive")
        if self.breaker_probes < 1:
            raise ConfigError("breaker_probes must be >= 1")
        if self.drain_timeout_s < 0:
            raise ConfigError("drain_timeout_s must be >= 0")
        if (self.chunk_timeout_s is not None
                and self.chunk_timeout_s <= 0):
            raise ConfigError("chunk_timeout_s must be positive")
        if self.header_read_timeout_s <= 0:
            raise ConfigError("header_read_timeout_s must be positive")
        if self.shards < 0:
            raise ConfigError("shards must be >= 0")
        if self.role not in (ROLE_SINGLE, ROLE_ROUTER, ROLE_SHARD):
            raise ConfigError(f"unknown role {self.role!r}")
        if self.admission_capacity < 1:
            raise ConfigError("admission_capacity must be >= 1")
        if self.proxy_inflight_per_shard < 1:
            raise ConfigError("proxy_inflight_per_shard must be >= 1")
        if not (0 <= self.placement_reserved_slots
                < self.proxy_inflight_per_shard):
            raise ConfigError(
                "placement_reserved_slots must be in "
                "[0, proxy_inflight_per_shard)")
        high = self.resolved_high_watermark()
        low = self.resolved_low_watermark()
        if not (0 < low <= high <= self.admission_capacity):
            raise ConfigError(
                "admission watermarks must satisfy "
                f"0 < low ({low}) <= high ({high}) <= capacity "
                f"({self.admission_capacity})")
        if self.health_interval_s <= 0 or self.health_timeout_s <= 0:
            raise ConfigError("health interval/timeout must be positive")
        if self.health_failures < 1:
            raise ConfigError("health_failures must be >= 1")
        if self.warm_keys_size < 1:
            raise ConfigError("warm_keys_size must be >= 1")

    def resolved_high_watermark(self) -> int:
        """High watermark, defaulting to 3/4 of the hard capacity."""
        if self.admission_high_watermark is not None:
            return self.admission_high_watermark
        return max(1, (3 * self.admission_capacity) // 4)

    def resolved_low_watermark(self) -> int:
        """Low watermark, defaulting to 1/2 of the hard capacity."""
        if self.admission_low_watermark is not None:
            return self.admission_low_watermark
        return max(1, self.admission_capacity // 2)

    def shard_config(self, index: int, port: int) -> "ServeConfig":
        """Derive the config one spawned worker shard runs with.

        Shards inherit every daemon knob (cache, runner, breaker,
        drain) but bind their own loopback port, report the ``shard``
        role, and never recurse into spawning shards themselves.
        """
        return replace(
            self,
            host="127.0.0.1",
            port=port,
            shards=0,
            role=ROLE_SHARD,
            shard_index=index,
        )

    def resolved_cache_dir(self) -> Optional[Path]:
        """The cache root this daemon will read and write, or ``None``."""
        if not self.use_cache:
            return None
        return cache_root(self.cache_dir)
