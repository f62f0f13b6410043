"""The ``serve_mixed`` workload: a closed loop against ``repro serve``.

The daemon runs in its own process (``--jobs 1``, fresh cache dir).
This process is the one client: two threads, each with its own HTTP
connection, each sending its next request only when the previous reply
has arrived, as ``repro client`` callers and the router do.  The daemon
answers ``Connection: close``, so each connection object reconnects
per request.  One thread loops ``/v1/placement`` with the run's fixed
32-allocation body; the other loops ``/v1/simulate`` over
:func:`hostbench.specs.simulate_stream` (90% a spec that already
completed, 10% a fresh-seed spec).
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostbench import specs as specgen
from hostbench.sweeps import child_env

HEALTH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Sample:
    kind: str            # placement | warm | cold
    status: int          # HTTP status, 0 for a transport error
    latency_s: float
    body: dict = field(default_factory=dict)
    request: Optional[dict] = None


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process; ``setup_s`` is spawn to healthy."""

    def __init__(self, root: Path, work: Path) -> None:
        self.port = free_port()
        self.cache_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=work))
        self.log = open(self.cache_dir / "serve.log", "wb")
        spawn_t = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1",
             "--port", str(self.port), "--cache-dir",
             str(self.cache_dir / "cache")],
            cwd=root, env=child_env(root), stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        try:
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawn_t

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode}: "
                    f"{self.log_tail()}")
            try:
                if self.call("GET", "/healthz", timeout=2.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never became healthy")

    def connection(self, timeout: float = REQUEST_TIMEOUT_S
                   ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)

    def call(self, method: str, path: str, body: Optional[dict] = None,
             timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes]:
        """One request on a connection of its own."""
        conn = self.connection(timeout)
        try:
            return request(conn, method, path, body)
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        status, raw = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(raw.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def log_tail(self) -> str:
        self.log.flush()
        return (self.cache_dir / "serve.log").read_bytes()[-2000:].decode(
            "utf-8", "replace")

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill; always reaps."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[dict] = None) -> tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data else {}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition to ``{'name{labels}': value}``."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def _loop(daemon: Daemon, path: str, bodies, stop_t: float,
          samples: list, on_reply=None) -> None:
    conn = daemon.connection()
    try:
        for kind, body in bodies:
            if time.monotonic() >= stop_t:
                return
            start = time.perf_counter()
            try:
                status, raw = request(conn, "POST", path, body)
                decoded = json.loads(raw) if status == 200 else {}
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                status, decoded = 0, {}
            sample = Sample(kind, status, time.perf_counter() - start,
                            decoded, body if kind != "placement" else None)
            samples.append(sample)
            if on_reply is not None:
                on_reply(sample)
    finally:
        conn.close()


def _repeat(kind: str, body: dict):
    while True:
        yield kind, body


@dataclass
class Traffic:
    samples: list
    duration_s: float
    #: daemon peak RSS once RSS_AFTER_COLD cold simulates have been
    #: answered (None when fewer were): a fixed amount of work, because
    #: the daemon's trace memo grows with every distinct spec it runs.
    rss_mb: Optional[float]


#: cold simulates answered before the daemon's peak RSS is read: five
#: passes over the suite, so every run has run the same (workload,
#: policy) pairs by then (see ``specs.simulate_stream``).
RSS_AFTER_COLD = 5 * len(specgen.SUITE)


def drive(daemon: Daemon, seed: int, seconds: float) -> Traffic:
    """Closed-loop traffic on two connections for ``seconds``."""
    warm = specgen.warm_simulate(seed)
    status, _ = daemon.call("POST", "/v1/simulate", warm)
    if status != 200:
        raise RuntimeError(f"warming simulate answered {status}")
    placement_samples: list = []
    simulate_samples: list = []
    cold_answered = [0]
    rss: list = []

    def on_simulate(sample: Sample) -> None:
        if sample.kind == "cold" and sample.status == 200:
            cold_answered[0] += 1
            if cold_answered[0] == RSS_AFTER_COLD:
                rss.append(daemon.peak_rss_mb())

    start = time.monotonic()
    stop_t = start + seconds
    threads = [
        threading.Thread(target=_loop, args=(
            daemon, "/v1/placement",
            _repeat("placement", specgen.placement_request(seed)),
            stop_t, placement_samples)),
        threading.Thread(target=_loop, args=(
            daemon, "/v1/simulate", specgen.simulate_stream(seed),
            stop_t, simulate_samples, on_simulate)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a client connection did not finish")
    return Traffic(placement_samples + simulate_samples,
                   time.monotonic() - start, rss[0] if rss else None)


def expected_hints(body: dict) -> list:
    """The in-process ``get_allocation`` answer for a placement body."""
    from repro.memory.acpi import enumerate_tables
    from repro.memory.topology import topology_by_name
    from repro.runtime.hints import get_allocation

    tables = enumerate_tables(topology_by_name("baseline"))
    return [hint.value for hint in get_allocation(
        body["sizes"], body["hotness"], tables,
        bo_capacity_bytes=body["bo_capacity_bytes"])]


def expected_result(body: dict) -> dict:
    """The in-process answer to a ``/v1/simulate`` body: its canonical
    spec and every field of the reply's ``result``."""
    from repro.runner import execute_spec, make_spec

    spec = make_spec(body["workload"], body["policy"],
                     trace_accesses=body["trace_accesses"],
                     seed=body["seed"], engine=body["engine"])
    result = execute_spec(spec)
    return {
        "spec": spec.canonical(),
        "result": {
            "workload": result.workload,
            "dataset": result.dataset,
            "policy": result.policy,
            "topology": result.topology_name,
            "time_ms": result.time_ns / 1e6,
            "achieved_bandwidth_gbps": result.sim.achieved_bandwidth / 1e9,
            "dominant_bound": result.sim.dominant_bound(),
            "zone_page_counts": list(result.zone_page_counts),
            "placement_fractions": list(result.placement_fractions()),
        },
    }


def simulate_matches(sample: Sample, expected: dict) -> bool:
    return (sample.body.get("spec") == expected["spec"]
            and sample.body.get("result") == expected["result"])


def count_wrong(samples: list, placement_body: dict) -> int:
    """Failed, refused or wrong replies; references are computed in this
    process after the daemon has stopped, once per distinct spec."""
    hints = expected_hints(placement_body)
    references: dict[str, dict] = {}
    wrong = 0
    for sample in samples:
        if sample.status != 200:
            wrong += 1
        elif sample.kind == "placement":
            wrong += sample.body.get("hints") != hints
        else:
            key = json.dumps(sample.request, sort_keys=True)
            if key not in references:
                references[key] = expected_result(sample.request)
            wrong += not simulate_matches(sample, references[key])
    return wrong


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def layer_metrics(before: dict, after: dict, samples: list,
                  placement_p50_s: float) -> dict:
    """The ``serve.*`` per-layer metrics from two ``/metrics`` scrapes
    bracketing the timed traffic."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def server_mean_s(endpoint: str) -> float:
        label = f'{{endpoint="{endpoint}"}}'
        return ratio(
            _delta(before, after, f"repro_serve_request_seconds_sum{label}"),
            _delta(before, after,
                   f"repro_serve_request_seconds_count{label}"))

    def server_total_s(endpoint: str) -> float:
        label = f'{{endpoint="{endpoint}"}}'
        return _delta(before, after,
                      f"repro_serve_request_seconds_sum{label}")

    hits = _delta(before, after, "repro_serve_simulate_cache_hits_total")
    misses = _delta(before, after,
                    "repro_serve_simulate_cache_misses_total")
    placement_server_s = server_mean_s("placement")
    client_s = sum(s.latency_s for s in samples)
    return {
        "serve.placement_server_mean_ms": placement_server_s * 1e3,
        "serve.simulate_server_mean_ms": server_mean_s("simulate") * 1e3,
        "serve.http_overhead_ms": (placement_p50_s
                                   - placement_server_s) * 1e3,
        "serve.placement_batch_size": ratio(
            _delta(before, after,
                   "repro_serve_placement_batched_requests_total"),
            _delta(before, after, "repro_serve_placement_batches_total")),
        "serve.placement_inline_share": ratio(
            _delta(before, after, "repro_serve_placement_inline_total"),
            _delta(before, after,
                   "repro_serve_placement_requests_total")),
        "serve.simulate_cache_hit_ratio": ratio(hits, hits + misses),
        "serve.simulate_dedup_share": ratio(
            _delta(before, after,
                   "repro_serve_simulate_deduplicated_total"),
            _delta(before, after,
                   "repro_serve_simulate_requests_total")),
        "bench.unattributed_s": client_s - server_total_s("placement")
        - server_total_s("simulate"),
    }
