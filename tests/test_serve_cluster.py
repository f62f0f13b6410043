"""Integration tests for the sharded cluster (router + worker shards).

Boots a real router with real shard subprocesses via
:class:`BackgroundCluster` and exercises the scale-out contracts:

* role-aware ``/healthz`` on router and shards (satellite: topology
  introspection);
* consistent-hash routing keeps identical simulate specs on one shard,
  so single-flight dedup and the result cache survive sharding
  (exactly one runner execution for N identical requests);
* sharded simulate results are byte-identical to a single daemon's;
* invalid payloads get the same 400 from the router that the daemon
  would produce;
* a SIGKILLed shard is detected, removed from the ring, respawned, and
  traffic keeps flowing with only retryable errors in between;
* admission control sheds cold overload with 429 + drain-rate
  ``Retry-After`` while placement stays served.

Process-spawning tests; each cluster boots in well under a second, and
the module-scoped fixture amortizes it across the read-only tests.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import signal
import time

import pytest

from repro.core.errors import ServeError
from repro.serve import (
    BackgroundCluster,
    BackgroundServer,
    ServeClient,
    ServeConfig,
)
from repro.serve.http import ENDPOINTS

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")


def _wait_until(predicate, timeout_s: float = 30.0,
                interval_s: float = 0.1, message: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cfg = ServeConfig(
        port=0, shards=2,
        cache_dir=str(tmp_path_factory.mktemp("cluster-cache")),
        drain_timeout_s=2.0)
    with BackgroundCluster(cfg) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def client(cluster):
    return ServeClient(cluster.base_url)


# ---------------------------------------------------------------------------
# topology introspection
# ---------------------------------------------------------------------------


def test_router_health_reports_topology(cluster, client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["role"] == "router"
    assert health["shard_count"] == 2
    assert health["live_shards"] == 2
    assert sorted(health["ring_nodes"]) == ["shard-0", "shard-1"]
    assert health["shedding"] is False
    for entry in health["shards"]:
        assert entry["up"] is True
        assert entry["pid"] > 0
        assert entry["port"] > 0
    assert health["admission"]["slots_per_shard"] >= 2


def test_shard_health_reports_role(cluster):
    for index in range(2):
        health = ServeClient(cluster.shard_url(index)).health()
        assert health["role"] == "shard"
        assert health["shard_index"] == index
        assert health["pid"] > 0
        assert health["status"] == "ok"


def test_router_metrics_exposed(cluster, client):
    metrics = client.metrics()
    assert 'repro_router_shard_up{shard="shard-0"}' in metrics
    assert 'repro_router_shard_up{shard="shard-1"}' in metrics
    assert 'repro_router_lane_depth{lane="placement"}' in metrics
    assert 'repro_router_lane_depth{lane="cold"}' in metrics
    assert "repro_router_inflight" in metrics


# ---------------------------------------------------------------------------
# routing semantics
# ---------------------------------------------------------------------------


def test_placement_through_router(client):
    result = client.placement(
        sizes=[40960, 40960, 40960], hotness=[1.0, 50.0, 5.0],
        bo_capacity_bytes=40960)
    assert result["hints"] == ["CO", "BO", "CO"]


def test_bad_simulate_payload_is_400_at_router(client):
    with pytest.raises(ServeError) as err:
        client._json("POST", "/v1/simulate", {"workload": "no-such"})
    assert err.value.status == 400


def test_unknown_route_404(client):
    with pytest.raises(ServeError) as err:
        client._json("GET", "/v1/nope")
    assert err.value.status == 404


def test_identical_simulates_dedup_on_one_shard(cluster, client):
    """50 identical cold simulates -> exactly one runner execution,
    on exactly one shard (consistent hashing + shard single-flight)."""

    def misses() -> list:
        return [
            ServeClient(cluster.shard_url(i)).metrics().get(
                "repro_serve_simulate_cache_misses_total", 0.0)
            for i in range(2)
        ]

    before = misses()
    with concurrent.futures.ThreadPoolExecutor(max_workers=10) as pool:
        futures = [
            pool.submit(client.simulate, workload="bfs", seed=777,
                        trace_accesses=20_000, retries=3)
            for _ in range(50)
        ]
        results = [f.result() for f in futures]
    digests = {json.dumps(r["result"], sort_keys=True)
               for r in results}
    assert len(digests) == 1          # every caller saw the same bytes
    after = misses()
    deltas = [after[i] - before[i] for i in range(2)]
    assert sorted(deltas) == [0.0, 1.0], (
        f"expected exactly one execution on one shard, got {deltas}")


def test_sharded_result_matches_single_daemon(cluster, client,
                                              tmp_path):
    via_cluster = client.simulate(
        workload="stencil", seed=42, trace_accesses=20_000)
    single_cfg = ServeConfig(port=0, cache_dir=str(tmp_path / "single"))
    with BackgroundServer(single_cfg) as server:
        via_single = ServeClient(server.base_url).simulate(
            workload="stencil", seed=42, trace_accesses=20_000)
    assert (json.dumps(via_cluster["result"], sort_keys=True)
            == json.dumps(via_single["result"], sort_keys=True))


def test_trace_id_propagates_through_router(cluster):
    import http.client

    conn = http.client.HTTPConnection(
        "127.0.0.1", int(cluster.base_url.rsplit(":", 1)[1]),
        timeout=30)
    try:
        conn.request("GET", "/healthz",
                     headers={"X-Trace-Id": "cafef00dcafef00d"})
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        assert response.getheader("X-Trace-Id") == "cafef00dcafef00d"
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# route parity: both front ends answer from the one endpoint table
# ---------------------------------------------------------------------------


def _row_path(row) -> str:
    # A bad query on the profile row answers 400 without profiling.
    if row.path.endswith("/"):
        return row.path + "bfs?accesses=bad"
    return row.path


def _route_cases() -> list:
    cases = [(row.method, _row_path(row)) for row in ENDPOINTS]
    served: dict[str, set] = {}
    for row in ENDPOINTS:
        served.setdefault(_row_path(row), set()).add(row.method)
    for path, methods in served.items():
        cases += [(method, path) for method in ("GET", "POST", "DELETE")
                  if method not in methods]
    cases += [("GET", "/v1/nope"), ("POST", "/v1/nope"),
              ("GET", "/v1/profile/")]
    return cases


@pytest.fixture(scope="module")
def single_client(tmp_path_factory):
    cfg = ServeConfig(
        port=0, cache_dir=str(tmp_path_factory.mktemp("parity-cache")))
    with BackgroundServer(cfg) as server:
        yield ServeClient(server.base_url)


def _status_and_error(client, method, path):
    status, _, body = client._request(method, path)
    error = json.loads(body).get("error") if status >= 400 else None
    return status, error


@pytest.mark.parametrize(("method", "path"), _route_cases(),
                         ids=lambda value: value)
def test_route_parity_with_single_daemon(single_client, client,
                                         method, path):
    single = _status_and_error(single_client, method, path)
    routed = _status_and_error(client, method, path)
    assert routed == single
    row_methods = {row.method for row in ENDPOINTS
                   if _row_path(row) == path}
    if path in ("/v1/nope", "/v1/profile/"):
        assert single[0] == 404
    elif method not in row_methods:
        assert single == (405, f"method {method} not allowed for "
                               f"{path.split('?')[0]}")
    else:
        assert single[0] not in (404, 405)


# ---------------------------------------------------------------------------
# overload: shedding with Retry-After
# ---------------------------------------------------------------------------


def test_cold_overload_sheds_with_retry_after(tmp_path_factory):
    """A cold flood beyond the admission queue gets 429 + Retry-After
    while placement keeps being served on its reserved slot."""
    cfg = ServeConfig(
        port=0, shards=1,
        cache_dir=str(tmp_path_factory.mktemp("shed-cache")),
        drain_timeout_s=2.0,
        proxy_inflight_per_shard=2,  # 1 slot for non-placement lanes
        admission_capacity=2,
        admission_high_watermark=2,
        admission_low_watermark=1)
    with BackgroundCluster(cfg) as cluster:
        url = cluster.base_url
        sheds = []

        def cold(seed: int):
            try:
                ServeClient(url).simulate(
                    workload="bfs", seed=seed, trace_accesses=500_000)
                return None
            except ServeError as exc:
                return exc

        with concurrent.futures.ThreadPoolExecutor(
                max_workers=8) as pool:
            futures = [pool.submit(cold, 9000 + i) for i in range(8)]
            # placement answers while the cold flood is queued/shed
            placement = ServeClient(url, timeout_s=60).placement(
                sizes=[40960, 40960, 40960], hotness=[1.0, 50.0, 5.0],
                bo_capacity_bytes=40960)
            assert placement["hints"] == ["CO", "BO", "CO"]
            sheds = [f.result() for f in futures]
        refused = [e for e in sheds if e is not None]
        assert refused, "expected at least one cold request shed"
        for exc in refused:
            assert exc.status in (429, 503)
            assert exc.retry_after is not None
            assert exc.retry_after > 0
        shed_429 = [e for e in refused if e.status == 429]
        assert shed_429, "expected 429 sheds from admission control"
        metrics = ServeClient(url).metrics()
        total_shed = sum(v for k, v in metrics.items()
                         if k.startswith("repro_router_shed_total")
                         or k.startswith("repro_router_evicted_total"))
        assert total_shed >= len(shed_429)


# ---------------------------------------------------------------------------
# failure: shard death and respawn (kept last: it perturbs the
# module-scoped cluster, then proves it healed)
# ---------------------------------------------------------------------------


def test_killed_shard_is_respawned(cluster, client):
    health = client.health()
    victim = health["shards"][0]
    old_pid, old_generation = victim["pid"], victim["generation"]
    os.kill(old_pid, signal.SIGKILL)

    def respawned():
        current = client.health()
        entry = current["shards"][0]
        return (entry["up"] and entry["generation"] > old_generation
                and entry["pid"] != old_pid and current)

    recovered = _wait_until(respawned, timeout_s=60.0,
                            message="shard respawn")
    assert recovered["live_shards"] == 2
    assert sorted(recovered["ring_nodes"]) == ["shard-0", "shard-1"]
    metrics = client.metrics()
    assert metrics.get(
        'repro_router_shard_respawns_total{shard="shard-0"}', 0) >= 1

    # traffic flows again end-to-end, including to the new shard
    # process (placement fans out by workload key; hit both shards
    # via distinct keys).
    for tag in ("after-kill-a", "after-kill-b", "after-kill-c"):
        result = client._json("POST", "/v1/placement", {
            "sizes": [40960, 40960, 40960], "hotness": [1.0, 50.0, 5.0],
            "bo_capacity_bytes": 40960, "workload": tag})
        assert result["hints"] == ["CO", "BO", "CO"]


def test_requests_during_kill_fail_only_retryably(cluster, client):
    """Kill a shard under live traffic: every error seen while the
    router notices + respawns must be retryable (429/503), and with
    client retries enabled every request eventually succeeds."""
    health = client.health()
    victim = health["shards"][1]
    stop_at = time.monotonic() + 20.0
    outcomes = []

    def hammer(tag: str):
        local = ServeClient(cluster.base_url, timeout_s=60)
        while time.monotonic() < stop_at:
            try:
                local._json("POST", "/v1/placement", {
                    "sizes": [40960], "hotness": [1.0],
                    "bo_capacity_bytes": 40960, "workload": tag})
                outcomes.append(("ok", None))
            except ServeError as exc:
                outcomes.append(("error", exc))
                if exc.status not in (429, 503):
                    return  # non-retryable: recorded, stop early
                time.sleep(0.05)
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(hammer, f"kill-traffic-{i}")
                   for i in range(4)]
        time.sleep(0.5)
        os.kill(victim["pid"], signal.SIGKILL)
        for future in futures:
            future.result()

    errors = [exc for kind, exc in outcomes if kind == "error"]
    assert all(exc.status in (429, 503) for exc in errors), (
        f"non-retryable failures during shard kill: "
        f"{[(e.status, str(e)) for e in errors if e.status not in (429, 503)]}")
    assert any(kind == "ok" for kind, _ in outcomes)
    # and the cluster is whole again afterwards
    _wait_until(lambda: client.health()["live_shards"] == 2,
                timeout_s=60.0, message="cluster healed")
