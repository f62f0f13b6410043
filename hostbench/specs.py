"""Seeded inputs for the three workloads.

Everything here is pure Python and imports nothing from ``repro``: the
program under test receives only what these functions generate.  The
same ``--seed`` always yields the same spec lists and request streams.

Sweep specs are plain dicts of :func:`repro.runner.make_spec` keyword
arguments, except that the Figure 3 ratio is carried as ``co_percent``
and turned into a policy string by ``repro.runner.bw_ratio_policy`` in
the sweep worker, exactly as the figure module builds it.
"""

from __future__ import annotations

import random
from typing import Iterator

#: the Figure 3 suite, in the order the figure sweeps it.
SUITE = (
    "backprop", "bfs", "cfd", "comd", "cutcp", "hotspot", "kmeans",
    "lavamd", "lbm", "lud", "minife", "mummergpu", "needle",
    "pathfinder", "sgemm", "spmv", "srad", "stencil", "xsbench",
)

#: the Figure 3 xC-yB ratios (percent of pages in CO memory).
RATIOS = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

#: raw accesses per trace in the figure regenerators (``EXP_ACCESSES``).
SWEEP_ACCESSES = 120_000

#: the constrained grid: the Figure 8/10 capacity studies on the
#: detailed engine, with ONLINE at the tightest capacity.
CONSTRAINED_WORKLOADS = ("bfs", "xsbench", "lbm", "mummergpu", "sgemm",
                         "comd")
CONSTRAINED_POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE", "ORACLE",
                        "ANNOTATED")
CONSTRAINED_FRACTIONS = (0.1, 0.5)

#: a sweep's trace seed is ``seed % SEED_SLOTS``; golden digests are
#: recorded for every slot, so every sweep result is checked whatever
#: ``--seed`` the caller picks.
SEED_SLOTS = 32

#: serve traffic: raw accesses of every /v1/simulate spec.
SERVE_ACCESSES = 60_000
SERVE_COLD_SHARE = 0.10
SERVE_COLD_POLICIES = ("LOCAL", "INTERLEAVE", "BW-AWARE")
PLACEMENT_ALLOCATIONS = 32

PAGE = 4096


def trace_seed(seed: int) -> int:
    """The trace seed every spec of a sweep uses for ``seed``."""
    return seed % SEED_SLOTS


def ratio_sweep(seed: int) -> list[dict]:
    """Figure 3: 19 workloads x 11 ratios, throughput engine, no
    capacity limit (the footprint fits in BO)."""
    return [
        {"workload": workload, "co_percent": ratio,
         "trace_accesses": SWEEP_ACCESSES, "seed": trace_seed(seed)}
        for workload in SUITE for ratio in RATIOS
    ]


def constrained_detailed(seed: int) -> list[dict]:
    """Figures 8/10 on the detailed engine: 6 workloads x 5 policies x
    2 BO capacity fractions, plus ONLINE at the tighter one (66)."""
    specs = []
    for workload in CONSTRAINED_WORKLOADS:
        for fraction in CONSTRAINED_FRACTIONS:
            for policy in CONSTRAINED_POLICIES:
                specs.append({
                    "workload": workload, "policy": policy,
                    "bo_capacity_fraction": fraction,
                    "trace_accesses": SWEEP_ACCESSES,
                    "seed": trace_seed(seed), "engine": "detailed",
                })
        specs.append({
            "workload": workload, "policy": "ONLINE",
            "bo_capacity_fraction": CONSTRAINED_FRACTIONS[0],
            "trace_accesses": SWEEP_ACCESSES,
            "seed": trace_seed(seed), "engine": "detailed",
        })
    return specs


SWEEPS = {
    "ratio_sweep": ratio_sweep,
    "constrained_detailed": constrained_detailed,
}


def placement_request(seed: int) -> dict:
    """The fixed 32-allocation ``/v1/placement`` body of one run.

    The BO pool holds a quarter of the footprint, so the request takes
    the constrained (BO/CO pinning) path rather than the all-"BW" one.
    """
    rng = random.Random(f"placement-{seed}")
    sizes = [PAGE * rng.randint(1, 4096)
             for _ in range(PLACEMENT_ALLOCATIONS)]
    hotness = [round(rng.uniform(0.1, 100.0), 3)
               for _ in range(PLACEMENT_ALLOCATIONS)]
    return {"sizes": sizes, "hotness": hotness,
            "bo_capacity_bytes": sum(sizes) // 4}


def _simulate_body(workload: str, policy: str, seed: int) -> dict:
    return {"workload": workload, "policy": policy,
            "trace_accesses": SERVE_ACCESSES, "seed": seed,
            "engine": "throughput"}


def warm_simulate(seed: int) -> dict:
    """The spec the warm 90% of simulate traffic repeats."""
    rng = random.Random(f"warm-{seed}")
    return _simulate_body(rng.choice(SUITE),
                          rng.choice(SERVE_COLD_POLICIES), seed)


def simulate_stream(seed: int) -> Iterator[tuple[str, dict]]:
    """Endless ``(kind, body)`` stream for the simulate connection.

    ``kind`` is ``"warm"`` or ``"cold"``.  Cold specs walk a seeded
    permutation of the suite round-robin (so every run has the same mix
    of footprints) and each carries a fresh trace seed, so it is never
    a cache hit.
    """
    rng = random.Random(f"simulate-{seed}")
    order = list(SUITE)
    rng.shuffle(order)
    warm = warm_simulate(seed)
    cold = 0
    while True:
        if rng.random() < SERVE_COLD_SHARE:
            workload = order[cold % len(order)]
            policy = SERVE_COLD_POLICIES[
                (cold // len(order)) % len(SERVE_COLD_POLICIES)]
            fresh = 1_000_000 + seed * 100_000 + cold
            cold += 1
            yield "cold", _simulate_body(workload, policy, fresh)
        else:
            yield "warm", dict(warm)
