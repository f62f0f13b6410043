"""Workload suite registry.

The paper evaluates 19 benchmarks from Rodinia, Parboil and recent HPC
proxy applications: 17 bandwidth-sensitive, plus comd (memory
insensitive) and sgemm (latency sensitive) as controls (Section 3.2.1).
This module registers one model per benchmark and provides lookup
helpers used by the experiment harness and benches.

Beyond the paper's suite, *scenario* workloads (the dynamic-placement
families of :mod:`repro.workloads.dynamic`) are registered separately:
:func:`get_workload` finds them, but :func:`workload_names` — the set
every full-registry sweep and figure iterates — remains exactly the 19
benchmarks, so the paper reproduction is untouched by extensions.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import ReproError, WorkloadError
from repro.obs.log import log_event
from repro.workloads.backprop import BackpropWorkload
from repro.workloads.base import TraceWorkload
from repro.workloads.bfs import BfsWorkload
from repro.workloads.cfd import CfdWorkload
from repro.workloads.comd import ComdWorkload
from repro.workloads.cutcp import CutcpWorkload
from repro.workloads.dynamic import (
    PhaseShiftWorkload,
    SlidingWindowWorkload,
)
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.kmeans import KmeansWorkload
from repro.workloads.lavamd import LavamdWorkload
from repro.workloads.lbm import LbmWorkload
from repro.workloads.lud import LudWorkload
from repro.workloads.minife import MinifeWorkload
from repro.workloads.mummergpu import MummergpuWorkload
from repro.workloads.needle import NeedleWorkload
from repro.workloads.pathfinder import PathfinderWorkload
from repro.workloads.sgemm import SgemmWorkload
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.srad import SradWorkload
from repro.workloads.stencil import StencilWorkload
from repro.workloads.xsbench import XsbenchWorkload

_WORKLOAD_CLASSES: tuple[type[TraceWorkload], ...] = (
    BackpropWorkload,
    BfsWorkload,
    CfdWorkload,
    ComdWorkload,
    CutcpWorkload,
    HotspotWorkload,
    KmeansWorkload,
    LavamdWorkload,
    LbmWorkload,
    LudWorkload,
    MinifeWorkload,
    MummergpuWorkload,
    NeedleWorkload,
    PathfinderWorkload,
    SgemmWorkload,
    SpmvWorkload,
    SradWorkload,
    StencilWorkload,
    XsbenchWorkload,
)

_REGISTRY: dict[str, TraceWorkload] = {
    cls.name: cls() for cls in _WORKLOAD_CLASSES
}

#: dynamic-placement scenarios; looked up like workloads, but kept out
#: of ``workload_names()`` so the paper's figure sweeps are unchanged.
_SCENARIO_CLASSES: tuple[type[TraceWorkload], ...] = (
    PhaseShiftWorkload,
    SlidingWindowWorkload,
)

_SCENARIOS: dict[str, TraceWorkload] = {
    cls.name: cls() for cls in _SCENARIO_CLASSES
}

#: the four workloads of the Figure 11 cross-dataset study, chosen in
#: the paper as those with the largest oracle-over-BW-AWARE headroom.
CROSS_DATASET_WORKLOADS = ("bfs", "xsbench", "minife", "mummergpu")


def workload_names() -> tuple[str, ...]:
    """All 19 benchmark names, alphabetical (scenarios excluded)."""
    return tuple(sorted(_REGISTRY))


def scenario_names() -> tuple[str, ...]:
    """Dynamic-placement scenario names, alphabetical."""
    return tuple(sorted(_SCENARIOS))


def get_workload(name: str) -> TraceWorkload:
    """Look up a benchmark, scenario, or ingested-trace model by name.

    ``trace:<name>[#sha12]`` and ``mix:<a>+<b>...`` names resolve
    against the :mod:`repro.ingest` trace registry; everything else
    resolves against the benchmark and scenario registries.
    """
    key = name.lower()
    if key.startswith(("trace:", "mix:")):
        # deferred import: repro.ingest depends on workloads.base
        from repro.ingest import resolve_workload
        return resolve_workload(key)
    found = _REGISTRY.get(key)
    if found is None:
        found = _SCENARIOS.get(key)
    if found is None:
        raise WorkloadError(unknown_workload_message(name))
    return found


def ingested_workload_names() -> tuple[str, ...]:
    """Canonical names of registered external traces (best effort:
    empty, with a warning logged, when no registry is reachable)."""
    try:
        from repro.ingest import default_registry
        registry = default_registry()
        records = (registry.record(n) for n in registry.names())
        return tuple(r.canonical for r in records if r is not None)
    except (OSError, ReproError) as exc:
        log_event("workloads.registry_unavailable", level="warning",
                  error=f"{type(exc).__name__}: {exc}")
        return ()


def unknown_workload_message(name: str) -> str:
    """The one unknown-workload message every entry point (CLI, serve,
    runner) reports, listing all three name families."""
    parts = [
        f"unknown workload {name!r}",
        f"benchmarks: {', '.join(workload_names())}",
        f"scenarios: {', '.join(scenario_names())}",
    ]
    ingested = ingested_workload_names()
    if ingested:
        parts.append(f"ingested traces: {', '.join(ingested)}")
    else:
        parts.append("ingested traces: none (add with 'repro ingest')")
    parts.append(
        "external traces run as trace:<name> and 2-4 registered "
        "traces co-schedule as mix:<a>+<b>")
    return "; ".join(parts)


def all_workloads() -> tuple[TraceWorkload, ...]:
    """All workload models, alphabetical by name."""
    return tuple(_REGISTRY[name] for name in workload_names())


def bandwidth_sensitive_workloads() -> tuple[TraceWorkload, ...]:
    """The 17 workloads the paper classifies as bandwidth sensitive."""
    return tuple(w for w in all_workloads() if w.bandwidth_sensitive)


def workloads_by_suite(suite: str) -> tuple[TraceWorkload, ...]:
    """Workloads from one originating suite (rodinia/parboil/hpc)."""
    picked = tuple(w for w in all_workloads() if w.suite == suite)
    if not picked:
        known = sorted({w.suite for w in all_workloads()})
        raise WorkloadError(f"unknown suite {suite!r}; known: {known}")
    return picked
