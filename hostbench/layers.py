"""Host-time spans around the public functions of each layer.

The wrappers live here, in the benchmark, not in the program: a traced
sweep installs them, runs, and restores every original attribute.  A
layer's *self* time is its own wall time minus the wall time of wrapped
calls nested inside it, so the self times of a run sum to the time
spent inside the outermost wrapped call.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: work counters a layer reports (pages placed, cache hits, ...).
    counts: dict = field(default_factory=dict)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _pages_placed(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("pages", int(result.size))


def _accesses(stat: LayerStat, args, kwargs, result) -> None:
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    stat.add("accesses", int(trace.page_indices.size))


def _hits(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("hits", int(result is not None))


def _pages_migrated(stat: LayerStat, args, kwargs, result) -> None:
    stat.add("pages_migrated", int(result.pages_migrated))


#: (layer, module, attribute path, counter).  Engines are wrapped at
#: ``run`` rather than at ``GpuSystemSimulator.simulate`` so the epochs
#: ``MigrationSimulator`` replays count as engine time too.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("runner.run", "repro.runner.sweep", "SweepRunner.run", None),
    ("runner.cache.get", "repro.runner.cache", "ResultCache.get",
     _hits),
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put", None),
    ("experiment.run", "repro.runner.sweep", "execute_spec", None),
    ("policies.resolve", "repro.core.experiment", "resolve_policy", None),
    ("profiling.profile", "repro.profiling.profiler",
     "PageAccessProfiler.profile", None),
    ("workloads.dram_trace", "repro.workloads.base",
     "TraceWorkload.dram_trace", None),
    ("workloads.trace_memo", "repro.workloads.base", "lookup_trace",
     _hits),
    ("gpu.cache.filter", "repro.gpu.cache",
     "CacheHierarchy.filter_stream_indices", None),
    ("vm.place_all", "repro.vm.process", "Process.place_all",
     _pages_placed),
    ("gpu.simulate.throughput", "repro.gpu.throughput",
     "ThroughputEngine.run", _accesses),
    ("gpu.simulate.detailed", "repro.gpu.engine", "DetailedEngine.run",
     _accesses),
    ("migration.run", "repro.migration.engine", "MigrationSimulator.run",
     _pages_migrated),
)


#: where a sweep with ``jobs=1`` stores each executed result, right
#: after the spec has run.
STORE_TARGETS = (
    ("runner.cache.put", "repro.runner.cache", "ResultCache.put", None),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerClock:
    """Self-time accounting for nested wrapped calls (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        #: wall time of wrapped children, one slot per open call.
        self._children: list[float] = []

    def wrap(self, layer: str, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(layer, LayerStat())

        def wrapper(*args, **kwargs):
            start = self.clock()
            self._children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                children = self._children.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                if self._children:
                    self._children[-1] += elapsed
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        return wrapper


class CompletionClock:
    """The instant each wrapped call returns.  Installed on
    :data:`STORE_TARGETS`, it stamps the completion of every spec of a
    sweep, measured by the benchmark's own clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.instants: list[float] = []

    def wrap(self, layer: str, fn: Callable,
             counter: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.instants.append(self.clock())
            return result

        return wrapper

    def gaps(self, start: float) -> list[float]:
        """Time from ``start`` (or the previous completion) to each
        completion: every spec's share of the sweep."""
        previous = [start] + self.instants[:-1]
        return [end - begin for begin, end in zip(previous, self.instants)]


class Installed:
    """Context manager: wrap every target with ``clock.wrap`` (a
    :class:`LayerClock` or :class:`CompletionClock`), restore them all
    on exit."""

    def __init__(self, clock, targets=TARGETS) -> None:
        self.clock = clock
        self.targets = targets
        self._originals: list[tuple[Any, str, Any]] = []

    def __enter__(self):
        try:
            for layer, module_name, path, counter in self.targets:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr,
                        self.clock.wrap(layer, original, counter))
        except BaseException:
            self.restore()
            raise
        return self.clock

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def is_restored(self) -> bool:
        """True when every wrapped attribute is its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._originals)


def layer_metrics(stats: dict[str, LayerStat], wall_s: float) -> dict:
    """Per-layer metrics of one traced sweep (see README.md)."""
    def self_s(layer: str) -> float:
        stat = stats.get(layer)
        return stat.self_s if stat is not None else 0.0

    def count(layer: str, name: str) -> float:
        stat = stats.get(layer)
        return stat.counts.get(name, 0) if stat is not None else 0

    def calls(layer: str) -> int:
        stat = stats.get(layer)
        return stat.calls if stat is not None else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    place_s = self_s("vm.place_all")
    pages = count("vm.place_all", "pages")
    engine_s = (self_s("gpu.simulate.throughput")
                + self_s("gpu.simulate.detailed"))
    accesses = (count("gpu.simulate.throughput", "accesses")
                + count("gpu.simulate.detailed", "accesses"))
    attributed = sum(stat.self_s for stat in stats.values())
    return {
        "vm.place_all_s": place_s,
        "vm.pages_placed": pages,
        "vm.place_ns_per_page": ratio(place_s * 1e9, pages),
        "gpu.simulate.throughput_s": self_s("gpu.simulate.throughput"),
        "gpu.simulate.detailed_s": self_s("gpu.simulate.detailed"),
        "gpu.accesses_simulated": accesses,
        "gpu.simulate_ns_per_access": ratio(engine_s * 1e9, accesses),
        "workloads.dram_trace_s": (self_s("workloads.dram_trace")
                                   + self_s("workloads.trace_memo")),
        "workloads.trace_memo_hit_ratio": ratio(
            count("workloads.trace_memo", "hits"),
            calls("workloads.trace_memo")),
        "gpu.cache.filter_s": self_s("gpu.cache.filter"),
        "gpu.cache.filter_calls": calls("gpu.cache.filter"),
        "policies.resolve_s": self_s("policies.resolve"),
        "profiling.profile_s": self_s("profiling.profile"),
        "migration.run_s": self_s("migration.run"),
        "migration.pages_migrated": count("migration.run",
                                          "pages_migrated"),
        "runner.cache.get_s": self_s("runner.cache.get"),
        "runner.cache.put_s": self_s("runner.cache.put"),
        "runner.cache.hit_ratio": ratio(count("runner.cache.get", "hits"),
                                        calls("runner.cache.get")),
        "runner.run_self_s": self_s("runner.run"),
        "experiment.run_self_s": self_s("experiment.run"),
        "bench.unattributed_s": wall_s - attributed,
    }
