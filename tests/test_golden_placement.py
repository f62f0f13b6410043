"""Bulk page placement equals the per-page reference, exactly.

:meth:`Process.fault_in` places each allocation in a few array passes;
:func:`repro.vm._reference.fault_in_per_page` is the per-page loop it
replaced, kept as the oracle.  Two processes are built the same way,
one placed each way, and everything observable must agree: the zone
map, the frame numbers, zone occupancy, the spill count, the next draw
of the placement RNG and INTERLEAVE's round-robin counter.

The golden part runs every registry policy (plus BIND and PREFERRED)
on the two-pool, three-pool and chiplet-4 topologies across BO
capacity fractions; the hypothesis part generates allocation sizes,
zone capacities, freed frames, ``mbind``/``set_mempolicy`` sequences
and re-faults after an all-zones OOM.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import OutOfMemoryError, ReproError
from repro.core.experiment import constrained_topology, resolve_policy
from repro.core.units import PAGE_SIZE
from repro.memory.topology import (
    chiplet_topology,
    simulated_baseline,
    three_pool_topology,
)
from repro.obs import trace as obs_trace
from repro.policies.annotated import AnnotatedPolicy
from repro.policies.base import PlacementPolicy
from repro.policies.bwaware import BwAwarePolicy, CounterBwAwarePolicy
from repro.policies.interleave import InterleavePolicy
from repro.policies.local import LocalPolicy
from repro.policies.registry import policy_names
from repro.vm._reference import fault_in_per_page, place_all_per_page
from repro.vm.mempolicy import BindPolicy, PreferredPolicy
from repro.vm.process import Process
from repro.workloads import get_workload

TOPOLOGIES = {
    "two-pool": simulated_baseline,
    "three-pool": three_pool_topology,
    "chiplet-4": lambda: chiplet_topology(4),
}
WORKLOADS = ("bfs", "xsbench", "sgemm")
BO_FRACTIONS = (None, 0.1, 0.5, 0.9)
POLICIES = policy_names() + ("BIND", "PREFERRED")
TRACE_ACCESSES = 20_000


def _state(process: Process, policy: PlacementPolicy) -> dict:
    """Everything placement can change, compared between the paths."""
    policy = getattr(policy, "initial_policy", lambda: policy)()
    return {
        "zones": process.zone_map().tolist(),
        "frames": process.space.frame_map().tolist(),
        "occupancy": process.physical.occupancy(),
        "spilled": process.spilled_pages,
        "next_draw": process.context.rng.random(),
        "interleave_counter": getattr(policy, "_counter", None),
    }


def _policy(name: str, workload, process: Process) -> tuple:
    zones = tuple(range(len(process.topology)))
    if name == "BIND":
        return BindPolicy(zones[::-1]), None
    if name == "PREFERRED":
        return PreferredPolicy(zones[-1]), None
    return resolve_policy(name, workload, "default", TRACE_ACCESSES, 0,
                          process.topology, process)


def _placed(name: str, workload_name: str, topology_name: str,
            fraction, bulk: bool) -> dict:
    workload = get_workload(workload_name)
    system = constrained_topology(TOPOLOGIES[topology_name](),
                                  workload.footprint_pages(), fraction)
    process = Process(system, seed=0)
    policy, hints = _policy(name, workload, process)
    workload.reserve_in(process, hints=hints)
    if bulk:
        process.place_all(policy)
    else:
        place_all_per_page(process, policy)
    return _state(process, policy)


@pytest.mark.parametrize("fraction", BO_FRACTIONS)
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("name", POLICIES)
def test_bulk_matches_reference(name, topology_name, fraction):
    for workload_name in WORKLOADS:
        bulk = _placed(name, workload_name, topology_name, fraction, True)
        reference = _placed(name, workload_name, topology_name, fraction,
                            False)
        assert bulk == reference, workload_name


def test_explicit_ratio_bwaware_matches_reference():
    for co_percent in (0, 30, 100):
        states = []
        for bulk in (True, False):
            process = Process(constrained_topology(
                simulated_baseline(), 4096, 0.25), seed=3)
            for n_pages in (1000, 37, 2500, 600):
                process.reserve(n_pages * PAGE_SIZE)
            policy = BwAwarePolicy.from_ratio(co_percent)
            if bulk:
                process.place_all(policy)
            else:
                place_all_per_page(process, policy)
            states.append(_state(process, policy))
        assert states[0] == states[1]


class TestBulkRouting:
    def test_counter_bwaware_is_placed_per_page(self):
        # Overriding preferred_zones alone drops the random-draw bulk
        # answer BW-AWARE-COUNTER would otherwise inherit.
        assert CounterBwAwarePolicy.place_pages \
            is PlacementPolicy.place_pages
        assert BwAwarePolicy.place_pages \
            is not PlacementPolicy.place_pages

    def test_user_subclass_of_builtin_is_placed_per_page(self):
        class Odd(LocalPolicy):
            def preferred_zones(self, allocation, page_index, ctx):
                return [page_index % 2]

        process = Process(simulated_baseline())
        process.reserve(6 * PAGE_SIZE)
        assert process.place_all(Odd()).tolist() == [0, 1, 0, 1, 0, 1]

    def test_annotated_with_counter_fallback_is_placed_per_page(self):
        process = Process(simulated_baseline())
        allocation = process.reserve(4 * PAGE_SIZE)
        policy = AnnotatedPolicy(fallback=CounterBwAwarePolicy())
        policy.prepare(process.space.allocations, process.context)
        assert policy.place_pages(
            allocation, np.arange(4), process.context) is None


# ----------------------------------------------------------------------
# hypothesis: generated programs, capacities and operation sequences
# ----------------------------------------------------------------------

COMMON = settings(deadline=None, max_examples=40,
                  suppress_health_check=[HealthCheck.too_slow])

POLICY_MAKERS = {
    "LOCAL": lambda n: LocalPolicy(),
    "INTERLEAVE": lambda n: InterleavePolicy(),
    "INTERLEAVE-SUBSET": lambda n: InterleavePolicy(zone_subset=[n - 1, 0]),
    "BW-AWARE": lambda n: BwAwarePolicy(),
    "BW-AWARE-COUNTER": lambda n: CounterBwAwarePolicy(),
    "ANNOTATED": lambda n: AnnotatedPolicy(),
    "PREFERRED": lambda n: PreferredPolicy(n - 1),
    "BIND": lambda n: BindPolicy(range(n)),
}

#: (op, allocation slot, policy name, pages) tuples.
operations = st.lists(
    st.tuples(
        st.sampled_from(("mmap", "reserve", "mbind", "set_mempolicy",
                         "fault_in", "free")),
        st.integers(min_value=0, max_value=7),
        st.sampled_from(sorted(POLICY_MAKERS)),
        st.integers(min_value=1, max_value=48),
    ),
    min_size=1, max_size=14,
)


def _capacity_topology(kind: str, bo_pages: int, co_pages: int):
    """``kind`` with a ``bo_pages`` local zone and ``co_pages`` in every
    other zone."""
    topology = {"two-pool": simulated_baseline,
                "three-pool": three_pool_topology,
                "chiplet-4": lambda: chiplet_topology(4)}[kind]()
    for zone in topology.zones:
        pages = bo_pages if zone.zone_id == topology.gpu_local_zone \
            else co_pages
        topology = topology.replace_zone(zone.resized(pages * PAGE_SIZE))
    return topology


class _ReferenceProcess(Process):
    """A process whose every fault runs the per-page oracle, and whose
    ``free`` returns frames one page at a time."""

    def fault_in(self, allocation):
        policy = self._vma_policies.get(allocation.alloc_id, self.policy)
        self._ensure_prepared(policy)
        fault_in_per_page(self, allocation, policy)

    def free(self, allocation):
        for vpn in allocation.vpns():
            if self.space.is_mapped(vpn):
                self.physical.free(self.space.unmap_page(vpn))


def _run_program(topology, ops, seed: int, bulk: bool) -> list:
    """Replay ``ops`` on a fresh process; record every outcome."""
    process = (Process if bulk else _ReferenceProcess)(topology, seed=seed)
    n_zones = len(topology)
    allocations = []
    outcomes = []
    for op, slot, policy_name, pages in ops:
        target = allocations[slot % len(allocations)] if allocations \
            else None
        try:
            if op in ("mmap", "reserve"):
                hint = ("BO", "CO", None)[pages % 3]
                allocation = process.reserve(pages * PAGE_SIZE, hint=hint,
                                             hotness=float(slot))
                allocations.append(allocation)
                if op == "mmap":
                    process.fault_in(allocation)
            elif op == "set_mempolicy":
                process.set_mempolicy(POLICY_MAKERS[policy_name](n_zones))
            elif target is None:
                continue
            elif op == "mbind":
                process.mbind(target, POLICY_MAKERS[policy_name](n_zones))
            elif op == "fault_in":
                process.fault_in(target)
            else:
                process.free(target)
            outcomes.append((op, "ok"))
        except ReproError as exc:  # compared, never swallowed
            outcomes.append((op, type(exc).__name__, str(exc)))
        outcomes.append(_snapshot(process))
    outcomes.append(process.context.rng.random())
    return outcomes


def _snapshot(process: Process) -> tuple:
    space = process.space
    return (space._zone.tolist(), space._frame.tolist(),
            process.physical.occupancy(),
            {z: list(a._free_list)
             for z, a in process.physical._allocators.items()},
            process.spilled_pages)


class TestGeneratedPrograms:
    @given(kind=st.sampled_from(("two-pool", "three-pool", "chiplet-4")),
           bo_pages=st.integers(min_value=1, max_value=64),
           co_pages=st.integers(min_value=1, max_value=128),
           ops=operations, seed=st.integers(min_value=0, max_value=7))
    @COMMON
    def test_operation_sequences_match_reference(self, kind, bo_pages,
                                                 co_pages, ops, seed):
        topology = _capacity_topology(kind, bo_pages, co_pages)
        bulk = _run_program(topology, ops, seed, bulk=True)
        reference = _run_program(topology, ops, seed, bulk=False)
        assert bulk == reference

    @given(sizes=st.lists(st.integers(min_value=1, max_value=96),
                          min_size=1, max_size=6),
           bo_pages=st.integers(min_value=1, max_value=64),
           co_pages=st.integers(min_value=1, max_value=64),
           freed=st.integers(min_value=0, max_value=5),
           policy_name=st.sampled_from(("LOCAL", "INTERLEAVE",
                                        "BW-AWARE", "ANNOTATED")),
           seed=st.integers(min_value=0, max_value=7))
    @COMMON
    def test_refault_after_all_zones_oom(self, sizes, bo_pages, co_pages,
                                         freed, policy_name, seed):
        """Fill memory, free some frames (non-empty free lists), fault
        in more than fits, free again and re-fault the partially
        mapped allocation: both paths raise and recover identically."""
        topology = _capacity_topology("two-pool", bo_pages, co_pages)
        runs = []
        for bulk in (True, False):
            process = (Process if bulk else _ReferenceProcess)(
                topology, seed=seed)
            process.set_mempolicy(POLICY_MAKERS[policy_name](2))
            log = []
            allocations = [process.reserve(n * PAGE_SIZE, hint="BO")
                           for n in sizes]
            for rounds in range(2):
                for allocation in allocations:
                    try:
                        process.fault_in(allocation)
                        log.append("ok")
                    except OutOfMemoryError as exc:
                        log.append(str(exc))
                    log.append(_snapshot(process))
                for allocation in allocations[:freed]:
                    process.free(allocation)
            log.append(process.context.rng.random())
            runs.append(log)
        assert runs[0] == runs[1]


def test_oom_keeps_pages_before_the_failing_one():
    topology = _capacity_topology("two-pool", 3, 2)
    process = Process(topology, seed=0)
    allocation = process.reserve(8 * PAGE_SIZE)
    with pytest.raises(OutOfMemoryError):
        process.fault_in(allocation)
    assert process.physical.total_free_pages() == 0
    assert len(process.space.unmapped_pages(allocation)) == 3
    assert process.spilled_pages == 2


def test_place_all_span_reports_policy_pages_and_spill():
    process = Process(_capacity_topology("two-pool", 3, 64))
    process.reserve(8 * PAGE_SIZE)
    with obs_trace.capture() as events:
        process.place_all(LocalPolicy())
    (span,) = [e for e in events if e["name"] == "vm.place"]
    assert span["cat"] == "vm"
    assert span["args"] == {"policy": "LOCAL", "pages": 8, "spilled": 5}
    assert process.spilled_pages == 5
