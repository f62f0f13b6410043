"""The process: where address space, physical memory and policy meet.

A :class:`Process` owns one :class:`AddressSpace`, shares the system's
:class:`PhysicalMemory`, and applies placement policies at allocation
time — the paper studies *initial* placement, explicitly deferring page
migration (Section 5.5), so pages are placed once, when faulted in.

Two usage styles are supported, matching the two software layers in the
paper:

* the **OS style** — ``set_mempolicy`` + ``mmap`` with the task policy,
  ``mbind`` to override a specific range (Section 2.2);
* the **bulk style** used by the experiment harness — reserve every
  allocation, then :meth:`place_all` with one policy, which gives
  whole-program policies (the oracle) their two-phase ``prepare`` hook.

Both fault pages in through :meth:`Process.fault_in`, which places an
allocation in a few array passes (policy ``place_pages``, then
:meth:`PhysicalMemory.allocate_bulk`, then
:meth:`AddressSpace.map_range`).  A policy that only answers per page is
placed by :func:`repro.vm._reference.fault_in_per_page`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.errors import OutOfMemoryError, PolicyError
from repro.memory.acpi import FirmwareTables, enumerate_tables
from repro.memory.topology import SystemTopology
from repro.obs import trace as obs_trace
from repro.policies.base import PlacementContext, PlacementPolicy
from repro.policies.local import LocalPolicy
from repro.vm._reference import fault_in_per_page
from repro.vm.address_space import AddressSpace
from repro.vm.allocator import BulkPlacement, PhysicalMemory
from repro.vm.page import Allocation


class Process:
    """A GPU-side process with allocation-time page placement."""

    def __init__(self, topology: SystemTopology,
                 physical: Optional[PhysicalMemory] = None,
                 tables: Optional[FirmwareTables] = None,
                 policy: Optional[PlacementPolicy] = None,
                 seed: int = 0) -> None:
        self.topology = topology
        self.physical = physical if physical is not None else PhysicalMemory(topology)
        self.tables = tables if tables is not None else enumerate_tables(topology)
        self.space = AddressSpace()
        self._policy = policy if policy is not None else LocalPolicy()
        self._vma_policies: dict[int, PlacementPolicy] = {}
        self._ctx = PlacementContext(
            tables=self.tables,
            physical=self.physical,
            local_zone=topology.gpu_local_zone,
            rng=np.random.default_rng(seed),
        )
        self._prepared_policies: set[int] = set()
        #: pages placed outside their first-choice zone, over every
        #: fault of this process.
        self.spilled_pages = 0

    @property
    def context(self) -> PlacementContext:
        """The placement context policies are evaluated in."""
        return self._ctx

    @property
    def policy(self) -> PlacementPolicy:
        """The task-wide default policy."""
        return self._policy

    # ------------------------------------------------------------------
    # Linux-shaped API
    # ------------------------------------------------------------------

    def set_mempolicy(self, policy: PlacementPolicy) -> None:
        """Replace the task default policy (affects future faults only)."""
        self._policy = policy
        self._prepared_policies.discard(id(policy))

    def mbind(self, allocation: Allocation,
              policy: PlacementPolicy) -> None:
        """Attach a per-range policy, as ``mbind(2)`` does for a VMA.

        Must run before the range is faulted in: this model places pages
        exactly once (no migration), mirroring the paper's focus on
        initial placement.
        """
        if len(self.space.unmapped_pages(allocation)) \
                != allocation.n_pages:
            raise PolicyError(
                f"mbind on {allocation.name!r} after pages were placed; "
                "this model does not migrate pages"
            )
        self._vma_policies[allocation.alloc_id] = policy
        self._prepared_policies.discard(id(policy))

    def reserve(self, size_bytes: int, name: str = "",
                hint: Optional[object] = None,
                hotness: float = 1.0) -> Allocation:
        """Reserve a virtual range without faulting pages in."""
        return self.space.reserve(size_bytes, name=name, hint=hint,
                                  hotness=hotness)

    def mmap(self, size_bytes: int, name: str = "",
             hint: Optional[object] = None,
             hotness: float = 1.0) -> Allocation:
        """Reserve and immediately fault in a range with the task policy."""
        allocation = self.reserve(size_bytes, name=name, hint=hint,
                                  hotness=hotness)
        self.fault_in(allocation)
        return allocation

    def fault_in(self, allocation: Allocation) -> None:
        """Place every page of ``allocation`` using its effective policy."""
        policy = self._vma_policies.get(allocation.alloc_id, self._policy)
        self._ensure_prepared(policy)
        pages = self.space.unmapped_pages(allocation)
        if not pages.size:
            return
        # With F free frames left, page-by-page placement consults the
        # policy for at most F + 1 pages and fails on the last one; ask
        # for no more, so the policy state stops where it would.
        pages = pages[:self.physical.total_free_pages() + 1]
        first = policy.place_pages(allocation, pages, self._ctx)
        if first is None:
            fault_in_per_page(self, allocation, policy)
            return
        try:
            placed = self.physical.allocate_bulk(first, self._ctx)
        except OutOfMemoryError as exc:
            # The pages before the exhausted one keep their frames, as
            # page-by-page placement would leave them.
            self._map(allocation, pages, exc.placed)
            raise
        self._map(allocation, pages, placed)

    def _map(self, allocation: Allocation, pages: np.ndarray,
             placed: BulkPlacement) -> None:
        self.space.map_range(allocation, pages[:placed.zones.size],
                             placed.zones, placed.frames)
        self.spilled_pages += placed.spilled

    def _ensure_prepared(self, policy: PlacementPolicy) -> None:
        if id(policy) not in self._prepared_policies:
            policy.prepare(self.space.allocations, self._ctx)
            self._prepared_policies.add(id(policy))

    # ------------------------------------------------------------------
    # Bulk style for the experiment harness
    # ------------------------------------------------------------------

    def place_all(self, policy: Optional[PlacementPolicy] = None) -> np.ndarray:
        """Fault in every reserved-but-unmapped allocation.

        Runs the policy's two-phase ``prepare`` over the complete
        allocation list first, then places pages in program order.
        Returns the footprint zone map (zone id per page, program
        order) — the vector the performance engines consume.
        """
        if policy is not None:
            self.set_mempolicy(policy)
        active = self._policy
        with obs_trace.span("vm.place", cat="vm",
                            policy=active.name) as span:
            spilled_before = self.spilled_pages
            active.prepare(self.space.allocations, self._ctx)
            self._prepared_policies.add(id(active))
            for allocation in self.space.allocations:
                self.fault_in(allocation)
            zone_map = self.zone_map()
            span.annotate(pages=int(zone_map.size),
                          spilled=self.spilled_pages - spilled_before)
        return zone_map

    def zone_map(self) -> np.ndarray:
        """Zone id per footprint page, program order."""
        return self.space.zone_map()

    def free(self, allocation: Allocation) -> None:
        """Release the physical frames of ``allocation``.

        The virtual range stays reserved (no VA reuse), which keeps
        trace virtual addresses stable across the run.
        """
        self.physical.free_many(*self.space.unmap_range(allocation))

    def occupancy_fraction(self, zone_id: int) -> float:
        """Fraction of a zone's frames currently used."""
        used, capacity = self.physical.occupancy()[zone_id]
        return used / capacity
