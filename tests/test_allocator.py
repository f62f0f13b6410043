"""Physical frame allocators and the spill chain."""

import pytest

import numpy as np

from repro.core.errors import ConfigError, OutOfMemoryError
from repro.core.units import GIB, PAGE_SIZE
from repro.memory.acpi import enumerate_tables
from repro.memory.topology import simulated_baseline
from repro.policies.base import PlacementContext
from repro.vm.allocator import PhysicalMemory, ZoneAllocator
from repro.vm.page import PageMapping


class TestZoneAllocator:
    def test_fresh_allocator_all_free(self):
        alloc = ZoneAllocator(0, 10)
        assert alloc.free_pages == 10
        assert alloc.used_pages == 0
        assert not alloc.full

    def test_allocate_unique_frames(self):
        alloc = ZoneAllocator(0, 5)
        frames = {alloc.allocate() for _ in range(5)}
        assert frames == set(range(5))
        assert alloc.full

    def test_exhaustion_raises(self):
        alloc = ZoneAllocator(0, 1)
        alloc.allocate()
        with pytest.raises(OutOfMemoryError):
            alloc.allocate()

    def test_free_recycles(self):
        alloc = ZoneAllocator(0, 1)
        frame = alloc.allocate()
        alloc.free(frame)
        assert alloc.allocate() == frame

    def test_double_free_rejected(self):
        alloc = ZoneAllocator(0, 2)
        frame = alloc.allocate()
        alloc.free(frame)
        with pytest.raises(ConfigError):
            alloc.free(frame)

    def test_free_of_never_allocated_rejected(self):
        alloc = ZoneAllocator(0, 2)
        with pytest.raises(ConfigError):
            alloc.free(1)

    def test_allocate_many_all_or_nothing(self):
        alloc = ZoneAllocator(0, 4)
        alloc.allocate()
        with pytest.raises(OutOfMemoryError):
            alloc.allocate_many(4)
        # Nothing was taken by the failed bulk call.
        assert alloc.free_pages == 3
        assert len(alloc.allocate_many(3)) == 3

    def test_allocate_many_pops_free_list_then_bumps(self):
        alloc = ZoneAllocator(0, 8)
        for _ in range(4):
            alloc.allocate()
        alloc.free(1)
        alloc.free(3)
        assert alloc.allocate_many(3).tolist() == [3, 1, 4]

    def test_free_many_checks_every_frame_first(self):
        alloc = ZoneAllocator(0, 4)
        alloc.allocate_many(2)
        with pytest.raises(ConfigError):
            alloc.free_many([0, 0])
        with pytest.raises(ConfigError):
            alloc.free_many([1, 2])
        assert alloc.free_pages == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ZoneAllocator(0, 0)


class TestPhysicalMemory:
    def _physical(self, bo_gib=0.001, co_gib=0.001):
        return PhysicalMemory(
            simulated_baseline(bo_capacity_gib=bo_gib,
                               co_capacity_gib=co_gib)
        )

    def test_preference_honored_when_space(self):
        physical = self._physical()
        mapping = physical.allocate([1, 0])
        assert mapping.zone_id == 1

    def test_spill_to_next_when_full(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        assert physical.allocator(0).full
        spilled = physical.allocate([0, 1])
        assert spilled.zone_id == 1

    def test_unlisted_zones_appended_as_last_resort(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        # Preference lists only the full zone; the allocator must still
        # find zone 1 rather than OOM.
        assert physical.allocate([0]).zone_id == 1

    def test_strict_mode_raises_instead_of_spilling(self):
        physical = self._physical()
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        with pytest.raises(OutOfMemoryError):
            physical.allocate([0], strict=True)

    def test_total_exhaustion_raises(self):
        physical = self._physical()
        total = physical.total_free_pages()
        for _ in range(total):
            physical.allocate([0, 1])
        with pytest.raises(OutOfMemoryError):
            physical.allocate([0, 1])

    def test_free_returns_frame(self):
        physical = self._physical()
        mapping = physical.allocate([0])
        used_before = physical.used_pages(0)
        physical.free(mapping)
        assert physical.used_pages(0) == used_before - 1

    def test_occupancy_snapshot(self):
        physical = self._physical()
        physical.allocate([0])
        physical.allocate([1])
        occupancy = physical.occupancy()
        assert occupancy[0][0] == 1
        assert occupancy[1][0] == 1

    def test_unknown_zone_rejected(self):
        physical = self._physical()
        with pytest.raises(ConfigError):
            physical.allocator(5)

    def test_has_space(self):
        physical = self._physical()
        assert physical.has_space(0)
        capacity = physical.allocator(0).capacity_pages
        for _ in range(capacity):
            physical.allocate([0])
        assert not physical.has_space(0)


class TestAllocateBulk:
    def _physical_and_context(self, bo_pages=3, co_pages=4):
        topology = simulated_baseline(
            bo_capacity_gib=bo_pages * PAGE_SIZE / GIB,
            co_capacity_gib=co_pages * PAGE_SIZE / GIB)
        physical = PhysicalMemory(topology)
        ctx = PlacementContext(tables=enumerate_tables(topology),
                               physical=physical,
                               local_zone=topology.gpu_local_zone)
        return physical, ctx

    def test_spills_along_chain_and_counts_it(self):
        physical, ctx = self._physical_and_context()
        placed = physical.allocate_bulk(np.array([0, 1, 0, 0, 0]), ctx)
        assert placed.zones.tolist() == [0, 1, 0, 0, 1]
        assert placed.frames.tolist() == [0, 0, 1, 2, 1]
        assert placed.spilled == 1

    def test_exhaustion_keeps_earlier_pages_and_raises(self):
        physical, ctx = self._physical_and_context()
        with pytest.raises(OutOfMemoryError) as info:
            physical.allocate_bulk(np.zeros(9, dtype=np.int64), ctx)
        assert info.value.placed.zones.tolist() == [0, 0, 0, 1, 1, 1, 1]
        assert info.value.placed.spilled == 4
        assert physical.total_free_pages() == 0

    def test_unknown_zone_rejected_before_any_frame(self):
        physical, ctx = self._physical_and_context()
        with pytest.raises(ConfigError):
            physical.allocate_bulk(np.array([0, 7]), ctx)
        assert physical.used_pages(0) == 0
