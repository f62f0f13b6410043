"""Physical frame allocators.

:class:`ZoneAllocator` hands out frames from one NUMA zone;
:class:`PhysicalMemory` aggregates one allocator per zone of a topology
and implements the fallback chain semantics Linux uses: try the preferred
zones in order, and only raise :class:`OutOfMemoryError` once *every*
zone is exhausted.  This fallback is load-bearing for the paper's
capacity-constraint experiments — when the BO pool fills, placement
policies silently spill to the CO pool exactly as ``mbind`` does.

:meth:`PhysicalMemory.allocate` places one page;
:meth:`PhysicalMemory.allocate_bulk` places a whole run of pages in a
few array passes with exactly the zones and frames the one-page calls
would hand out in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.core.errors import ConfigError, OutOfMemoryError
from repro.memory.topology import SystemTopology
from repro.policies.base import spill_chain
from repro.vm.page import PageMapping

if TYPE_CHECKING:
    from repro.policies.base import PlacementContext


class BulkPlacement(NamedTuple):
    """Where :meth:`PhysicalMemory.allocate_bulk` put a run of pages."""

    #: zone id per page, in request order.
    zones: np.ndarray
    #: frame number per page, within its zone.
    frames: np.ndarray
    #: pages that landed outside their first-choice zone.
    spilled: int


def _distinct(zone_ids: np.ndarray, n_slots: int) -> list[int]:
    """Sorted distinct values of ``zone_ids`` (all in ``[0, n_slots)``).

    ``np.unique`` would do, but its first call imports ``numpy.ma``,
    about a megabyte of resident memory nothing else here needs.
    """
    return np.flatnonzero(np.bincount(zone_ids, minlength=n_slots)).tolist()


class ZoneAllocator:
    """Frame allocator for a single zone.

    Frames are integers in ``[0, capacity_pages)``.  A simple bump
    pointer plus an explicit free list is enough: the simulator never
    cares about physical frame adjacency, only about which *zone* backs
    each page.
    """

    def __init__(self, zone_id: int, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ConfigError("capacity_pages must be positive")
        self.zone_id = zone_id
        self.capacity_pages = capacity_pages
        self._next_frame = 0
        self._free_list: list[int] = []

    @property
    def used_pages(self) -> int:
        """Frames currently handed out."""
        return self._next_frame - len(self._free_list)

    @property
    def free_pages(self) -> int:
        """Frames still available."""
        return self.capacity_pages - self.used_pages

    @property
    def full(self) -> bool:
        return self.free_pages == 0

    def allocate(self) -> int:
        """Take one frame; raises :class:`OutOfMemoryError` when full."""
        if self._free_list:
            return self._free_list.pop()
        if self._next_frame >= self.capacity_pages:
            raise OutOfMemoryError(
                f"zone {self.zone_id} exhausted "
                f"({self.capacity_pages} pages)"
            )
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def allocate_many(self, count: int) -> np.ndarray:
        """Take ``count`` frames (all-or-nothing).

        The frames are the ones ``count`` :meth:`allocate` calls would
        return, in the same order: free-list pops first, then the bump
        pointer.
        """
        if count < 0:
            raise ConfigError("count must be >= 0")
        if count > self.free_pages:
            raise OutOfMemoryError(
                f"zone {self.zone_id}: requested {count} frames, "
                f"{self.free_pages} free"
            )
        reused = min(count, len(self._free_list))
        popped = self._free_list[len(self._free_list) - reused:]
        del self._free_list[len(self._free_list) - reused:]
        fresh = count - reused
        frames = np.concatenate([
            np.asarray(popped[::-1], dtype=np.int64),
            np.arange(self._next_frame, self._next_frame + fresh,
                      dtype=np.int64),
        ])
        self._next_frame += fresh
        return frames

    def free(self, frame: int) -> None:
        """Return a frame to the pool."""
        self.free_many([frame])

    def free_many(self, frames: Sequence[int] | np.ndarray) -> None:
        """Return frames to the pool, as :meth:`free` calls in order
        would.  Every frame is checked before any is returned."""
        frames = [int(frame) for frame in frames]
        seen = set(self._free_list)
        for frame in frames:
            if not 0 <= frame < self._next_frame:
                raise ConfigError(f"frame {frame} was never allocated")
            if frame in seen:
                raise ConfigError(f"double free of frame {frame}")
            seen.add(frame)
        self._free_list.extend(frames)


class PhysicalMemory:
    """All physical frames in the system, one allocator per zone."""

    def __init__(self, topology: SystemTopology) -> None:
        self.topology = topology
        self._allocators = {
            zone.zone_id: ZoneAllocator(zone.zone_id, zone.capacity_pages)
            for zone in topology
        }

    def allocator(self, zone_id: int) -> ZoneAllocator:
        try:
            return self._allocators[zone_id]
        except KeyError:
            raise ConfigError(f"no zone {zone_id} in {self.topology.name}")

    def free_pages(self, zone_id: int) -> int:
        return self.allocator(zone_id).free_pages

    def used_pages(self, zone_id: int) -> int:
        return self.allocator(zone_id).used_pages

    def total_free_pages(self) -> int:
        return sum(a.free_pages for a in self._allocators.values())

    def has_space(self, zone_id: int) -> bool:
        return not self.allocator(zone_id).full

    def allocate(self, preferred: Sequence[int],
                 strict: bool = False) -> PageMapping:
        """Allocate one frame following a zone preference chain.

        ``preferred`` lists zone ids most-preferred first.  By default,
        zones missing from the list are appended in id order as a last
        resort so a policy bug can never fail an allocation the machine
        could serve.  With ``strict=True`` (MPOL_BIND semantics) only
        the listed zones are tried and exhaustion raises.
        """
        chain = list(preferred)
        if not strict:
            chain += [z for z in self._allocators if z not in preferred]
        for zone_id in chain:
            allocator = self.allocator(zone_id)
            if not allocator.full:
                return PageMapping(zone_id, allocator.allocate())
        raise OutOfMemoryError(
            f"zones {chain} exhausted in topology {self.topology.name}"
        )

    def allocate_bulk(self, preferred: np.ndarray,
                      ctx: PlacementContext) -> BulkPlacement:
        """Allocate one frame per page, page ``k`` preferring zone
        ``preferred[k]``.

        The result is exactly what :meth:`allocate` would give called
        once per page, in order, with the non-strict chain
        ``spill_chain(preferred[k], ctx)``.  Free frames only decrease
        during the call, so a zone that fills stays full: each round
        sends every remaining page to the first non-full zone of its
        chain, up to the first page that would overflow some zone, then
        marks that zone full.  At most one round per zone.

        When every zone is exhausted, the pages before the failing one
        keep their frames and :class:`OutOfMemoryError` is raised with
        the same message :meth:`allocate` gives; its ``placed``
        attribute holds the :class:`BulkPlacement` of those pages.  A
        zone id the topology lacks raises :class:`ConfigError` before
        any frame is taken.
        """
        preferred = np.asarray(preferred, dtype=np.int64)
        n_pages = preferred.size
        n_slots = max(self._allocators) + 1
        in_range = (preferred >= 0) & (preferred < n_slots)
        if not in_range.all():
            raise ConfigError(f"no zone {preferred[~in_range][0]} in "
                              f"{self.topology.name}")
        chains: dict[int, list[int]] = {}
        for first in _distinct(preferred, n_slots):
            if first not in self._allocators:
                raise ConfigError(
                    f"no zone {first} in {self.topology.name}")
            chain = spill_chain(first, ctx)
            chains[first] = chain + [
                z for z in self._allocators if z not in chain]
        free = np.zeros(n_slots, dtype=np.int64)
        for zone_id, allocator in self._allocators.items():
            free[zone_id] = allocator.free_pages

        zones = np.empty(n_pages, dtype=np.int16)
        start = 0
        failure = None
        while start < n_pages:
            # First non-full zone of each chain, -1 when all are full.
            target_of = np.full(n_slots, -1, dtype=np.int64)
            for first, chain in chains.items():
                target_of[first] = next(
                    (z for z in chain if free[z] > 0), -1)
            targets = target_of[preferred[start:]]
            stop = targets.size
            exhausted = np.flatnonzero(targets < 0)
            if exhausted.size:
                stop = int(exhausted[0])
            placeable = targets[:stop]
            counts = np.bincount(placeable, minlength=n_slots)
            for zone_id in np.flatnonzero(counts > free).tolist():
                hits = np.flatnonzero(placeable == zone_id)
                stop = min(stop, int(hits[free[zone_id]]))
            zones[start:start + stop] = targets[:stop]
            free -= np.bincount(targets[:stop], minlength=n_slots)
            start += stop
            if stop < targets.size and targets[stop] < 0:
                failure = chains[int(preferred[start])]
                break

        zones = zones[:start]
        frames = np.empty(start, dtype=np.int64)
        for zone_id in _distinct(zones, n_slots):
            at = np.flatnonzero(zones == zone_id)
            frames[at] = self._allocators[zone_id].allocate_many(at.size)
        placed = BulkPlacement(
            zones, frames, int(np.count_nonzero(zones != preferred[:start])))
        if failure is not None:
            error = OutOfMemoryError(
                f"zones {failure} exhausted in topology "
                f"{self.topology.name}"
            )
            error.placed = placed
            raise error
        return placed

    def free(self, mapping: PageMapping) -> None:
        """Return one frame."""
        self.allocator(mapping.zone_id).free(mapping.frame)

    def free_many(self, zones: np.ndarray, frames: np.ndarray) -> None:
        """Return ``frames[k]`` of zone ``zones[k]`` for every ``k``,
        zone by zone, each zone's frames in the order given."""
        if not zones.size:
            return
        for zone_id in _distinct(zones, max(self._allocators) + 1):
            self.allocator(zone_id).free_many(frames[zones == zone_id])

    def occupancy(self) -> dict[int, tuple[int, int]]:
        """``{zone_id: (used_pages, capacity_pages)}`` snapshot."""
        return {
            zone_id: (alloc.used_pages, alloc.capacity_pages)
            for zone_id, alloc in self._allocators.items()
        }
