"""Per-process virtual address space and page table.

The address space hands out page-aligned virtual ranges with a bump
allocator (heap grows upward from :data:`HEAP_BASE`) and records the
physical mapping of every virtual page.  Mappings are stored in dense
numpy arrays indexed by virtual page number, which makes the hot
experiment path — "which zone serves this page?" for a few hundred
thousand trace entries — a single fancy-index operation.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.errors import AllocationError, TranslationError
from repro.core.units import PAGE_SIZE, bytes_to_pages
from repro.vm.page import Allocation, PageMapping, vpn_of

#: Bottom of the simulated heap.  Non-zero so that address zero stays an
#: obviously invalid pointer, as on a real machine.
HEAP_BASE = 0x1000_0000

#: Sentinel in the zone array for unmapped pages.
UNMAPPED = -1


class AddressSpace:
    """Virtual address space of one process."""

    def __init__(self) -> None:
        self._next_va = HEAP_BASE
        self._allocations: list[Allocation] = []
        base_vpn = HEAP_BASE // PAGE_SIZE
        self._base_vpn = base_vpn
        self._zone = np.full(0, UNMAPPED, dtype=np.int16)
        self._frame = np.full(0, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Virtual range management
    # ------------------------------------------------------------------

    @property
    def allocations(self) -> tuple[Allocation, ...]:
        """All live allocations in program order."""
        return tuple(self._allocations)

    @property
    def footprint_bytes(self) -> int:
        """Sum of allocation sizes (page-rounded)."""
        return sum(a.n_pages * PAGE_SIZE for a in self._allocations)

    @property
    def footprint_pages(self) -> int:
        return sum(a.n_pages for a in self._allocations)

    def reserve(self, size_bytes: int, name: str = "",
                hint: Optional[object] = None,
                hotness: float = 1.0) -> Allocation:
        """Reserve a page-aligned virtual range without mapping it."""
        if size_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        allocation = Allocation(
            alloc_id=len(self._allocations),
            name=name or f"alloc{len(self._allocations)}",
            va_start=self._next_va,
            size_bytes=size_bytes,
            hint=hint,
            hotness=hotness,
        )
        self._next_va = allocation.va_end
        self._allocations.append(allocation)
        self._grow_tables(allocation.first_vpn + allocation.n_pages)
        return allocation

    def allocation_of(self, virtual_address: int) -> Allocation:
        """The allocation containing ``virtual_address``."""
        for allocation in self._allocations:
            if allocation.contains(virtual_address):
                return allocation
        raise TranslationError(
            f"address {virtual_address:#x} is not in any allocation"
        )

    # ------------------------------------------------------------------
    # Page table
    # ------------------------------------------------------------------

    def _grow_tables(self, end_vpn: int) -> None:
        needed = end_vpn - self._base_vpn
        if needed <= len(self._zone):
            return
        grow = needed - len(self._zone)
        self._zone = np.concatenate(
            [self._zone, np.full(grow, UNMAPPED, dtype=np.int16)]
        )
        self._frame = np.concatenate(
            [self._frame, np.full(grow, -1, dtype=np.int64)]
        )

    def _index(self, vpn: int) -> int:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= len(self._zone):
            raise TranslationError(f"vpn {vpn} outside managed range")
        return idx

    def map_page(self, vpn: int, mapping: PageMapping) -> None:
        """Install the physical mapping for one virtual page."""
        idx = self._index(vpn)
        if self._zone[idx] != UNMAPPED:
            raise TranslationError(f"vpn {vpn} is already mapped")
        self._zone[idx] = mapping.zone_id
        self._frame[idx] = mapping.frame

    def unmap_page(self, vpn: int) -> PageMapping:
        """Remove and return the mapping for one virtual page."""
        idx = self._index(vpn)
        if self._zone[idx] == UNMAPPED:
            raise TranslationError(f"vpn {vpn} is not mapped")
        mapping = PageMapping(int(self._zone[idx]), int(self._frame[idx]))
        self._zone[idx] = UNMAPPED
        self._frame[idx] = -1
        return mapping

    def _range(self, allocation: Allocation) -> slice:
        start = allocation.first_vpn - self._base_vpn
        stop = start + allocation.n_pages
        if start < 0 or stop > len(self._zone):
            raise TranslationError(
                f"allocation {allocation.name!r} outside managed range")
        return slice(start, stop)

    def unmapped_pages(self, allocation: Allocation) -> np.ndarray:
        """Indices (within ``allocation``) of its unmapped pages,
        ascending."""
        return np.flatnonzero(self._zone[self._range(allocation)]
                              == UNMAPPED)

    def map_range(self, allocation: Allocation, page_indices: np.ndarray,
                  zones: np.ndarray, frames: np.ndarray) -> None:
        """Install mappings for pages ``page_indices`` of ``allocation``
        (``zones[k]``/``frames[k]`` back page ``page_indices[k]``)."""
        page_indices = np.asarray(page_indices, dtype=np.int64)
        if not page_indices.size:
            return
        if page_indices.min() < 0 \
                or page_indices.max() >= allocation.n_pages:
            raise TranslationError(
                f"page index outside allocation {allocation.name!r}")
        idx = self._range(allocation).start + page_indices
        mapped = self._zone[idx] != UNMAPPED
        if mapped.any():
            raise TranslationError(
                f"vpn {allocation.first_vpn + int(page_indices[mapped][0])}"
                " is already mapped")
        self._zone[idx] = zones
        self._frame[idx] = frames

    def unmap_range(self, allocation: Allocation
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Remove every mapping of ``allocation``; returns the zones and
        frames of the pages that were mapped, in page order."""
        span = self._range(allocation)
        mapped = np.flatnonzero(self._zone[span] != UNMAPPED) + span.start
        zones = self._zone[mapped].astype(np.int64)
        frames = self._frame[mapped].copy()
        self._zone[mapped] = UNMAPPED
        self._frame[mapped] = -1
        return zones, frames

    def is_mapped(self, vpn: int) -> bool:
        idx = vpn - self._base_vpn
        if idx < 0 or idx >= len(self._zone):
            return False
        return self._zone[idx] != UNMAPPED

    def translate(self, virtual_address: int) -> PageMapping:
        """Zone and frame backing ``virtual_address``."""
        idx = self._index(vpn_of(virtual_address))
        if self._zone[idx] == UNMAPPED:
            raise TranslationError(
                f"page fault: {virtual_address:#x} is unmapped"
            )
        return PageMapping(int(self._zone[idx]), int(self._frame[idx]))

    def zone_of_vpns(self, vpns: np.ndarray) -> np.ndarray:
        """Vectorized translation of virtual page numbers to zone ids.

        Raises :class:`TranslationError` if any page is unmapped — a
        trace touching an unmapped page is a simulator bug, not a
        recoverable fault.
        """
        idx = np.asarray(vpns, dtype=np.int64) - self._base_vpn
        if idx.size and (idx.min() < 0 or idx.max() >= len(self._zone)):
            raise TranslationError("vpn outside managed range")
        zones = self._zone[idx]
        if idx.size and zones.min() == UNMAPPED:
            bad = int(np.asarray(vpns)[zones == UNMAPPED][0])
            raise TranslationError(f"page fault: vpn {bad} is unmapped")
        return zones.astype(np.int64)

    def zone_map(self) -> np.ndarray:
        """Zone id per *allocated* page, in allocation/program order.

        This is the canonical "placement vector" the experiment harness
        and the analytic engines consume: entry ``k`` is the zone backing
        the ``k``-th page of the program footprint.
        """
        return self._footprint(self._zone, np.int16, "zone_map")

    def frame_map(self) -> np.ndarray:
        """Frame number per allocated page, same order as
        :meth:`zone_map` (each frame is within that page's zone)."""
        return self._footprint(self._frame, np.int64, "frame_map")

    def _footprint(self, table: np.ndarray, dtype, what: str
                   ) -> np.ndarray:
        if not self._allocations:
            return np.empty(0, dtype=dtype)
        flat = np.concatenate([table[self._range(allocation)]
                               for allocation in self._allocations])
        # Unmapped entries hold -1 in both tables.
        if flat.size and flat.min() < 0:
            raise TranslationError(f"{what}() on partially mapped space")
        return flat
