"""The Section 5.3 annotation runtime: ``GetAllocation``.

Figure 9's pseudo-code hoists per-allocation sizes and hotness values
into two arrays and asks a runtime routine to turn them — together with
the discovered machine bandwidth topology — into per-allocation
placement hints.  :func:`get_allocation` is that routine:

* if BW-AWARE placement fits within BO capacity anyway (the footprint's
  BO share is below the BO pool size), *every* allocation gets the BW
  hint — hotness is irrelevant without a capacity constraint;
* otherwise allocations are ranked by hotness density and the hottest
  are hinted into BO until its capacity is spoken for; the rest are
  hinted CO.

Hotness values are machine-independent (relative access counts from the
profiler or the programmer's intuition), so annotated programs remain
performance portable: the same annotations re-specialize on any
topology at run time.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.errors import PolicyError, ProfileError
from repro.core.units import PAGE_SIZE, bytes_to_pages
from repro.memory.acpi import FirmwareTables
from repro.policies.annotated import PlacementHint
from repro.profiling.profiler import WorkloadProfile
from repro.workloads.base import TraceWorkload


def get_allocation(sizes: Sequence[int], hotness: Sequence[float],
                   tables: FirmwareTables,
                   bo_capacity_bytes: int,
                   bo_domain: Optional[int] = None
                   ) -> list[PlacementHint]:
    """Compute placement hints for a program's allocations.

    ``sizes`` and ``hotness`` are parallel arrays in allocation order
    (Figure 9); ``hotness`` is *total* relative traffic per allocation —
    the ranking key is hotness per byte.  ``bo_capacity_bytes`` is the
    bandwidth-optimized pool size discovered by the runtime.

    Ordering contract: allocations are ranked by hotness density
    (``hotness[i] / sizes[i]``) descending, and allocations with *equal*
    density are ranked by allocation index ascending — the earliest
    allocation wins the remaining BO space.  The output is therefore a
    pure function of the ``(sizes, hotness)`` arrays: it never depends
    on dict iteration order, sort incidentals, or any other container
    artifact of the caller.
    """
    if len(sizes) != len(hotness):
        raise PolicyError("sizes and hotness arrays must align")
    if not sizes:
        return []
    if any(size <= 0 for size in sizes):
        raise PolicyError("allocation sizes must be positive")
    if any(h < 0 for h in hotness):
        raise PolicyError("hotness values must be >= 0")
    if bo_capacity_bytes < 0:
        raise PolicyError("bo_capacity_bytes must be >= 0")

    if bo_domain is None:
        bandwidths = tables.sbit.bandwidth_gbps
        bo_domain = max(range(len(bandwidths)), key=bandwidths.__getitem__)
    bo_fraction = tables.sbit.fractions()[bo_domain]

    footprint_pages = sum(bytes_to_pages(size) for size in sizes)
    bo_capacity_pages = bo_capacity_bytes // PAGE_SIZE

    # Unconstrained case: BW-AWARE would place bo_fraction of the
    # footprint in BO; if that fits, hotness does not matter.
    if footprint_pages * bo_fraction <= bo_capacity_pages:
        return [PlacementHint.BW_AWARE] * len(sizes)

    # Constrained case: hottest-per-byte structures into BO until the
    # pool is spoken for.  A structure larger than the remaining BO
    # space still gets the BO hint: its prefix fills the pool and the
    # overflow spills to CO (the Section 5.2 fallback), which keeps the
    # scarce BO pages fully utilized by the hottest structures.
    # Rank by (density desc, allocation index asc).  The explicit index
    # tie-break keeps equal-density orderings deterministic rather than
    # an accident of sort stability (see the docstring contract).
    density = [
        (hotness[i] / max(sizes[i], 1), i) for i in range(len(sizes))
    ]
    density.sort(key=lambda pair: (-pair[0], pair[1]))
    hints = [PlacementHint.CAPACITY_OPTIMIZED] * len(sizes)
    remaining = bo_capacity_pages
    for _, index in density:
        if remaining <= 0:
            break
        hints[index] = PlacementHint.BANDWIDTH_OPTIMIZED
        remaining -= bytes_to_pages(sizes[index])
    return hints


def hints_from_profile(workload: TraceWorkload,
                       profile: WorkloadProfile,
                       tables: FirmwareTables,
                       bo_capacity_bytes: int,
                       dataset: str = "default"
                       ) -> dict[str, PlacementHint]:
    """Turn a training-run profile into per-structure hints.

    This is the full Section 5 workflow glued together: the profiler's
    per-structure access counts become the hotness array, the workload's
    allocation sizes (possibly for a *different* dataset than the
    profile was trained on — the Figure 11 scenario) become the size
    array, and :func:`get_allocation` computes the hints.
    """
    specs = workload.data_structures(dataset)
    sizes = [spec.size_bytes for spec in specs]
    hotness = []
    for spec in specs:
        try:
            hotness.append(float(
                profile.structure_by_name(spec.name).accesses
            ))
        except ProfileError:
            # Structures absent from the training profile (data
            # dependent allocations) fall back to neutral hotness.
            hotness.append(0.0)
    hints = get_allocation(sizes, hotness, tables, bo_capacity_bytes)
    return {spec.name: hint for spec, hint in zip(specs, hints)}
