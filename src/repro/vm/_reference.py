"""Reference (per-page loop) page placement.

:meth:`repro.vm.process.Process.fault_in` places an allocation in a few
array passes when its policy answers
:meth:`~repro.policies.base.PlacementPolicy.place_pages`.  The original
per-page loop lives here, and serves twice:

* as the route for policies that answer only per page (``place_pages``
  returns ``None``: BIND, PREFERRED, BW-AWARE-COUNTER, user policies
  that read ``ctx.free_pages`` between pages);
* as the behavioural oracle: the golden placement suite
  (``tests/test_golden_placement.py``) checks the bulk path gives the
  same zones, frames, occupancy and policy state, and ``repro bench``
  times the two side by side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.policies.base import PlacementPolicy
from repro.vm.page import Allocation

if TYPE_CHECKING:
    from repro.vm.process import Process


def fault_in_per_page(process: Process, allocation: Allocation,
                      policy: PlacementPolicy) -> None:
    """Place every unmapped page of ``allocation`` one at a time with
    the (already prepared) ``policy``, counting each page that lands
    outside the first zone of its chain in ``process.spilled_pages``."""
    ctx = process.context
    strict = bool(getattr(policy, "strict", False))
    for page_index, vpn in enumerate(allocation.vpns()):
        if process.space.is_mapped(vpn):
            continue
        chain = policy.preferred_zones(allocation, page_index, ctx)
        mapping = process.physical.allocate(chain, strict=strict)
        process.space.map_page(vpn, mapping)
        process.spilled_pages += int(mapping.zone_id != chain[0])


def place_all_per_page(process: Process,
                       policy: PlacementPolicy) -> np.ndarray:
    """:meth:`Process.place_all` through :func:`fault_in_per_page`
    for a process without ``mbind`` ranges: prepare ``policy`` over
    every allocation, place them in program order, return the
    footprint zone map."""
    policy.prepare(process.space.allocations, process.context)
    for allocation in process.space.allocations:
        fault_in_per_page(process, allocation, policy)
    return process.zone_map()
